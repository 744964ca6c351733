package serve

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// The shortest decimal of a float64 in encoding/json's fixed-notation
// range, 1e-6 ≤ |f| < 1e21: what strconv.AppendFloat(dst, f, 'f', -1,
// 64) writes, byte for byte, in less than half its time. The digits
// come from Schubfach (R. Giulietti, "The Schubfach way to render
// doubles", 2020): of the decimals in f's rounding interval, the
// shortest, closest to f, ties to even. The frac, bytes and shifted
// values of a what-if's answer fall in the range; zero, subnormals and
// the exponent range stay with strconv, which is also the tests'
// reference.

const (
	// fixedMin and fixedMax bound the kernel's domain, 1e-6 ≤ |f| <
	// 1e21, where encoding/json writes fixed notation.
	fixedMin = 1e-6
	fixedMax = 1e21
	// gMinK is the least decimal exponent k the domain reaches; gTable
	// holds g(k) for k in [gMinK, gMinK+len(gTable)).
	gMinK = -22
)

// gTable holds g(k) = ⌊10^−k · 2^(125 − ⌊log₂ 10^−k⌋)⌋ + 1 as its high
// and low 63 bits, for k in [-22, 5]. TestSchubfachTable derives every
// entry with math/big.
var gTable = [...][2]uint64{
	{0x43c33c1937564800, 0x0000000000000001}, // -22
	{0x6c6b935b8bbd4000, 0x0000000000000001}, // -21
	{0x56bc75e2d6310000, 0x0000000000000001}, // -20
	{0x4563918244f40000, 0x0000000000000001}, // -19
	{0x6f05b59d3b200000, 0x0000000000000001}, // -18
	{0x58d15e1762800000, 0x0000000000000001}, // -17
	{0x470de4df82000000, 0x0000000000000001}, // -16
	{0x71afd498d0000000, 0x0000000000000001}, // -15
	{0x5af3107a40000000, 0x0000000000000001}, // -14
	{0x48c2739500000000, 0x0000000000000001}, // -13
	{0x746a528800000000, 0x0000000000000001}, // -12
	{0x5d21dba000000000, 0x0000000000000001}, // -11
	{0x4a817c8000000000, 0x0000000000000001}, // -10
	{0x7735940000000000, 0x0000000000000001}, // -9
	{0x5f5e100000000000, 0x0000000000000001}, // -8
	{0x4c4b400000000000, 0x0000000000000001}, // -7
	{0x7a12000000000000, 0x0000000000000001}, // -6
	{0x61a8000000000000, 0x0000000000000001}, // -5
	{0x4e20000000000000, 0x0000000000000001}, // -4
	{0x7d00000000000000, 0x0000000000000001}, // -3
	{0x6400000000000000, 0x0000000000000001}, // -2
	{0x5000000000000000, 0x0000000000000001}, // -1
	{0x4000000000000000, 0x0000000000000001}, // 0
	{0x6666666666666666, 0x3333333333333334}, // 1
	{0x51eb851eb851eb85, 0x0f5c28f5c28f5c29}, // 2
	{0x4189374bc6a7ef9d, 0x5916872b020c49bb}, // 3
	{0x68db8bac710cb295, 0x74f0d844d013a92b}, // 4
	{0x53e2d6238da3c211, 0x43f3e0370cdc8755}, // 5
}

// digitPairs holds "00" through "99", each pair as a little-endian
// word, so one load reads two digits.
var digitPairs = func() (t [100]uint16) {
	for i := range t {
		t[i] = uint16('0'+i/10) | uint16('0'+i%10)<<8
	}
	return t
}()

// appendFixed appends the shortest decimal of f in fixed notation. f
// must be in the domain: finite, 1e-6 ≤ |f| < 1e21.
func appendFixed(dst []byte, f float64) []byte {
	fb := math.Float64bits(f)
	if fb>>63 != 0 {
		dst = append(dst, '-')
	}
	// f = c·2^q with 2^52 ≤ c < 2^53: the domain holds normals only.
	c := fb&(1<<52-1) | 1<<52
	q := int(fb>>52&0x7ff) - 1075
	d, k := shortest(c, q)
	return appendDecimal(dst, d, k)
}

// shortest returns the decimal d·10^k that Schubfach picks for c·2^q:
// three round-to-odd products of g(k) locate f and the bounds of its
// rounding interval, and of the one or two candidates of each length
// inside it the shortest, closest to f, ties to even, wins. d may end
// in zeros.
func shortest(c uint64, q int) (d uint64, k int) {
	out := c & 1 // an odd c excludes the interval's bounds
	cb := c << 2
	cbr := cb + 2
	cbl := cb - 2
	if c != 1<<52 {
		k = flog10pow2(q)
	} else {
		// At a power of 2 the interval's lower half is narrower.
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	h := uint(q + flog2pow10(-k) + 2)
	g := &gTable[k-gMinK]
	vb := rop(g[0], g[1], cb<<h)
	vbl := rop(g[0], g[1], cbl<<h)
	vbr := rop(g[0], g[1], cbr<<h)

	s := vb >> 2
	if s >= 100 {
		// One digit shorter: the interval is narrower than 10^(k+1),
		// so at most one of its two candidates lies in it.
		sp10 := 10 * (s / 10)
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k
			}
			return tp10, k
		}
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	// Both s and t are in: the closer to f, ties to the even one.
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// rop is ⌊g·cp / 2^127⌋ rounded to odd, g = g1·2^63 + g0: the low bit
// is set when the dropped bits are not all zero.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&(1<<63-1)+(1<<63-1))>>63
}

// flog10pow2 is ⌊log₁₀ 2^e⌋, flog10ThreeQuartersPow2 ⌊log₁₀ ¾·2^e⌋ and
// flog2pow10 ⌊log₂ 10^e⌋, exact for every e the domain reaches.
func flog10pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }

func flog10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// pow10 is 10^i for i in [0, 17].
var pow10 = [...]uint64{
	1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17,
}

// appendDecimal appends d·10^k, 0 < d < 10^17, the way strconv's 'f'
// format places shortest digits: no trailing zeros after the point,
// "0." before a value below 1, zeros filling an integer's tail.
func appendDecimal(dst []byte, d uint64, k int) []byte {
	// n is d's digit count, and d is scaled to exactly 17 digits: one,
	// then two words of 8.
	n := flog10pow2(bits.Len64(d))
	if d >= pow10[n] {
		n++
	}
	d *= pow10[17-n]
	hi, lo := d/1e8, d%1e8
	first := byte('0' + hi/1e8)
	mid, low := digits8(hi%1e8), digits8(lo)
	// nd counts the digits up to the last nonzero one; first is never
	// '0'. A word's '0' bytes are zero after the XOR, its last digit is
	// its high byte.
	nd := 1
	if x := low ^ zeros8; x != 0 {
		nd = 17 - bits.LeadingZeros64(x)/8
	} else if x := mid ^ zeros8; x != 0 {
		nd = 9 - bits.LeadingZeros64(x)/8
	}

	// The digits go straight into dst's tail: after "0." and its zeros
	// for a value below 1, else at its start. 32 bytes hold either.
	pos := len(dst)
	dst = slices.Grow(dst, 32)
	b := dst[pos : pos+32]
	point := n + k // digits before the point
	at := 0
	if point <= 0 {
		binary.LittleEndian.PutUint64(b, zeroPoint)
		at = 2 - point // point ≥ -5 in the domain
	}
	b[at] = first
	binary.LittleEndian.PutUint64(b[at+1:], mid)
	binary.LittleEndian.PutUint64(b[at+9:], low)
	switch {
	case point <= 0:
		return dst[:pos+at+nd]
	case point >= nd:
		// An integer, below 1e21: at most 4 zeros past the 17 digits.
		binary.LittleEndian.PutUint64(b[17:], zeros8)
		return dst[:pos+point]
	default:
		copy(b[point+1:], b[point:nd])
		b[point] = '.'
		return dst[:pos+nd+1]
	}
}

const (
	// zeros8 is "00000000" as a little-endian word, zeroPoint "0.000000".
	zeros8    = 0x3030303030303030
	zeroPoint = 0x3030303030302e30
)

// digits8 returns x < 10^8 as 8 ASCII digits in a little-endian word,
// the first digit in the low byte, two digits per table lookup.
func digits8(x uint64) uint64 {
	hi, lo := x/10000, x%10000
	return uint64(digitPairs[hi/100]) | uint64(digitPairs[hi%100])<<16 |
		uint64(digitPairs[lo/100])<<32 | uint64(digitPairs[lo%100])<<48
}
