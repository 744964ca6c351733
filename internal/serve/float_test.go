package serve

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// floatReference is encoding/json's float64 format as encoding/json
// writes it: strconv's shortest 'f' or 'e', and a one-digit negative
// exponent without its zero.
func floatReference(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// floatChecker holds appendFloat to floatReference, reusing its two
// buffers so a sweep of millions of values allocates nothing.
type floatChecker struct {
	got, want []byte
}

func (c *floatChecker) check(t testing.TB, f float64) {
	finite := true
	c.got = appendFloat(append(c.got[:0], "x"...), f, &finite)
	c.want = floatReference(append(c.want[:0], "x"...), f)
	if !bytes.Equal(c.got, c.want) {
		t.Fatalf("appendFloat(%#x) = %q, encoding/json writes %q", math.Float64bits(f), c.got[1:], c.want[1:])
	}
	if wantFinite := !math.IsNaN(f) && !math.IsInf(f, 0); finite != wantFinite {
		t.Fatalf("appendFloat(%#x) reports finite %v", math.Float64bits(f), finite)
	}
}

// sumPointOneTwo is 0.1 + 0.2 in float64 arithmetic,
// 0.30000000000000004; the constant expression is exact and gives 0.3.
var sumPointOneTwo = func(a, b float64) float64 { return a + b }(0.1, 0.2)

// floatEdges are the values where the format changes or the kernel is
// easiest to get wrong: the notation switch at 1e-6 and 1e21, the end
// of float64's contiguous integers at 2^53, zero's sign, a sum with a
// long shortest form, and a value halfway between its two shortest
// candidates (…624.2 and …624.3; the even one wins).
var floatEdges = []float64{
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
	1e21, math.Nextafter(1e21, 0), -math.Nextafter(1e21, 0),
	1 << 53, 1<<53 - 1, math.Nextafter(1<<53, math.Inf(1)), 1<<53 + 1,
	0, math.Copysign(0, -1), sumPointOneTwo, 0.3, 1<<50 + 0.25,
	1, -1, 0.5, 1.5, 5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
}

// TestAppendFloatMatchesStrconv: the kernel writes strconv's bytes over
// a deterministic sweep of its domain: values in (0, 1), products like
// a flow's bytes × frac, random bit patterns in range with full and
// with short mantissas (where ties between two candidates happen),
// integers on both sides of 2^53, and every power of 2 and 10 in range
// with both neighbours. Under the race detector only the edges and the
// powers run: the random kinds' 10 M values take minutes there and
// share no memory, so scripts/check.sh runs them in its pass without
// -race.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	var c floatChecker
	for _, f := range floatEdges {
		c.check(t, f)
	}
	both := func(f float64) {
		for _, g := range [...]float64{f, math.Nextafter(f, 0), math.Nextafter(f, math.Inf(1))} {
			c.check(t, g)
			c.check(t, -g)
		}
	}
	for e := -20; e <= 70; e++ {
		both(math.Ldexp(1, e))
	}
	for e := -6; e <= 21; e++ {
		both(math.Pow(10, float64(e)))
	}

	// Each kind draws from its own seed on its own goroutine, so the
	// sweep takes half as long where two CPUs are free.
	const perKind = 2_000_000
	inRange := func(rng *rand.Rand) uint64 {
		return rng.Uint64()&(1<<52-1) | uint64(1023-20+rng.Intn(90))<<52
	}
	kinds := []struct {
		name string
		draw func(rng *rand.Rand) float64
	}{
		{"frac", func(rng *rand.Rand) float64 { return rng.Float64() }},
		{"product", func(rng *rand.Rand) float64 { return float64(rng.Int63n(1<<40)) * rng.Float64() }},
		{"bits", func(rng *rand.Rand) float64 { return math.Float64frombits(inRange(rng)) }},
		{"short-bits", func(rng *rand.Rand) float64 {
			return math.Float64frombits(inRange(rng) &^ (1<<rng.Intn(53) - 1))
		}},
		{"integers", func(rng *rand.Rand) float64 { return float64(rng.Int63n(1 << 60)) }},
	}
	for i, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			if raceEnabled {
				t.Skip("the random sweep runs without the race detector")
			}
			t.Parallel()
			var c floatChecker
			rng := rand.New(rand.NewSource(int64(39 + i)))
			for j := 0; j < perKind; j++ {
				f := kind.draw(rng)
				if rng.Intn(2) == 0 {
					f = -f
				}
				c.check(t, f)
			}
		})
	}
}

// FuzzAppendFloat holds appendFloat to encoding/json's format on any
// float64, the fallback to strconv included.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range floatEdges {
		f.Add(math.Float64bits(v))
	}
	var c floatChecker
	f.Fuzz(func(t *testing.T, bits uint64) { c.check(t, math.Float64frombits(bits)) })
}

// TestSchubfachTable derives every g(k) with math/big, and checks that
// the table spans exactly the k the domain reaches: those of the
// binary exponents of 1e-6 and of 1e21's predecessor, at a power of 2
// and off one.
func TestSchubfachTable(t *testing.T) {
	one := big.NewInt(1)
	for i, got := range gTable {
		k := gMinK + i
		// x = 10^-k as num/den, and r = ⌊log₂ x⌋.
		num, den := big.NewInt(1), big.NewInt(1)
		if k <= 0 {
			num.Exp(big.NewInt(10), big.NewInt(int64(-k)), nil)
		} else {
			den.Exp(big.NewInt(10), big.NewInt(int64(k)), nil)
		}
		r := num.BitLen() - den.BitLen()
		if new(big.Int).Lsh(den, uint(max(r, 0))).Cmp(new(big.Int).Lsh(num, uint(max(-r, 0)))) > 0 {
			r-- // 2^r > x
		}
		if r != flog2pow10(-k) {
			t.Errorf("⌊log₂ 10^%d⌋ = %d, flog2pow10 says %d", -k, r, flog2pow10(-k))
		}
		// g = ⌊x · 2^(125-r)⌋ + 1.
		g := new(big.Int).Lsh(num, uint(125-r))
		g.Quo(g, den).Add(g, one)
		mask := new(big.Int).Sub(new(big.Int).Lsh(one, 63), one)
		want := [2]uint64{new(big.Int).Rsh(g, 63).Uint64(), new(big.Int).And(g, mask).Uint64()}
		if got != want {
			t.Errorf("g(%d) = %#x, math/big derives %#x", k, got, want)
		}
	}
	lo, hi := math.MaxInt, math.MinInt
	for _, f := range []float64{fixedMin, math.Nextafter(fixedMax, 0)} {
		q := int(math.Float64bits(f)>>52&0x7ff) - 1075
		for _, k := range []int{flog10pow2(q), flog10ThreeQuartersPow2(q)} {
			lo, hi = min(lo, k), max(hi, k)
		}
	}
	if lo != gMinK || hi != gMinK+len(gTable)-1 {
		t.Errorf("the domain reaches k in [%d, %d], the table holds [%d, %d]", lo, hi, gMinK, gMinK+len(gTable)-1)
	}
}

// BenchmarkAppendFloat times the kernel and strconv on the values an
// answer carries: fracs in (0, 1) and bytes × frac products.
func BenchmarkAppendFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = float64(rng.Int63n(1<<40)) * rng.Float64()
		if i%2 == 0 {
			vals[i] = rng.Float64()
		}
	}
	buf := make([]byte, 0, 64)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = appendFixed(buf[:0], vals[i%len(vals)])
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = strconv.AppendFloat(buf[:0], vals[i%len(vals)], 'f', -1, 64)
		}
	})
}
