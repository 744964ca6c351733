package features

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"tipsy/internal/bgp"
	"tipsy/internal/geo"
	"tipsy/internal/wan"
)

// maxProbeRun is the longest displacement from its home cell any key
// may sit at after the hostile sets below. Linear probing at load ½ on
// a well-spread hash keeps it between 20 and 52 cells for these 2¹⁶-key
// sets; the fold alone, without its final multiply, left keys more
// than 2,000 cells from home in four of the set and seed pairs.
const maxProbeRun = 64

// wireKey packs the aggregator's join inputs the way pipeline does.
func wireKey(prefix, dst, as uint32, link wan.LinkID) Key {
	return Key{A: uint64(prefix)<<32 | uint64(dst), B: uint64(as)<<32 | uint64(link)}
}

// TestIndexHostileKeys inserts 2¹⁶ keys of each structured set a weak
// hash would pile up — equal low bits, sequential /24s, one destination
// across many links, keys differing only in the AS, and (flow, link)
// keys differing only in the link or the location — under fixed seeds,
// structured ones included, checks every lookup against a Go map and
// bounds the longest probe run. (A seed equal to one key word zeroes
// the product for every key sharing that word; that is the case the
// seed's secrecy exists for, so no seed here is one.
// TestIndexAgainstMap holds such keys to the map without the bound.)
func TestIndexHostileKeys(t *testing.T) {
	const n = 1 << 16
	flow := FlowFeatures{AS: 64500, Prefix: 0x0b000100, Loc: 3, Region: 2, Type: 1}
	sets := []struct {
		name string
		key  func(i uint32) Key
	}{
		{"equal low bits", func(i uint32) Key { return wireKey(i<<16, 40<<24, 64500, 7) }},
		{"sequential /24s", func(i uint32) Key { return wireKey(0x0b000000+i<<8, 40<<24, 64500, 7) }},
		{"one dst, many links", func(i uint32) Key { return wireKey(0x0b000100, 40<<24, 64500, wan.LinkID(i)) }},
		{"AS only", func(i uint32) Key { return wireKey(0x0b000100, 40<<24, i, 7) }},
		{"one flow, many links", func(i uint32) Key { return flow.Key(wan.LinkID(i)) }},
		{"flow location and link", func(i uint32) Key {
			f := flow
			f.Loc = geo.MetroID(i >> 4)
			return f.Key(wan.LinkID(i & 15))
		}},
	}
	for _, set := range sets {
		for _, seed := range []uint64{0, 1, ^uint64(0), 0x9e3779b97f4a7c15, 0x5851f42d4c957f2d, 0xd1b54a32d192ed03, 0x2545f4914f6cdd1d} {
			x := newIndex(512, seed)
			oracle := make(map[Key]int32, n)
			for i := uint32(0); i < n; i++ {
				k := set.key(i)
				if v, held := x.Intern(k, int32(i)); held {
					t.Fatalf("%s, seed %#x: key %d found (value %d) before it was inserted", set.name, seed, i, v)
				}
				oracle[k] = int32(i)
			}
			if x.n != n || 2*x.n > len(x.cells) {
				t.Fatalf("%s, seed %#x: %d keys in %d cells, want %d at load ≤ ½", set.name, seed, x.n, len(x.cells), n)
			}
			for k, want := range oracle {
				if v, ok := x.Find(k); !ok || v != want {
					t.Fatalf("%s, seed %#x: Find %+v = (%d, %v), want %d", set.name, seed, k, v, ok, want)
				}
			}
			if v, ok := x.Find(Key{^uint64(0), ^uint64(0), ^uint32(0)}); ok {
				t.Errorf("%s, seed %#x: an absent key found value %d", set.name, seed, v)
			}
			if run := longestProbeRun(&x); run > maxProbeRun {
				t.Errorf("%s, seed %#x: a key sits %d cells from home, want ≤ %d", set.name, seed, run, maxProbeRun)
			}
		}
	}
}

// longestProbeRun is the largest distance, in cells, between a key and
// its home cell.
func longestProbeRun(x *Index) int {
	mask, run := len(x.cells)-1, 0
	for i := range x.cells {
		if c := &x.cells[i]; c.v != 0 {
			run = max(run, (i-x.home(Key{c.a, c.b, c.c}))&mask)
		}
	}
	return run
}

// checkAgainstMap runs keys through x, interning key i with value i,
// and holds every answer to a Go map: Intern reports a key held
// exactly when the map has it and returns its first value, Find agrees
// before and after, the load stays at most ½, and the table doubles
// exactly when an insert crosses that line.
func checkAgainstMap(t *testing.T, name string, x *Index, keys []Key) {
	t.Helper()
	oracle := make(map[Key]int32)
	for i, k := range keys {
		want, had := oracle[k]
		if v, ok := x.Find(k); ok != had || ok && v != want {
			t.Fatalf("%s: key %d %+v: Find = (%d, %v) before Intern, want (%d, %v)", name, i, k, v, ok, want, had)
		}
		cells := len(x.cells)
		v, held := x.Intern(k, int32(i))
		if !had {
			want = int32(i)
			oracle[k] = want
		}
		if held != had || v != want {
			t.Fatalf("%s: key %d %+v: Intern = (%d, %v), want (%d, %v)", name, i, k, v, held, want, had)
		}
		grew := len(x.cells) != cells
		if x.n != len(oracle) || 2*x.n > len(x.cells) || grew != (!had && 2*len(oracle) > cells) || grew && len(x.cells) != 2*cells {
			t.Fatalf("%s: key %d: %d keys in %d cells after %d", name, i, x.n, len(x.cells), cells)
		}
	}
	for k, want := range oracle {
		if v, ok := x.Find(k); !ok || v != want {
			t.Fatalf("%s: Find %+v = (%d, %v) at the end, want %d", name, k, v, ok, want)
		}
	}
}

// sharedHome returns n distinct keys with one home cell under x's
// current size and seed.
func sharedHome(x *Index, n int, base Key) []Key {
	keys := []Key{base}
	home := x.home(base)
	for c := uint32(1); len(keys) < n; c++ {
		if k := (Key{base.A, base.B, c}); x.home(k) == home {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestIndexCellSize pins the cell at two key words, the link word and
// the value: 24 bytes.
func TestIndexCellSize(t *testing.T) {
	if n := unsafe.Sizeof(indexCell{}); n != 24 {
		t.Errorf("indexCell is %d bytes, want 24", n)
	}
}

// TestSetKeyIsProjectedKey holds Set.Key's masks to the projection they
// stand for.
func TestSetKeyIsProjectedKey(t *testing.T) {
	fn := func(as, prefix uint32, loc, region uint16, typ uint8, link uint32) bool {
		f := FlowFeatures{AS: bgp.ASN(as), Prefix: prefix, Loc: geo.MetroID(loc), Region: wan.Region(region), Type: wan.ServiceType(typ)}
		for _, s := range []Set{SetA, SetAP, SetAL} {
			if s.Key(f, wan.LinkID(link)) != FlowFeatures(s.Project(f)).Key(wan.LinkID(link)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// TestIndexAgainstMap is the index's differential test: random key
// sequences from small alphabets (so keys recur), keys that share a
// home cell, and key words equal to the seed, each across several
// doublings from the smallest table.
func TestIndexAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, seed := range []uint64{0, 0x9e3779b97f4a7c15, rng.Uint64()} {
		words := []uint64{0, 1, 2, seed, ^seed, seed ^ 0x9e3779b97f4a7c15, 1 << 63, ^uint64(0)}
		var recurring []Key
		for range 3000 {
			recurring = append(recurring, Key{words[rng.Intn(len(words))], words[rng.Intn(len(words))], uint32(rng.Intn(12))})
		}
		x := newIndex(0, seed)
		checkAgainstMap(t, "recurring", &x, recurring)

		x = newIndex(64, seed) // 128 cells: 40 keys share a home, a third of the table
		keys := sharedHome(&x, 40, Key{seed, seed, 0})
		keys = append(keys, sharedHome(&x, 40, Key{7, 9, 0})...)
		keys = append(keys, keys...)
		checkAgainstMap(t, "shared home", &x, keys)

		var flows []Key
		for i := range 5000 {
			f := FlowFeatures{AS: bgp.ASN(64500 + rng.Intn(50)), Prefix: uint32(0x0b000000 + rng.Intn(200)<<8), Region: 1, Type: 1}
			flows = append(flows, f.Key(wan.LinkID(i%7)))
		}
		x = newIndex(1, seed)
		checkAgainstMap(t, "flows", &x, flows)
	}
}

// FuzzIndex holds the index to a Go map on arbitrary key sequences.
// The first eight bytes are the seed; each following four bytes pick a
// key's two words from an alphabet holding the seed, its complement and
// small values, and its third word from eight, so keys recur, share
// words with the seed and collide in their home cells. A byte of 0xff
// starts the sequence over in a fresh index.
func FuzzIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x9e3779b97f4a7c15))
	f.Add(append(binary.LittleEndian.AppendUint64(nil, 1), 0, 1, 2, 3, 1, 1, 1, 1, 0xff, 0, 1, 2, 3, 4, 5, 6, 7))
	f.Add(append(make([]byte, 8), 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0x12, 0x34))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		seed := binary.LittleEndian.Uint64(data)
		words := [...]uint64{0, 1, seed, ^seed, seed ^ 0x9e3779b97f4a7c15, 1 << 32, uint64(data[0]), ^uint64(0)}
		var keys []Key
		flush := func() {
			x := newIndex(len(keys)%3, seed)
			checkAgainstMap(t, "fuzz", &x, keys)
			keys = keys[:0]
		}
		for b := data[8:]; len(b) > 0; {
			if b[0] == 0xff {
				flush()
				b = b[1:]
				continue
			}
			if len(b) < 4 {
				break
			}
			keys = append(keys, Key{
				A: words[b[0]&7] ^ uint64(b[0]>>3),
				B: words[b[1]&7] ^ uint64(b[1]>>3)<<40,
				C: uint32(b[2]&7) | uint32(b[3])<<24,
			})
			b = b[4:]
		}
		flush()
	})
}
