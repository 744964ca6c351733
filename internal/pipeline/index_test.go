package pipeline

import (
	"testing"

	"tipsy/internal/wan"
)

// maxProbeRun is the longest displacement from its home cell any key
// may sit at after the hostile sets below. Linear probing at load ½ on
// a well-spread hash keeps it between 20 and 52 cells for these 2¹⁶-key
// sets; the fold alone, without its final multiply, left keys more
// than 2,000 cells from home in four of the set and seed pairs.
const maxProbeRun = 64

// TestSlotIndexHostileKeys inserts 2¹⁶ keys of each structured set a
// weak hash would pile up — equal low bits, sequential /24s, one
// destination across many links, keys differing only in the AS — under
// fixed seeds, structured ones included, checks every lookup against a
// Go map and bounds the longest probe run. (A seed equal to one key word
// zeroes the product for every key sharing that word; that is the case
// the seed's secrecy exists for, so no seed here is one.)
func TestSlotIndexHostileKeys(t *testing.T) {
	const n = 1 << 16
	sets := []struct {
		name string
		key  func(i uint32) slotKey
	}{
		{"equal low bits", func(i uint32) slotKey { return keyOf(i<<16, 40<<24, 64500, 7) }},
		{"sequential /24s", func(i uint32) slotKey { return keyOf(0x0b000000+i<<8, 40<<24, 64500, 7) }},
		{"one dst, many links", func(i uint32) slotKey { return keyOf(0x0b000100, 40<<24, 64500, wan.LinkID(i)) }},
		{"AS only", func(i uint32) slotKey { return keyOf(0x0b000100, 40<<24, i, 7) }},
	}
	for _, set := range sets {
		for _, seed := range []uint64{0, 1, ^uint64(0), 0x9e3779b97f4a7c15, 0x5851f42d4c957f2d, 0xd1b54a32d192ed03, 0x2545f4914f6cdd1d} {
			x := newSlotIndex(seed)
			oracle := make(map[slotKey]int32, n)
			for i := uint32(0); i < n; i++ {
				k := set.key(i)
				c := x.lookup(k)
				if c.used {
					t.Fatalf("%s, seed %#x: key %d found before it was inserted", set.name, seed, i)
				}
				x.insert(c, k, int32(i)-1) // -1 included: the drop marker is a slot like any other
				oracle[k] = int32(i) - 1
			}
			if x.n != n || 2*x.n > len(x.cells) {
				t.Fatalf("%s, seed %#x: %d keys in %d cells, want %d at load ≤ ½", set.name, seed, x.n, len(x.cells), n)
			}
			for k, want := range oracle {
				if c := x.lookup(k); !c.used || c.slot != want {
					t.Fatalf("%s, seed %#x: lookup %+v = (%d, used %v), want %d", set.name, seed, k, c.slot, c.used, want)
				}
			}
			if c := x.lookup(slotKey{^uint64(0), ^uint64(0)}); c.used {
				t.Errorf("%s, seed %#x: an absent key found slot %d", set.name, seed, c.slot)
			}
			if run := longestProbeRun(&x); run > maxProbeRun {
				t.Errorf("%s, seed %#x: a key sits %d cells from home, want ≤ %d", set.name, seed, run, maxProbeRun)
			}
		}
	}
}

// longestProbeRun is the largest distance, in cells, between a key and
// its home cell.
func longestProbeRun(x *slotIndex) int {
	mask, run := len(x.cells)-1, 0
	for i := range x.cells {
		if c := &x.cells[i]; c.used {
			run = max(run, (i-x.home(c.key))&mask)
		}
	}
	return run
}
