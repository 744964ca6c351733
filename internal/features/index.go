package features

import (
	"hash/maphash"
	"math/bits"

	"tipsy/internal/bgp"
	"tipsy/internal/geo"
	"tipsy/internal/wan"
)

// Key is what an Index interns: two words and a 32-bit word. A flow or
// a tuple packs into the two words in its sort order and a link into
// the third (FlowFeatures.Key); the aggregator packs its join inputs
// into the two words and leaves the third zero.
type Key struct {
	A, B uint64
	C    uint32
}

// Key packs the flow and a link into an index key. Distinct (flow,
// link) pairs have distinct keys, and KeyFlow undoes the packing.
func (f FlowFeatures) Key(link wan.LinkID) Key {
	a, b := f.sortKeys()
	return Key{a, b, uint32(link)}
}

// Key is FlowFeatures(s.Project(f)).Key(link), computed by masking
// the fields outside the set out of f's key.
func (s Set) Key(f FlowFeatures, link wan.LinkID) Key {
	k := f.Key(link)
	switch s {
	case SetA:
		k.A &^= 1<<32 - 1 // prefix
		k.B &= 1<<24 - 1  // region, type
	case SetAP:
		k.B &= 1<<24 - 1
	case SetAL:
		k.A &^= 1<<32 - 1
	}
	return k
}

// KeyFlow returns the flow FlowFeatures.Key packed into k's two words.
func KeyFlow(k Key) FlowFeatures {
	return FlowFeatures{
		AS:     bgp.ASN(k.A >> 32),
		Prefix: uint32(k.A),
		Loc:    geo.MetroID(k.B >> 24),
		Region: wan.Region(k.B >> 8),
		Type:   wan.ServiceType(k.B),
	}
}

// Index interns keys to int32 values; it is the one hash table every
// per-record scan uses (the aggregator's slots, the retrain's fits,
// encoder and grouper, Historical's lookup). It is an open-addressing
// table with linear probing, kept at most half full (an insert that
// takes it past half doubles it), so a probe run is short and a miss
// ends at the first empty cell. A cell is 24 bytes: the key and the
// value. A key's home cell comes from one seeded multiply-fold: both
// words mixed with the seed (the third folded into the second),
// multiplied to 128 bits, the halves xored; a golden-ratio multiply
// then carries the bits a key set varies in up to the top ones the
// index reads. A scan that mostly hits calls Find and Interns only on a
// miss: Find inlines into the loop, Intern does not.
//
// The seed is drawn once per process and is not a knob. The
// aggregator's keys come off the wire, so under a fixed hash one
// crafted set of sources would build the same long probe runs at every
// start, and a key word equal to the seed zeroes the product outright;
// under a seed the sender cannot know, either is a guess. Nothing
// observable depends on it: callers number values in first-seen order,
// not by cell, so every result is the same under every seed, and a
// configurable seed would only let a caller choose the one value such
// a set was built against. One seed
// per process, not per index, makes two indexes built from the same
// keys in the same order equal, so a model loaded twice is
// reflect.DeepEqual to itself.
type Index struct {
	seed  uint64
	shift uint // 64 - log2(len(cells))
	n     int  // keys held
	cells []indexCell
}

// indexCell is one cell: a key and its value plus one (0: empty).
type indexCell struct {
	a, b uint64
	c    uint32
	v    uint32
}

// indexSeed seeds every Index of the process.
var indexSeed = maphash.Bytes(maphash.MakeSeed(), nil)

// NewIndex returns an empty index with room for n keys before it
// grows.
func NewIndex(n int) Index { return newIndex(n, indexSeed) }

func newIndex(n int, seed uint64) Index {
	b := 1
	for 1<<b < 2*n {
		b++
	}
	return Index{seed: seed, shift: 64 - uint(b), cells: make([]indexCell, 1<<b)}
}

// home is the cell k's probe run starts at.
func (x *Index) home(k Key) int {
	hi, lo := bits.Mul64(k.A^x.seed, k.B^bits.RotateLeft64(uint64(k.C), 40)^x.seed^0x9e3779b97f4a7c15)
	return int((hi ^ lo) * 0x9e3779b97f4a7c15 >> x.shift)
}

// cell returns the cell holding k or, when k is absent, the empty cell
// an insert of k fills.
func (x *Index) cell(k Key) *indexCell {
	mask := len(x.cells) - 1
	for i := x.home(k); ; i = (i + 1) & mask {
		if c := &x.cells[i]; c.v == 0 || (c.a^k.A)|(c.b^k.B)|uint64(c.c^k.C) == 0 {
			return c
		}
	}
}

// Find returns the value held for k.
func (x *Index) Find(k Key) (int32, bool) {
	c := x.cell(k)
	return int32(c.v - 1), c.v != 0
}

// Intern returns the value held for k and true or, when k is absent,
// holds v for it and returns v and false. v must not be -1.
func (x *Index) Intern(k Key, v int32) (int32, bool) {
	c := x.cell(k)
	if c.v != 0 {
		return int32(c.v - 1), true
	}
	*c = indexCell{k.A, k.B, k.C, uint32(v) + 1}
	if x.n++; 2*x.n > len(x.cells) {
		x.grow()
	}
	return v, false
}

// grow doubles the table and reinserts every key.
func (x *Index) grow() {
	old := x.cells
	x.cells, x.shift = make([]indexCell, 2*len(old)), x.shift-1
	for i := range old {
		if c := &old[i]; c.v != 0 {
			*x.cell(Key{c.a, c.b, c.c}) = *c
		}
	}
}
