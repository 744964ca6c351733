package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"tipsy/internal/bgp"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/netsim"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

func geoNearestSetup() (*GeoNearest, *staticDir) {
	metros := geo.World()
	dir := &staticDir{links: map[wan.LinkID]wan.Link{
		1: {ID: 1, Metro: 1, PeerAS: 5},
		2: {ID: 2, Metro: 2, PeerAS: 5},
		3: {ID: 3, Metro: 40, PeerAS: 5},
		4: {ID: 4, Metro: 1, PeerAS: 6},
	}}
	return NewGeoNearest(dir, metros), dir
}

func TestGeoNearestPrefersOwnNearbyLinks(t *testing.T) {
	g, _ := geoNearestSetup()
	if g.Name() != "GeoNearest" {
		t.Errorf("Name = %q", g.Name())
	}
	// AS 5, located at metro 1: its own link in metro 1 ranks first,
	// the other AS's co-located link comes after all of AS 5's.
	f := flow(5, 0, 1, 1, 1)
	preds := g.Predict(Query{Flow: f, K: 4})
	checkNormalized(t, preds)
	if len(preds) != 4 {
		t.Fatalf("got %d predictions, want 4", len(preds))
	}
	if preds[0].Link != 1 {
		t.Errorf("nearest own link should rank first: %+v", preds)
	}
	if preds[3].Link != 4 {
		t.Errorf("foreign link should rank last: %+v", preds)
	}
}

func TestGeoNearestHonoursExclusions(t *testing.T) {
	g, _ := geoNearestSetup()
	f := flow(5, 0, 1, 1, 1)
	preds := g.Predict(Query{Flow: f, K: 3, Exclude: func(l wan.LinkID) bool { return l == 1 }})
	checkNormalized(t, preds)
	for _, p := range preds {
		if p.Link == 1 {
			t.Fatalf("excluded link predicted: %+v", preds)
		}
	}
	if len(preds) == 0 {
		t.Fatal("fallback must still answer with the excluded link gone")
	}
}

func TestGeoNearestAlwaysAnswersAndIsDeterministic(t *testing.T) {
	g, _ := geoNearestSetup()
	// A flow from an AS with no links of its own, at an arbitrary
	// metro: the fallback must still produce a ranking, and the same
	// query must produce the same answer.
	f := flow(999, 0, 17, 2, 0)
	a := g.Predict(Query{Flow: f, K: 3})
	b := g.Predict(Query{Flow: f, K: 3})
	if len(a) == 0 {
		t.Fatal("no answer for a model-less flow")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("GeoNearest not deterministic")
	}
}

// sortGeoNearest is GeoNearest.Predict as a full sort: rank every
// non-excluded link by (foreign, distance, ID) and keep the head. The
// production rung selects its head without sorting the tail; this is
// the oracle it must match answer for answer.
func sortGeoNearest(g *GeoNearest, q Query) []Prediction {
	type cand struct {
		id      wan.LinkID
		foreign bool
		d       float64
	}
	var cands []cand
	for _, id := range g.links.Links() {
		if q.excluded(id) {
			continue
		}
		l, ok := g.links.Link(id)
		if !ok {
			continue
		}
		cands = append(cands, cand{
			id:      id,
			foreign: l.PeerAS != q.Flow.AS,
			d:       g.metros.Distance(q.Flow.Loc, l.Metro),
		})
	}
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].foreign != cands[j].foreign {
			return !cands[i].foreign
		}
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].id < cands[j].id
	})
	max := q.K
	if max <= 0 || max > 16 {
		max = 16
	}
	if len(cands) > max {
		cands = cands[:max]
	}
	preds := make([]Prediction, len(cands))
	w := 1.0
	for i, c := range cands {
		preds[i] = Prediction{Link: c.id, Frac: w}
		w *= 0.5
	}
	return topK(preds, q.K)
}

// geoSim builds the simulated WAN of one topology size; the fixtures
// below are built once per test binary.
func geoSim(gen topology.GenConfig) (*netsim.Sim, *geo.DB) {
	metros := geo.World()
	g := topology.Generate(gen, metros)
	w := traffic.Generate(traffic.TestConfig(gen.Seed+10), g, metros)
	return netsim.New(netsim.DefaultConfig(gen.Seed), g, metros, w), metros
}

var (
	smallGeoSim  = sync.OnceValues(func() (*netsim.Sim, *geo.DB) { return geoSim(topology.TestGenConfig(1)) })
	mediumGeoSim = sync.OnceValues(func() (*netsim.Sim, *geo.DB) { return geoSim(topology.DefaultGenConfig(1)) })
)

// geoQuery is one fuzzable GeoNearest query: the flow's AS and
// location, K, and an exclusion bitmask over link IDs (bit i of the
// mask excludes link i+1).
func geoQuery(as bgp.ASN, loc geo.MetroID, k int, mask []byte) Query {
	q := Query{Flow: features.FlowFeatures{AS: as, Loc: loc}, K: k}
	if mask != nil {
		q.Exclude = func(l wan.LinkID) bool {
			i := int(l) - 1
			return i >= 0 && i/8 < len(mask) && mask[i/8]&(1<<(i%8)) != 0
		}
	}
	return q
}

// TestGeoNearestMatchesSortOracle: the bounded selection answers
// exactly what the full sort does, over own-AS and foreign flows,
// known and unknown metros (+Inf distance, so ranking falls to link
// ID), every K from -2 to 20, and exclusion sets from none to every
// link.
func TestGeoNearestMatchesSortOracle(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sim     func() (*netsim.Sim, *geo.DB)
		queries int
	}{
		{"test topology", smallGeoSim, 20000},
		{"default topology", mediumGeoSim, 20000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, metros := tc.sim()
			g := NewGeoNearest(sim, metros)
			links := sim.Links()
			rng := rand.New(rand.NewSource(7))
			mask := make([]byte, (len(links)+7)/8)
			nilAnswers := 0
			for i := 0; i < tc.queries; i++ {
				var as bgp.ASN
				if rng.Intn(4) == 0 {
					as = bgp.ASN(4200000000 + rng.Intn(100)) // peers with no link
				} else {
					l, _ := sim.Link(links[rng.Intn(len(links))])
					as = l.PeerAS
				}
				// Metro 0 and IDs past the database are unknown.
				loc := geo.MetroID(rng.Intn(len(metros.All()) + 3))
				var m []byte
				switch p := rng.Intn(6); p {
				case 0: // no exclusion function
				case 1: // every link
					m = mask
					for j := range m {
						m[j] = 0xff
					}
				default: // each link excluded with probability 1/2^p
					m = mask
					for j := range m {
						m[j] = 0xff
						for r := 0; r < p-1; r++ {
							m[j] &= byte(rng.Intn(256))
						}
					}
				}
				q := geoQuery(as, loc, rng.Intn(23)-2, m)
				got, want := g.Predict(q), sortGeoNearest(g, q)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d (AS %d, metro %d, K %d): got %+v, want %+v", i, as, loc, q.K, got, want)
				}
				if got == nil {
					nilAnswers++
				}
			}
			if nilAnswers == 0 {
				t.Error("no query excluded every link")
			}
		})
	}
}

// FuzzGeoNearest checks the selection against the sort oracle on the
// test topology for arbitrary AS, metro, K and exclusion bitmask.
func FuzzGeoNearest(f *testing.F) {
	sim, metros := smallGeoSim()
	g := NewGeoNearest(sim, metros)
	l, _ := sim.Link(1)
	all := bytes.Repeat([]byte{0xff}, (sim.NumLinks()+7)/8)
	f.Add(uint32(l.PeerAS), uint16(l.Metro), int8(3), []byte{1})
	f.Add(uint32(l.PeerAS), uint16(0), int8(0), []byte(nil))
	f.Add(uint32(4200000001), uint16(17), int8(-2), []byte{0x55, 0xaa})
	f.Add(uint32(l.PeerAS), uint16(l.Metro), int8(20), all)
	f.Fuzz(func(t *testing.T, as uint32, metro uint16, k int8, mask []byte) {
		q := geoQuery(bgp.ASN(as), geo.MetroID(metro), int(k), mask)
		if got, want := g.Predict(q), sortGeoNearest(g, q); !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	})
}

// BenchmarkGeoNearest is one fallback-rung answer: a flow at its own
// AS's first link's metro, that link excluded, k=3.
func BenchmarkGeoNearest(b *testing.B) {
	for _, tc := range []struct {
		name string
		sim  func() (*netsim.Sim, *geo.DB)
	}{{"small", smallGeoSim}, {"medium", mediumGeoSim}} {
		b.Run(tc.name, func(b *testing.B) {
			sim, metros := tc.sim()
			g := NewGeoNearest(sim, metros)
			l, _ := sim.Link(1)
			q := Query{
				Flow:    features.FlowFeatures{AS: l.PeerAS, Loc: l.Metro},
				K:       3,
				Exclude: func(id wan.LinkID) bool { return id == l.ID },
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Predict(q)
			}
		})
	}
}
