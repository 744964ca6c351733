package topology

import (
	"reflect"
	"testing"

	"tipsy/internal/bgp"
	"tipsy/internal/geo"
)

func testGraph(t *testing.T) *Graph {
	t.Helper()
	g := Generate(TestGenConfig(1), geo.World())
	if err := g.Validate(); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
	return g
}

// TestGenerateDeterministic requires a seed to rebuild the graph
// exactly: the same ASes in the same order, each AS whole (metros,
// islands, weight), and every edge whole, interconnection metros
// included.
func TestGenerateDeterministic(t *testing.T) {
	m := geo.World()
	a := Generate(TestGenConfig(42), m)
	b := Generate(TestGenConfig(42), m)
	if !reflect.DeepEqual(a.ASNs(), b.ASNs()) {
		t.Fatal("same seed produced different AS lists")
	}
	for _, asn := range a.ASNs() {
		asA, _ := a.AS(asn)
		asB, _ := b.AS(asn)
		if !reflect.DeepEqual(asA, asB) {
			t.Fatalf("%v differs between runs:\n%+v\n%+v", asn, asA, asB)
		}
		if ea, eb := a.Edges(asn), b.Edges(asn); !reflect.DeepEqual(ea, eb) {
			t.Fatalf("%v: edges differ between runs:\n%+v\n%+v", asn, ea, eb)
		}
	}
	c := Generate(TestGenConfig(43), m)
	diff := false
	for _, asn := range a.ASNs() {
		if len(a.Edges(asn)) != len(c.Edges(asn)) {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical edge structure (suspicious)")
	}
}

func TestGeneratePopulation(t *testing.T) {
	cfg := TestGenConfig(7)
	g := Generate(cfg, geo.World())
	counts := map[Kind]int{}
	for _, asn := range g.ASNs() {
		a, _ := g.AS(asn)
		counts[a.Kind]++
	}
	want := map[Kind]int{
		KindCloud: 1, KindTier1: cfg.NTier1, KindTier2: cfg.NTier2,
		KindAccess: cfg.NAccess, KindCDN: cfg.NCDN, KindEnterprise: cfg.NEnterprise,
	}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("%v: %d ASes, want %d", k, counts[k], n)
		}
	}
}

func TestEdgeSymmetry(t *testing.T) {
	g := testGraph(t)
	for _, asn := range g.ASNs() {
		for _, e := range g.Edges(asn) {
			back, ok := g.Edge(e.Neighbor, asn)
			if !ok {
				t.Fatalf("edge %v->%v has no reverse", asn, e.Neighbor)
			}
			switch e.Rel {
			case bgp.RelProvider:
				if back.Rel != bgp.RelCustomer {
					t.Fatalf("%v sees %v as provider but reverse is %v", asn, e.Neighbor, back.Rel)
				}
			case bgp.RelPeer:
				if back.Rel != bgp.RelPeer {
					t.Fatalf("peer edge not symmetric")
				}
			}
		}
	}
}

func TestTier1Clique(t *testing.T) {
	g := testGraph(t)
	var tier1 []bgp.ASN
	for _, asn := range g.ASNs() {
		if a, _ := g.AS(asn); a.Kind == KindTier1 {
			tier1 = append(tier1, asn)
		}
	}
	for i, a := range tier1 {
		for _, b := range tier1[i+1:] {
			e, ok := g.Edge(a, b)
			if !ok || e.Rel != bgp.RelPeer {
				t.Fatalf("tier1 %v and %v not peering", a, b)
			}
		}
		e, ok := g.Edge(a, g.Cloud())
		if !ok || e.Rel != bgp.RelPeer {
			t.Fatalf("tier1 %v does not peer with the cloud", a)
		}
	}
}

func TestDistancesToCloud(t *testing.T) {
	g := testGraph(t)
	dist := g.DistancesToCloud()
	for _, asn := range g.ASNs() {
		if asn == g.Cloud() {
			continue
		}
		d, ok := dist[asn]
		if !ok {
			t.Fatalf("%v unreachable", asn)
		}
		if d < 1 || d > 6 {
			t.Errorf("%v at implausible distance %d", asn, d)
		}
		if g.HasEdge(asn, g.Cloud()) && d != 1 {
			t.Errorf("direct neighbor %v at distance %d", asn, d)
		}
	}
	// Monotonic consistency: distance(X) <= 1 + min provider distance.
	for _, asn := range g.ASNs() {
		if asn == g.Cloud() {
			continue
		}
		for _, p := range g.Providers(asn) {
			if pd, ok := dist[p]; ok && dist[asn] > pd+1 {
				t.Errorf("%v: distance %d but provider %v at %d", asn, dist[asn], p, pd)
			}
		}
	}
}

func TestNextHopsToCloud(t *testing.T) {
	g := testGraph(t)
	dist := g.DistancesToCloud()
	for _, asn := range g.ASNs() {
		if asn == g.Cloud() {
			continue
		}
		hops := g.NextHopsToCloud(asn, dist)
		if len(hops) == 0 {
			t.Fatalf("%v has no next hop toward the cloud", asn)
		}
		if dist[asn] == 1 {
			if len(hops) != 1 || hops[0] != g.Cloud() {
				t.Fatalf("direct neighbor %v should forward straight to the cloud", asn)
			}
			continue
		}
		for _, h := range hops {
			if dist[h] != dist[asn]-1 {
				t.Errorf("%v next hop %v is not strictly closer", asn, h)
			}
			if e, _ := g.Edge(asn, h); e.Rel != bgp.RelProvider {
				t.Errorf("%v forwards cloud-bound traffic to non-provider %v", asn, h)
			}
		}
	}
}

func TestCDNIslands(t *testing.T) {
	g := testGraph(t)
	foundMulti := false
	for _, asn := range g.ASNs() {
		a, _ := g.AS(asn)
		if a.Kind != KindCDN {
			continue
		}
		if len(a.Islands) > 1 {
			foundMulti = true
		}
		covered := 0
		for i, isl := range a.Islands {
			covered += len(isl)
			for _, m := range isl {
				if a.Island(m) != i {
					t.Errorf("%v: Island(%d) lookup inconsistent", asn, m)
				}
			}
		}
		if covered != len(a.Metros) {
			t.Errorf("%v: islands don't partition presence", asn)
		}
	}
	if !foundMulti {
		t.Error("no CDN with multiple islands; fragmentation not modelled")
	}
}

func TestIslandLookupMiss(t *testing.T) {
	g := testGraph(t)
	a, _ := g.AS(g.Cloud())
	if a.Island(0) != -1 {
		t.Error("Island of absent metro should be -1")
	}
}

func TestInterconnectMetrosNonEmpty(t *testing.T) {
	g := testGraph(t)
	for _, asn := range g.ASNs() {
		for _, e := range g.Edges(asn) {
			if len(e.Metros) == 0 {
				t.Fatalf("edge %v-%v has no interconnection metro", asn, e.Neighbor)
			}
		}
	}
}

func TestCloudHasWidePeering(t *testing.T) {
	g := testGraph(t)
	n := len(g.Edges(g.Cloud()))
	if n < 20 {
		t.Errorf("cloud has only %d neighbors; expected a wide peering surface", n)
	}
	for _, e := range g.Edges(g.Cloud()) {
		if e.Rel != bgp.RelPeer {
			t.Errorf("cloud relationship with %v is %v; the WAN is transit-free", e.Neighbor, e.Rel)
		}
	}
}

func TestRelationshipQueries(t *testing.T) {
	g := New(1)
	g.AddAS(&AS{ASN: 1, Kind: KindCloud, Metros: []geo.MetroID{1}})
	g.AddAS(&AS{ASN: 2, Kind: KindTier1, Metros: []geo.MetroID{1}})
	g.AddAS(&AS{ASN: 3, Kind: KindAccess, Metros: []geo.MetroID{1}})
	g.Connect(2, 1, bgp.RelPeer, []geo.MetroID{1})
	g.Connect(3, 2, bgp.RelProvider, []geo.MetroID{1})
	if got := g.Providers(3); len(got) != 1 || got[0] != 2 {
		t.Errorf("Providers(3) = %v", got)
	}
	if got := g.Customers(2); len(got) != 1 || got[0] != 3 {
		t.Errorf("Customers(2) = %v", got)
	}
	if got := g.Peers(2); len(got) != 1 || got[0] != 1 {
		t.Errorf("Peers(2) = %v", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	g := New(1)
	g.AddAS(&AS{ASN: 1, Kind: KindCloud, Metros: []geo.MetroID{1}})
	g.AddAS(&AS{ASN: 2, Kind: KindAccess, Metros: []geo.MetroID{1}})
	// Inject a raw asymmetric edge behind the API's back.
	g.edges[1] = append(g.edges[1], Edge{Neighbor: 2, Rel: bgp.RelPeer, Metros: []geo.MetroID{1}})
	if err := g.Validate(); err == nil {
		t.Error("Validate should flag asymmetric edges")
	}
}

func TestAddASPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddAS should panic")
		}
	}()
	g := New(1)
	g.AddAS(&AS{ASN: 5, Metros: []geo.MetroID{1}})
	g.AddAS(&AS{ASN: 5, Metros: []geo.MetroID{1}})
}
