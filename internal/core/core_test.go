package core

import (
	"math"
	"testing"

	"tipsy/internal/bgp"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/wan"
)

func flow(as uint32, prefix uint32, loc, region uint16, typ uint8) features.FlowFeatures {
	return features.FlowFeatures{
		AS: bgp.ASN(as), Prefix: prefix, Loc: geo.MetroID(loc),
		Region: wan.Region(region), Type: wan.ServiceType(typ),
	}
}

func rec(f features.FlowFeatures, link wan.LinkID, bytes float64) features.Record {
	return features.Record{Flow: f, Link: link, Bytes: bytes}
}

func checkNormalized(t *testing.T, preds []Prediction) {
	t.Helper()
	var sum float64
	for i, p := range preds {
		sum += p.Frac
		if i > 0 && p.Frac > preds[i-1].Frac+1e-12 {
			t.Fatalf("predictions not sorted by fraction at %d", i)
		}
	}
	// Fractions are normalized over the full surviving list and then
	// truncated at k, so the sum is at most 1 (exactly 1 when nothing
	// was truncated).
	if len(preds) > 0 && sum > 1+1e-9 {
		t.Fatalf("fractions sum to %f > 1", sum)
	}
	if len(preds) > 0 && sum <= 0 {
		t.Fatalf("fractions sum to %f", sum)
	}
}

// TestTopLink: a flow's top link is the one its tuple's training
// bytes summed highest on, across hours.
func TestTopLink(t *testing.T) {
	f1, f2 := flow(1, 100, 0, 1, 1), flow(2, 200, 0, 1, 1)
	h := TrainHistorical(features.SetAP, []features.Record{
		rec(f1, 1, 100),
		{Hour: 1, Flow: f1, Link: 2, Bytes: 300},
		{Hour: 2, Flow: f1, Link: 1, Bytes: 150}, // link 1 total 250 < 300
		rec(f2, 5, 10),
	}, DefaultHistOpts())
	for f, want := range map[features.FlowFeatures]wan.LinkID{f1: 2, f2: 5} {
		if got, ok := h.TopLink(f); !ok || got != want {
			t.Errorf("TopLink(%v) = %d, %v; want %d", f, got, ok, want)
		}
	}
	if _, ok := h.TopLink(flow(3, 300, 0, 1, 1)); ok {
		t.Error("untrained flow has a top link")
	}
}

// TestTopLinkDeterministicTie: equal byte totals rank the lower link
// ID first.
func TestTopLinkDeterministicTie(t *testing.T) {
	f := flow(1, 0, 0, 1, 1)
	h := TrainHistorical(features.SetAP, []features.Record{rec(f, 9, 100), rec(f, 3, 100)}, DefaultHistOpts())
	if got, _ := h.TopLink(f); got != 3 {
		t.Fatalf("tie broke to link %d, want the lowest ID 3", got)
	}
}

func TestHistoricalBasics(t *testing.T) {
	f := flow(64496, 0x0b000100, 3, 9, 1)
	recs := []features.Record{
		rec(f, 1, 700),
		rec(f, 2, 200),
		rec(f, 3, 100),
	}
	h := TrainHistorical(features.SetAP, recs, DefaultHistOpts())
	if h.Name() != "Hist_AP" {
		t.Errorf("Name = %q", h.Name())
	}
	preds := h.Predict(Query{Flow: f, K: 3})
	checkNormalized(t, preds)
	if len(preds) != 3 || preds[0].Link != 1 {
		t.Fatalf("wrong ranking: %+v", preds)
	}
	if math.Abs(preds[0].Frac-0.7) > 1e-9 {
		t.Errorf("top fraction %f, want 0.7", preds[0].Frac)
	}
}

func TestHistoricalByteWeighting(t *testing.T) {
	// Many small observations on link 1 vs one huge on link 2: byte
	// weighting must rank link 2 first despite fewer samples.
	f := flow(1, 0, 1, 1, 1)
	var recs []features.Record
	for i := 0; i < 50; i++ {
		recs = append(recs, rec(f, 1, 10))
	}
	recs = append(recs, rec(f, 2, 10000))
	h := TrainHistorical(features.SetA, recs, DefaultHistOpts())
	preds := h.Predict(Query{Flow: f, K: 1})
	if preds[0].Link != 2 {
		t.Errorf("byte weighting broken: top link %d", preds[0].Link)
	}
}

func TestHistoricalNoTransferLearning(t *testing.T) {
	seen := flow(1, 100, 1, 1, 1)
	unseen := flow(2, 100, 1, 1, 1) // different AS
	h := TrainHistorical(features.SetA, []features.Record{rec(seen, 1, 10)}, DefaultHistOpts())
	if preds := h.Predict(Query{Flow: unseen, K: 3}); preds != nil {
		t.Errorf("unseen tuple must have no prediction, got %+v", preds)
	}
}

func TestHistoricalProjectionMergesFlows(t *testing.T) {
	// Two flows with different prefixes but the same A-projection
	// merge under Hist_A and stay separate under Hist_AP.
	f1 := flow(1, 100, 1, 1, 1)
	f2 := flow(1, 200, 1, 1, 1)
	recs := []features.Record{rec(f1, 1, 100), rec(f2, 2, 300)}
	a := TrainHistorical(features.SetA, recs, DefaultHistOpts())
	ap := TrainHistorical(features.SetAP, recs, DefaultHistOpts())
	if a.NumTuples() != 1 || ap.NumTuples() != 2 {
		t.Fatalf("tuples: A=%d AP=%d", a.NumTuples(), ap.NumTuples())
	}
	preds := a.Predict(Query{Flow: f1, K: 2})
	if len(preds) != 2 || preds[0].Link != 2 {
		t.Errorf("merged aggregate should rank link 2 first: %+v", preds)
	}
	if preds := ap.Predict(Query{Flow: f1, K: 2}); len(preds) != 1 || preds[0].Link != 1 {
		t.Errorf("AP should keep flows separate: %+v", preds)
	}
}

func TestHistoricalExclusionRenormalizes(t *testing.T) {
	f := flow(1, 0, 1, 1, 1)
	recs := []features.Record{rec(f, 1, 600), rec(f, 2, 300), rec(f, 3, 100)}
	h := TrainHistorical(features.SetA, recs, DefaultHistOpts())
	preds := h.Predict(Query{Flow: f, K: 3, Exclude: func(l wan.LinkID) bool { return l == 1 }})
	checkNormalized(t, preds)
	if len(preds) != 2 || preds[0].Link != 2 {
		t.Fatalf("exclusion should promote link 2: %+v", preds)
	}
	if math.Abs(preds[0].Frac-0.75) > 1e-9 {
		t.Errorf("renormalized fraction %f, want 0.75", preds[0].Frac)
	}
	if all := h.Predict(Query{Flow: f, K: 3, Exclude: func(wan.LinkID) bool { return true }}); len(all) != 0 {
		t.Error("excluding everything should yield no prediction")
	}
}

func TestHistoricalMaxLinksCap(t *testing.T) {
	f := flow(1, 0, 1, 1, 1)
	var recs []features.Record
	for l := 1; l <= 30; l++ {
		recs = append(recs, rec(f, wan.LinkID(l), float64(1000-l)))
	}
	h := TrainHistorical(features.SetA, recs, HistOpts{MaxLinksPerTuple: 5})
	if h.NumEntries() != 5 {
		t.Errorf("cap not applied: %d entries", h.NumEntries())
	}
	preds := h.Predict(Query{Flow: f})
	if len(preds) != 5 || preds[0].Link != 1 {
		t.Errorf("capped model should keep the heaviest links: %+v", preds)
	}
}

func TestHistoricalTopKZeroMeansUnrestricted(t *testing.T) {
	f := flow(1, 0, 1, 1, 1)
	var recs []features.Record
	for l := 1; l <= 10; l++ {
		recs = append(recs, rec(f, wan.LinkID(l), 10))
	}
	h := TrainHistorical(features.SetA, recs, DefaultHistOpts())
	if got := len(h.Predict(Query{Flow: f})); got != 10 {
		t.Errorf("K=0 should return all stored links, got %d", got)
	}
	if got := len(h.Predict(Query{Flow: f, K: 4})); got != 4 {
		t.Errorf("K=4 should truncate, got %d", got)
	}
}

func TestEnsembleFallback(t *testing.T) {
	fAP := flow(1, 100, 1, 1, 1)
	fOnlyA := flow(2, 0, 0, 1, 1) // AP projection unseen, A seen
	ap := TrainHistorical(features.SetAP, []features.Record{rec(fAP, 1, 10)}, DefaultHistOpts())
	a := TrainHistorical(features.SetA, []features.Record{
		rec(fAP, 1, 10),
		rec(fOnlyA, 7, 10),
	}, DefaultHistOpts())
	e := NewEnsemble(ap, a)
	if e.Name() != "Hist_AP/A" {
		t.Errorf("Name = %q", e.Name())
	}
	if preds := e.Predict(Query{Flow: fAP, K: 1}); len(preds) == 0 || preds[0].Link != 1 {
		t.Errorf("specific model should answer: %+v", preds)
	}
	if preds := e.Predict(Query{Flow: fOnlyA, K: 1}); len(preds) == 0 || preds[0].Link != 7 {
		t.Errorf("fallback model should answer: %+v", preds)
	}
	novel := flow(99, 0, 0, 9, 9)
	if preds := e.Predict(Query{Flow: novel}); preds != nil {
		t.Errorf("fully novel flow should have no prediction: %+v", preds)
	}
}

// staticDir is a test wan.Directory.
type staticDir struct {
	links map[wan.LinkID]wan.Link
}

func (d *staticDir) Link(id wan.LinkID) (wan.Link, bool) {
	l, ok := d.links[id]
	return l, ok
}
func (d *staticDir) LinksOfAS(as bgp.ASN) []wan.LinkID {
	var out []wan.LinkID
	for id := wan.LinkID(1); int(id) <= len(d.links); id++ {
		if d.links[id].PeerAS == as {
			out = append(out, id)
		}
	}
	return out
}
func (d *staticDir) Links() []wan.LinkID {
	out := make([]wan.LinkID, 0, len(d.links))
	for id := wan.LinkID(1); int(id) <= len(d.links); id++ {
		out = append(out, id)
	}
	return out
}

func geoTestSetup(t *testing.T) (*GeoCompletion, features.FlowFeatures, *staticDir) {
	t.Helper()
	metros := geo.World()
	// Peer AS 5 has links in metros 1, 2, 3; another AS has link 4.
	dir := &staticDir{links: map[wan.LinkID]wan.Link{
		1: {ID: 1, Metro: 1, PeerAS: 5},
		2: {ID: 2, Metro: 2, PeerAS: 5},
		3: {ID: 3, Metro: 40, PeerAS: 5},
		4: {ID: 4, Metro: 1, PeerAS: 6},
	}}
	f := flow(5, 0, 1, 1, 1)
	inner := TrainHistorical(features.SetAL, []features.Record{rec(f, 1, 100)}, DefaultHistOpts())
	return NewGeoCompletion(inner, dir, metros), f, dir
}

func TestGeoCompletionNoDilutionWhenConfident(t *testing.T) {
	// When the surviving trained links cover the tuple's full byte
	// mass, the completion must not dilute them: AL+G behaves exactly
	// like AL on traffic the model already knows (the paper's Table 4
	// shows AL+G ≈ AL overall).
	g, f, _ := geoTestSetup(t)
	if g.Name() != "Hist_AL+G" {
		t.Errorf("Name = %q", g.Name())
	}
	preds := g.Predict(Query{Flow: f, K: 3})
	checkNormalized(t, preds)
	if len(preds) != 1 || preds[0].Link != 1 || preds[0].Frac != 1.0 {
		t.Fatalf("confident prediction should be untouched: %+v", preds)
	}
}

func TestGeoCompletionSpendsMissingMass(t *testing.T) {
	// The flow was seen on links 1 (70%) and 2 (30%); link 2 is
	// excluded. The destroyed 30% goes to the peer's other links
	// ranked by distance from the anchor (metro 1): link 4 is another
	// AS and must never appear.
	metros := geo.World()
	dir := &staticDir{links: map[wan.LinkID]wan.Link{
		1: {ID: 1, Metro: 1, PeerAS: 5},
		2: {ID: 2, Metro: 2, PeerAS: 5},
		3: {ID: 3, Metro: 40, PeerAS: 5},
		4: {ID: 4, Metro: 1, PeerAS: 6},
	}}
	f := flow(5, 0, 1, 1, 1)
	inner := TrainHistorical(features.SetAL, []features.Record{
		rec(f, 1, 700), rec(f, 2, 300),
	}, DefaultHistOpts())
	g := NewGeoCompletion(inner, dir, metros)
	preds := g.Predict(Query{Flow: f, K: 3, Exclude: func(l wan.LinkID) bool { return l == 2 }})
	checkNormalized(t, preds)
	if len(preds) != 2 {
		t.Fatalf("want survivor + completion, got %+v", preds)
	}
	if preds[0].Link != 1 {
		t.Errorf("surviving trained link must lead: %+v", preds)
	}
	if preds[1].Link != 3 {
		t.Errorf("completion should add the peer's other link: %+v", preds)
	}
	if preds[1].Frac >= preds[0].Frac {
		t.Error("completion outweighs real observation")
	}
	for _, p := range preds {
		if l, _ := dir.Link(p.Link); l.PeerAS != 5 {
			t.Errorf("completion crossed to another peer: link %d", p.Link)
		}
	}
}

func TestGeoCompletionUnderExclusion(t *testing.T) {
	// The unseen-outage case: the only observed link is excluded. The
	// anchor is found with exclusions lifted, and the nearest other
	// link of the same peer becomes the top prediction.
	g, f, _ := geoTestSetup(t)
	preds := g.Predict(Query{Flow: f, K: 3, Exclude: func(l wan.LinkID) bool { return l == 1 }})
	checkNormalized(t, preds)
	if len(preds) == 0 || preds[0].Link != 2 {
		t.Fatalf("hot-potato alternate should lead: %+v", preds)
	}
	for _, p := range preds {
		if p.Link == 1 {
			t.Error("excluded link predicted")
		}
	}
}

func TestGeoCompletionNoAnchor(t *testing.T) {
	g, _, _ := geoTestSetup(t)
	novel := flow(77, 0, 2, 1, 1)
	if preds := g.Predict(Query{Flow: novel, K: 3}); preds != nil {
		t.Errorf("no anchor should mean no prediction: %+v", preds)
	}
}
