package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tipsy/internal/bgp"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/wan"
)

// randomDir is a directory of links 1..12 over the peer ASes and
// metros randomRecords draws from, so flows share their AS with some
// links and links share metros (distance ties).
func randomDir(rng *rand.Rand) *wan.Table {
	links := make([]wan.Link, 12)
	for i := range links {
		links[i] = wan.Link{ID: wan.LinkID(i + 1), Metro: geo.MetroID(1 + rng.Intn(5)), PeerAS: bgp.ASN(1 + rng.Intn(8))}
	}
	return wan.NewTable(links)
}

// randomQuery asks for a flow of recs or, one time in four, one no
// model saw, with k from -1 to 5 or 16, and excludes each link with
// probability one in four.
func randomQuery(rng *rand.Rand, recs []features.Record) Query {
	q := Query{Flow: recs[rng.Intn(len(recs))].Flow, K: []int{-1, 0, 1, 2, 3, 4, 5, 16}[rng.Intn(8)]}
	if rng.Intn(4) == 0 {
		q.Flow = randomRecords(rng, 1)[0].Flow
	}
	if rng.Intn(3) > 0 {
		var excluded [13]bool
		for i := range excluded {
			excluded[i] = rng.Intn(4) == 0
		}
		q.Exclude = func(l wan.LinkID) bool { return int(l) < len(excluded) && excluded[l] }
	}
	return q
}

// samePreds compares two prediction lists with == on the links and
// on the fractions' bits.
func samePreds(a, b []Prediction) bool {
	return slices.EqualFunc(a, b, func(x, y Prediction) bool {
		return x.Link == y.Link && math.Float64bits(x.Frac) == math.Float64bits(y.Frac)
	})
}

// TestAppendPredictProperty: for every rung of the serving ladder, and
// an ensemble holding a model without AppendPredict, AppendPredict(dst,
// q) leaves dst as it was and appends exactly Predict(q) — into a dst
// that is nil, full, or has room whose old contents are junk.
func TestAppendPredictProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	metros := geo.World()
	for round := 0; round < 40; round++ {
		recs := randomRecords(rng, 50+rng.Intn(200))
		dir := randomDir(rng)
		hAP := TrainHistorical(features.SetAP, recs, DefaultHistOpts())
		hAL := TrainHistorical(features.SetAL, recs, DefaultHistOpts())
		hA := TrainHistorical(features.SetA, recs[:len(recs)/2], DefaultHistOpts())
		nb := TrainNaiveBayes(features.SetAL, recs, DefaultNBOpts())
		rungs := []AppendPredictor{
			hAP,
			NewGeoCompletion(hAL, dir, metros),
			NewEnsemble(hAP, NewGeoCompletion(hAL, dir, metros), hA),
			NewEnsemble(hA, nb),
			NewGeoNearest(dir, metros),
		}
		for i := 0; i < 50; i++ {
			q := randomQuery(rng, recs)
			n, room := rng.Intn(5), []int{0, 0, 3, 40}[rng.Intn(4)]
			var dst []Prediction
			if n+room > 0 {
				dst = make([]Prediction, n+room)
				for j := range dst {
					dst[j] = Prediction{Link: wan.LinkID(900 + j), Frac: rng.Float64()}
				}
				dst = dst[:n]
			}
			before := slices.Clone(dst)
			for _, r := range rungs {
				want := r.Predict(q)
				got := r.AppendPredict(dst, q)
				if len(got) < n || !samePreds(got[:n], before) || !samePreds(dst, before) {
					t.Fatalf("%s: AppendPredict changed the %d predictions already in dst", r.Name(), n)
				}
				if !samePreds(got[n:], want) {
					t.Fatalf("%s, %+v: appended %v, Predict says %v", r.Name(), q, got[n:], want)
				}
			}
		}
	}
}

// geoCompletionReference is GeoCompletion.Predict as it was before it
// appended to a caller's slice, kept as its oracle: the anchor comes
// from a second lookup of the tuple, with exclusions lifted and k=1,
// and the candidates are ranked in a slice of their own.
func geoCompletionReference(g *GeoCompletion, q Query) []Prediction {
	var raw []Prediction
	if stored, ok := g.inner.links(q.Flow); ok {
		raw = make([]Prediction, 0, len(stored))
		for _, p := range stored {
			if !q.excluded(p.Link) {
				raw = append(raw, p)
			}
		}
	}
	surviving := 0.0
	for _, p := range raw {
		surviving += p.Frac
	}
	missing := 1 - surviving
	if missing <= 1e-9 || (q.K > 0 && len(raw) >= q.K) {
		return topK(raw, q.K)
	}
	anchorQ := q
	anchorQ.Exclude = nil
	anchorQ.K = 1
	anchor := g.inner.Predict(anchorQ)
	if len(anchor) == 0 {
		return topK(raw, q.K)
	}
	anchorLink, ok := g.links.Link(anchor[0].Link)
	if !ok {
		return topK(raw, q.K)
	}
	type cand struct {
		id wan.LinkID
		d  float64
	}
	var cands []cand
	for _, id := range g.links.LinksOfAS(anchorLink.PeerAS) {
		if id == anchorLink.ID || q.excluded(id) ||
			slices.ContainsFunc(raw, func(p Prediction) bool { return p.Link == id }) {
			continue
		}
		l, ok := g.links.Link(id)
		if !ok {
			continue
		}
		cands = append(cands, cand{id, g.metros.Distance(anchorLink.Metro, l.Metro)})
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(a.d, b.d); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	if surviving > 0 {
		for i := range raw {
			raw[i].Frac /= surviving
		}
	}
	var w float64
	if len(raw) == 0 || surviving < 0.005 {
		w = 0.55
	} else {
		w = minF(minF(0.25*missing, 0.5*raw[len(raw)-1].Frac), 0.10)
	}
	for _, c := range cands {
		raw = append(raw, Prediction{Link: c.id, Frac: w})
		w *= 0.45
	}
	return topK(raw, q.K)
}

// TestGeoCompletionMatchesReference holds the one-lookup completion to
// its two-lookup oracle, bit for bit, on random models, directories
// and queries.
func TestGeoCompletionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	metros := geo.World()
	completed := 0
	for round := 0; round < 40; round++ {
		recs := randomRecords(rng, 50+rng.Intn(200))
		g := NewGeoCompletion(TrainHistorical(features.SetAL, recs, DefaultHistOpts()), randomDir(rng), metros)
		for i := 0; i < 100; i++ {
			q := randomQuery(rng, recs)
			want, got := geoCompletionReference(g, q), g.Predict(q)
			if !samePreds(got, want) {
				t.Fatalf("%+v: got %v, reference %v", q, got, want)
			}
			if stored, _ := g.inner.links(q.Flow); len(got) > 0 && !slices.ContainsFunc(stored, func(p Prediction) bool { return p.Link == got[len(got)-1].Link }) {
				completed++
			}
		}
	}
	if completed < 100 {
		t.Errorf("only %d answers ended in a completion link; the queries hardly test it", completed)
	}
}

// TestAppendPredictZeroAlloc pins the ladder's rungs at no allocation
// when they append into a slice with room, as serve.Models.Respond
// has them do: queries that hit the fit, miss it, and complete.
func TestAppendPredictZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	recs := randomRecords(rng, 300)
	dir := randomDir(rng)
	metros := geo.World()
	hAP := TrainHistorical(features.SetAP, recs, DefaultHistOpts())
	hAL := TrainHistorical(features.SetAL, recs, DefaultHistOpts())
	hA := TrainHistorical(features.SetA, recs, DefaultHistOpts())
	queries := make([]Query, 200)
	for i := range queries {
		queries[i] = randomQuery(rng, recs)
	}
	dst := make([]Prediction, 0, 64)
	for _, r := range []AppendPredictor{
		hAP,
		NewGeoCompletion(hAL, dir, metros),
		NewEnsemble(hAP, NewGeoCompletion(hAL, dir, metros), hA),
		NewGeoNearest(dir, metros),
	} {
		if got := testing.AllocsPerRun(20, func() {
			for _, q := range queries {
				r.AppendPredict(dst, q)
			}
		}); got != 0 {
			t.Errorf("%s allocates %v times over %d queries appending into room", r.Name(), got, len(queries))
		}
	}
}
