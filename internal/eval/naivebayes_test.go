package eval

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"tipsy/internal/bgp"
	"tipsy/internal/core"
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

// checkNormalized requires predictions sorted by descending fraction
// whose fractions sum to more than 0 and at most 1: they are
// normalized over the full surviving list and then truncated at k.
func checkNormalized(t *testing.T, preds []core.Prediction) {
	t.Helper()
	var sum float64
	for i, p := range preds {
		sum += p.Frac
		if i > 0 && p.Frac > preds[i-1].Frac+1e-12 {
			t.Fatalf("predictions not sorted by fraction at %d", i)
		}
	}
	if len(preds) > 0 && (sum <= 0 || sum > 1+1e-9) {
		t.Fatalf("fractions sum to %f", sum)
	}
}

// randomRecords builds a random but well-formed training set.
func randomRecords(rng *rand.Rand, n int) []features.Record {
	recs := make([]features.Record, n)
	for i := range recs {
		recs[i] = features.Record{
			Hour: wan.Hour(rng.Intn(100)),
			Flow: flow(uint32(1+rng.Intn(8)), uint32(rng.Intn(16))<<8,
				uint16(1+rng.Intn(5)), uint16(1+rng.Intn(4)), uint8(1+rng.Intn(3))),
			Link:  wan.LinkID(1 + rng.Intn(12)),
			Bytes: float64(1 + rng.Intn(1_000_000)),
		}
	}
	return recs
}

func TestNaiveBayesTransferLearning(t *testing.T) {
	// NB can predict for a tuple it never saw, from feature values it
	// did see; the Historical model cannot.
	f1 := flow(1, 0, 10, 1, 1)
	f2 := flow(2, 0, 20, 2, 2)
	unseen := flow(1, 0, 10, 2, 2) // AS/loc from f1, dest from f2
	recs := []features.Record{rec(f1, 1, 1000), rec(f2, 2, 1000)}
	nb := TrainNaiveBayes(features.SetAL, recs, DefaultNBOpts())
	if nb.Name() != "NB_AL" {
		t.Errorf("Name = %q", nb.Name())
	}
	hist := core.TrainHistorical(features.SetAL, recs, core.DefaultHistOpts())
	if hist.Predict(core.Query{Flow: unseen, K: 1}) != nil {
		t.Fatal("historical model should not predict the unseen tuple")
	}
	preds := nb.Predict(core.Query{Flow: unseen, K: 2})
	if len(preds) == 0 {
		t.Fatal("NB should predict the unseen tuple")
	}
	checkNormalized(t, preds)
}

func TestNaiveBayesPrefersMatchingLink(t *testing.T) {
	f1 := flow(1, 0, 10, 1, 1)
	f2 := flow(2, 0, 20, 2, 2)
	recs := []features.Record{rec(f1, 1, 1000), rec(f2, 2, 1000)}
	nb := TrainNaiveBayes(features.SetAL, recs, DefaultNBOpts())
	if preds := nb.Predict(core.Query{Flow: f1, K: 1}); preds[0].Link != 1 {
		t.Errorf("f1 should map to link 1: %+v", preds)
	}
	if preds := nb.Predict(core.Query{Flow: f2, K: 1}); preds[0].Link != 2 {
		t.Errorf("f2 should map to link 2: %+v", preds)
	}
}

func TestNaiveBayesExclusion(t *testing.T) {
	f1 := flow(1, 0, 10, 1, 1)
	recs := []features.Record{rec(f1, 1, 900), rec(f1, 2, 100)}
	nb := TrainNaiveBayes(features.SetAL, recs, DefaultNBOpts())
	preds := nb.Predict(core.Query{Flow: f1, K: 2, Exclude: func(l wan.LinkID) bool { return l == 1 }})
	if len(preds) == 0 || preds[0].Link != 2 {
		t.Errorf("exclusion should promote link 2: %+v", preds)
	}
}

func TestNaiveBayesPriorWeighting(t *testing.T) {
	// With an uninformative flow, the class prior (byte mass) decides.
	busy := flow(1, 0, 1, 1, 1)
	recs := []features.Record{rec(busy, 1, 9000), rec(busy, 2, 1000)}
	nb := TrainNaiveBayes(features.SetA, recs, DefaultNBOpts())
	preds := nb.Predict(core.Query{Flow: busy, K: 2})
	if preds[0].Link != 1 || preds[0].Frac <= preds[1].Frac {
		t.Errorf("prior weighting broken: %+v", preds)
	}
}

func TestNaiveBayesSizeAccounting(t *testing.T) {
	f1 := flow(1, 0, 10, 1, 1)
	f2 := flow(2, 0, 20, 2, 2)
	nb := TrainNaiveBayes(features.SetAL, []features.Record{rec(f1, 1, 1), rec(f2, 2, 1)}, DefaultNBOpts())
	if nb.NumClasses() != 2 {
		t.Errorf("NumClasses = %d", nb.NumClasses())
	}
	// 4 dims × 2 values × 1 link each.
	if nb.NumParameters() != 8 {
		t.Errorf("NumParameters = %d", nb.NumParameters())
	}
}

// TestNaiveBayesInvariantsProperty: NB predictions are sorted, sum to
// at most 1, and never include excluded links.
func TestNaiveBayesInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	check := func() bool {
		recs := randomRecords(rng, 80)
		nb := TrainNaiveBayes(features.SetAL, recs, DefaultNBOpts())
		for i := 0; i < 20; i++ {
			r := recs[rng.Intn(len(recs))]
			excl := wan.LinkID(1 + rng.Intn(12))
			preds := nb.Predict(core.Query{Flow: r.Flow, K: 3,
				Exclude: func(l wan.LinkID) bool { return l == excl }})
			var sum float64
			for j, p := range preds {
				sum += p.Frac
				if p.Link == excl || p.Frac <= 0 {
					return false
				}
				if j > 0 && p.Frac > preds[j-1].Frac+1e-12 {
					return false
				}
			}
			if sum > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return check() }, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestNaiveBayesAppendPredictProperty: NB's AppendPredict, alone and
// as the fallback of Hist_A/NB_AL, leaves dst as it was and appends
// exactly Predict(q) — into a dst that is nil, full, or
// has room whose old contents are junk.
func TestNaiveBayesAppendPredictProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for round := 0; round < 40; round++ {
		recs := randomRecords(rng, 50+rng.Intn(200))
		hA := core.TrainHistorical(features.SetA, recs[:len(recs)/2], core.DefaultHistOpts())
		nb := TrainNaiveBayes(features.SetAL, recs, DefaultNBOpts())
		for i := 0; i < 50; i++ {
			q := core.Query{Flow: recs[rng.Intn(len(recs))].Flow, K: []int{-1, 0, 1, 2, 3, 4, 5, 16}[rng.Intn(8)]}
			if rng.Intn(4) == 0 {
				q.Flow = randomRecords(rng, 1)[0].Flow
			}
			if rng.Intn(3) > 0 {
				excl := wan.LinkID(1 + rng.Intn(12))
				q.Exclude = func(l wan.LinkID) bool { return l == excl }
			}
			n, room := rng.Intn(5), []int{0, 0, 3, 40}[rng.Intn(4)]
			var dst []core.Prediction
			if n+room > 0 {
				dst = make([]core.Prediction, n+room)
				for j := range dst {
					dst[j] = core.Prediction{Link: wan.LinkID(900 + j), Frac: rng.Float64()}
				}
				dst = dst[:n]
			}
			before := slices.Clone(dst)
			for _, m := range []core.AppendPredictor{nb, core.NewEnsemble(hA, nb)} {
				want := m.Predict(q)
				got := m.AppendPredict(dst, q)
				if len(got) < n || !slices.Equal(got[:n], before) || !slices.Equal(dst, before) {
					t.Fatalf("%s: AppendPredict changed the %d predictions already in dst", m.Name(), n)
				}
				if !slices.Equal(got[n:], want) {
					t.Fatalf("%s, %+v: appended %v, Predict says %v", m.Name(), q, got[n:], want)
				}
			}
		}
	}
}

// appendPredictReference is NaiveBayes.AppendPredict as it was before
// it looked each dimension up once and kept its best classes by
// insertion, kept as its oracle: every class scored with the lookups
// inside, all of them sorted, the first CandidateCap kept.
func appendPredictReference(nb *NaiveBayes, dst []core.Prediction, q core.Query) []core.Prediction {
	type scored struct {
		link  wan.LinkID
		score float64
	}
	cands := make([]scored, 0, len(nb.links))
	for _, l := range nb.links {
		if q.Exclude != nil && q.Exclude(l) {
			continue
		}
		s := nb.logPrior[l]
		denomBase := float64(nb.byLink[l])
		usable := true
		for _, d := range nb.dims {
			v := dimValue(d, q.Flow)
			vocab := float64(nb.vocab[d])
			if vocab == 0 {
				usable = false
				break
			}
			num := nb.opts.Alpha
			if m, ok := nb.cond[d][v]; ok {
				num += float64(m[l])
			}
			s += math.Log(num / (denomBase + nb.opts.Alpha*vocab))
		}
		if usable {
			cands = append(cands, scored{l, s})
		}
	}
	if len(cands) == 0 {
		return dst
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].link < cands[j].link
	})
	if len(cands) > nb.opts.CandidateCap {
		cands = cands[:nb.opts.CandidateCap]
	}
	n := len(dst)
	dst = slices.Grow(dst, len(cands))
	maxS := cands[0].score
	var sum float64
	for _, c := range cands {
		w := math.Exp(c.score - maxS)
		dst = append(dst, core.Prediction{Link: c.link, Frac: w})
		sum += w
	}
	preds := dst[n:]
	for i := range preds {
		preds[i].Frac /= sum
	}
	return dst[:n+len(core.TopK(preds, q.K))]
}

// TestNaiveBayesMatchesReference holds AppendPredict to its oracle
// with == on every link and fraction: every feature set, candidate
// caps below, at and above the class count, any k, exclusions, flows
// seen and unseen, an untrained model, and training sets where many
// classes tie (one byte on every link, so the prior and most counts
// are equal and the link breaks the tie).
func TestNaiveBayesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	tied := func(n int) []features.Record {
		recs := randomRecords(rng, n)
		for i := range recs {
			recs[i].Bytes = 1
		}
		return recs
	}
	for round := 0; round < 60; round++ {
		var recs []features.Record
		switch round % 3 {
		case 0:
			recs = randomRecords(rng, 20+rng.Intn(300))
		case 1:
			recs = tied(5 + rng.Intn(60))
		}
		set := []features.Set{features.SetA, features.SetAP, features.SetAL}[rng.Intn(3)]
		opts := NBOpts{Alpha: []float64{1, 0.5, 3}[rng.Intn(3)], CandidateCap: []int{1, 2, 5, 12, 16, 40}[rng.Intn(6)]}
		nb := TrainNaiveBayes(set, recs, opts)
		for i := 0; i < 100; i++ {
			q := core.Query{Flow: randomRecords(rng, 1)[0].Flow, K: []int{-1, 0, 1, 3, 16}[rng.Intn(5)]}
			if len(recs) > 0 && rng.Intn(2) == 0 {
				q.Flow = recs[rng.Intn(len(recs))].Flow
			}
			if rng.Intn(2) == 0 {
				excl := map[wan.LinkID]bool{wan.LinkID(1 + rng.Intn(12)): true, wan.LinkID(1 + rng.Intn(12)): true}
				q.Exclude = func(l wan.LinkID) bool { return excl[l] }
			}
			want, got := appendPredictReference(nb, nil, q), nb.AppendPredict(nil, q)
			if !slices.Equal(got, want) {
				t.Fatalf("round %d, %s, %+v, %+v: predicts %v, the reference %v", round, nb.Name(), opts, q, got, want)
			}
		}
	}
}
