package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tipsy/internal/bgp"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/wan"
)

// randomRecords builds a random but well-formed training set.
func randomRecords(rng *rand.Rand, n int) []features.Record {
	recs := make([]features.Record, n)
	for i := range recs {
		recs[i] = features.Record{
			Hour: wan.Hour(rng.Intn(100)),
			Flow: features.FlowFeatures{
				AS:     bgp.ASN(1 + rng.Intn(8)),
				Prefix: uint32(rng.Intn(16)) << 8,
				Loc:    geo.MetroID(1 + rng.Intn(5)),
				Region: wan.Region(1 + rng.Intn(4)),
				Type:   wan.ServiceType(1 + rng.Intn(3)),
			},
			Link:  wan.LinkID(1 + rng.Intn(12)),
			Bytes: float64(1 + rng.Intn(1_000_000)),
		}
	}
	return recs
}

// TestHistoricalInvariantsProperty checks, over random training sets
// and queries, the Historical model's structural guarantees: sorted
// descending fractions, total mass at most 1 (exactly 1 when nothing
// is truncated or excluded), no excluded links, and per-tuple
// fractions equal to the trained byte ratios.
func TestHistoricalInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	check := func() bool {
		recs := randomRecords(rng, 50+rng.Intn(200))
		set := features.Set(rng.Intn(3))
		h := TrainHistorical(set, recs, DefaultHistOpts())

		// Reference byte counts per tuple.
		ref := map[features.Tuple]map[wan.LinkID]float64{}
		tot := map[features.Tuple]float64{}
		for _, r := range recs {
			tu := set.Project(r.Flow)
			if ref[tu] == nil {
				ref[tu] = map[wan.LinkID]float64{}
			}
			ref[tu][r.Link] += r.Bytes
			tot[tu] += r.Bytes
		}

		for i := 0; i < 20; i++ {
			r := recs[rng.Intn(len(recs))]
			k := rng.Intn(5)
			excl := wan.LinkID(1 + rng.Intn(12))
			var exclude func(wan.LinkID) bool
			if rng.Intn(2) == 0 {
				exclude = func(l wan.LinkID) bool { return l == excl }
			}
			preds := h.Predict(Query{Flow: r.Flow, K: k, Exclude: exclude})
			var sum float64
			for j, p := range preds {
				sum += p.Frac
				if j > 0 && p.Frac > preds[j-1].Frac+1e-12 {
					return false // not sorted
				}
				if exclude != nil && p.Link == excl {
					return false // excluded link predicted
				}
				if p.Frac <= 0 {
					return false
				}
			}
			if sum > 1+1e-9 {
				return false
			}
			// Without exclusion or truncation, fractions must match
			// the byte ratios exactly.
			tu := set.Project(r.Flow)
			if exclude == nil && k == 0 && len(ref[tu]) <= DefaultHistOpts().MaxLinksPerTuple {
				for _, p := range preds {
					want := ref[tu][p.Link] / tot[tu]
					if math.Abs(p.Frac-want) > 1e-9 {
						return false
					}
				}
				if math.Abs(sum-1) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return check() }, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEnsembleFirstNonEmptyProperty: the ensemble's answer is always
// exactly the first component's non-empty answer.
func TestEnsembleFirstNonEmptyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func() bool {
		recsA := randomRecords(rng, 60)
		recsB := randomRecords(rng, 60)
		m1 := TrainHistorical(features.SetAP, recsA, DefaultHistOpts())
		m2 := TrainHistorical(features.SetA, recsB, DefaultHistOpts())
		e := NewEnsemble(m1, m2)
		for i := 0; i < 30; i++ {
			q := Query{Flow: randomRecords(rng, 1)[0].Flow, K: 3}
			got := e.Predict(q)
			want := m1.Predict(q)
			if len(want) == 0 {
				want = m2.Predict(q)
			}
			if len(got) != len(want) {
				return false
			}
			for j := range got {
				if got[j] != want[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return check() }, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestEnsemblePermutationInvarianceProperty: training is an order-free
// aggregation, so permuting the training records must not change any
// ensemble prediction. This holds exactly (not just approximately)
// because per-tuple byte totals are sums of integer-valued float64s,
// accumulated per tuple — no ordering-dependent rounding survives.
func TestEnsemblePermutationInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	trainEnsemble := func(recs []features.Record) *Ensemble {
		return NewEnsemble(
			TrainHistorical(features.SetAP, recs, DefaultHistOpts()),
			TrainHistorical(features.SetAL, recs, DefaultHistOpts()),
			TrainHistorical(features.SetA, recs, DefaultHistOpts()),
		)
	}
	check := func() bool {
		recs := randomRecords(rng, 50+rng.Intn(150))
		shuffled := append([]features.Record(nil), recs...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		a, b := trainEnsemble(recs), trainEnsemble(shuffled)
		for i := 0; i < 30; i++ {
			q := Query{Flow: recs[rng.Intn(len(recs))].Flow, K: 1 + rng.Intn(4)}
			pa, pb := a.Predict(q), b.Predict(q)
			if len(pa) != len(pb) {
				return false
			}
			for j := range pa {
				if pa[j] != pb[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return check() }, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestHistoricalTopKProperty: for every k, the top-k prediction list
// is sorted by descending fraction, has at most k entries, total mass
// at most 1, and its link set is a prefix-consistent subset: top-k
// links are always a subset of top-(k+1) links.
func TestHistoricalTopKProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	check := func() bool {
		recs := randomRecords(rng, 60+rng.Intn(120))
		set := features.Set(rng.Intn(3))
		h := TrainHistorical(set, recs, DefaultHistOpts())
		for i := 0; i < 20; i++ {
			flow := recs[rng.Intn(len(recs))].Flow
			var prev []Prediction
			for k := 1; k <= 6; k++ {
				preds := h.Predict(Query{Flow: flow, K: k})
				if len(preds) > k {
					return false
				}
				var sum float64
				for j, p := range preds {
					sum += p.Frac
					if p.Frac <= 0 {
						return false
					}
					if j > 0 && p.Frac > preds[j-1].Frac+1e-12 {
						return false // not sorted descending
					}
				}
				if sum > 1+1e-9 {
					return false
				}
				// Prefix consistency: the k-1 list is literally the
				// head of the k list.
				for j := range prev {
					if preds[j].Link != prev[j].Link {
						return false
					}
				}
				prev = preds
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return check() }, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
