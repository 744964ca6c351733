package core

import (
	"sort"
	"testing"

	"tipsy/internal/features"
	"tipsy/internal/features/recordtest"
	"tipsy/internal/wan"
)

// trainHistoricalReference is the map-of-maps fit TrainHistorical
// replaced, kept as its oracle; it returns each tuple's ranked links.
// It differs from that code in one place: a tuple's total is summed
// over the ranked links, not in Go map iteration order, which left the
// last bit of every fraction to chance whenever byte counts were not
// integers.
func trainHistoricalReference(set features.Set, recs []features.Record, opts HistOpts) map[features.Tuple][]Prediction {
	if opts.MaxLinksPerTuple <= 0 {
		opts.MaxLinksPerTuple = DefaultHistOpts().MaxLinksPerTuple
	}
	counts := make(map[features.Tuple]map[wan.LinkID]float64)
	for i := range recs {
		r := &recs[i]
		if r.Bytes <= 0 {
			continue
		}
		t := set.Project(r.Flow)
		m := counts[t]
		if m == nil {
			m = make(map[wan.LinkID]float64, 4)
			counts[t] = m
		}
		m[r.Link] += r.Bytes
	}
	table := make(map[features.Tuple][]Prediction, len(counts))
	for t, m := range counts {
		preds := make([]Prediction, 0, len(m))
		for l, b := range m {
			preds = append(preds, Prediction{Link: l, Frac: b})
		}
		sort.Slice(preds, func(i, j int) bool {
			if preds[i].Frac != preds[j].Frac {
				return preds[i].Frac > preds[j].Frac
			}
			return preds[i].Link < preds[j].Link
		})
		var total float64
		for _, p := range preds {
			total += p.Frac
		}
		if len(preds) > opts.MaxLinksPerTuple {
			preds = preds[:opts.MaxLinksPerTuple]
		}
		for i := range preds {
			preds[i].Frac /= total
		}
		table[t] = preds
	}
	return table
}

var allSets = []features.Set{features.SetA, features.SetAP, features.SetAL}

// tableOf is the model's tuples with their ranked links, as
// Predict finds them.
func tableOf(h *Historical) map[features.Tuple][]Prediction {
	table := make(map[features.Tuple][]Prediction, len(h.tuples))
	for _, t := range h.tuples {
		table[t], _ = h.links(features.FlowFeatures(t))
	}
	return table
}

// sameTable requires a model to hold the tuples of want with ==
// prediction lists.
func sameTable(t *testing.T, name string, got *Historical, want map[features.Tuple][]Prediction) {
	t.Helper()
	if got.NumTuples() != len(want) {
		t.Fatalf("%s: %d tuples, want %d", name, got.NumTuples(), len(want))
	}
	for tuple, w := range want {
		g, ok := got.links(features.FlowFeatures(tuple))
		if !ok || len(g) != len(w) {
			t.Fatalf("%s: %v keeps %d links (found %v), want %d", name, tuple, len(g), ok, len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: %v rank %d is %v, want %v", name, tuple, i, g[i], w[i])
			}
		}
	}
}

func TestDifferentialTrainHistorical(t *testing.T) {
	for _, c := range recordtest.Cases(2) {
		for _, set := range allSets {
			for _, keep := range []int{0, 3} {
				opts := HistOpts{MaxLinksPerTuple: keep}
				got := TrainHistorical(set, c.Recs, opts)
				want := trainHistoricalReference(set, c.Recs, opts)
				sameTable(t, c.Name+"/"+got.Name(), got, want)
				// A caller that appends to a stored list must not reach
				// the next tuple's in the shared backing array.
				for tuple, preds := range tableOf(got) {
					if cap(preds) != len(preds) {
						t.Fatalf("%s/%s: %v has capacity %d beyond its %d links", c.Name, got.Name(), tuple, cap(preds), len(preds))
					}
				}
			}
		}
	}
}

// TestTrainHistoricalRepeatsBitForBit fits the same records twenty
// times. Summing a tuple's total in map iteration order used to let
// the stored fractions of fractional-byte records differ in the last
// bit between fits.
func TestTrainHistoricalRepeatsBitForBit(t *testing.T) {
	for _, c := range recordtest.Cases(3) {
		for _, set := range allSets {
			first := TrainHistorical(set, c.Recs, DefaultHistOpts())
			for run := 1; run < 20; run++ {
				sameTable(t, c.Name+"/"+first.Name(), TrainHistorical(set, c.Recs, DefaultHistOpts()), tableOf(first))
			}
		}
	}
}
