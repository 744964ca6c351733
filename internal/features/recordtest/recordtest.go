// Package recordtest generates the record sequences shared by the
// differential tests of the record scans that intern through
// features.Index (core.TrainHistorical, pipeline.Encode,
// eval.BuildGroups) against their map-based reference oracles.
package recordtest

import (
	"math/rand"
	"slices"

	"tipsy/internal/bgp"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/wan"
)

// Case is one named record sequence.
type Case struct {
	Name    string
	Recs    []features.Record
	Drained bool // strictly increasing under features.Record.Compare
}

// Cases returns sequences in and out of drain order, deterministic in
// seed. Flows share ASes, regions and links, so feature-set
// projections collide and tuples collect more links than a model
// keeps; byte counts are fractional, so float summation order shows.
func Cases(seed int64) []Case {
	rng := rand.New(rand.NewSource(seed))
	flows := make([]features.FlowFeatures, 60)
	for i := range flows {
		flows[i] = features.FlowFeatures{AS: bgp.ASN(64500 + rng.Intn(4)), Prefix: uint32(0x0b000000 + i<<8),
			Loc: geo.MetroID(1 + rng.Intn(5)), Region: wan.Region(1 + rng.Intn(2)), Type: wan.ServiceType(rng.Intn(2))}
	}
	// drain makes what Aggregator.Records would: per hour, most flows
	// on most of their links, sorted.
	drain := func(hours ...wan.Hour) []features.Record {
		var out []features.Record
		for _, h := range hours {
			for i, f := range flows {
				for l := 0; l < 1+i%4; l++ {
					if rng.Intn(5) > 0 {
						out = append(out, features.Record{Hour: h, Flow: f, Link: wan.LinkID(1 + (i*7+l*3)%40), Bytes: rng.Float64() * 1e6})
					}
				}
			}
		}
		slices.SortFunc(out, features.Record.Compare)
		return out
	}
	edit := func(recs []features.Record, f func(i int, r *features.Record)) []features.Record {
		out := slices.Clone(recs)
		for i := range out {
			f(i, &out[i])
		}
		return out
	}
	base := drain(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	shuffled := slices.Clone(base)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	dups := append(slices.Clone(base), edit(base[:len(base)/2], func(_ int, r *features.Record) { r.Bytes /= 3 })...)
	slices.SortStableFunc(dups, features.Record.Compare)
	return []Case{
		{"empty", nil, true},
		{"drain-order", base, true},
		{"shuffled", shuffled, false},
		{"duplicate-keys", dups, false},
		{"zero-and-negative-bytes", edit(base, func(i int, r *features.Record) {
			if i%5 < 2 { // every fifth record negative, the one after it zero
				r.Bytes *= float64(i%5 - 1)
			}
		}), true},
		{"equal-bytes", edit(base, func(_ int, r *features.Record) { r.Bytes = 1 }), true},
		{"single-hour", drain(5), true},
		{"hour-gaps", drain(-3, 0, 1, 7, 8, 40), true},
		{"earlier-hour-after", append(drain(2, 3, 4, 5), drain(1, 3, 4)...), false},
	}
}
