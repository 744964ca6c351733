package monitor

import (
	"testing"

	"tipsy/internal/core"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/netsim"
	"tipsy/internal/obsv"
	"tipsy/internal/pipeline"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

// BenchmarkAdvanceDay times one simulated day of tipsyd's quality
// monitor at seed 2: the daily retrain's 256-flow shadow sample is
// recorded at the day's first hour, and AdvanceTo joins, grades and
// evicts through the day's 24 closing hours of drained truth. The
// monitor carries over from day to day, so each day also expires the
// sample recorded the day before.
func BenchmarkAdvanceDay(b *testing.B) {
	const seed, sample = 2, 256
	metros := geo.World()
	g := topology.Generate(topology.TestGenConfig(seed), metros)
	w := traffic.Generate(traffic.TestConfig(seed+10), g, metros)
	cfg := netsim.DefaultConfig(seed + 20)
	cfg.HorizonHours = 48
	cfg.OutagesPerLinkYear = 10
	sim := netsim.New(cfg, g, metros, w)
	agg := pipeline.NewAggregatorOn(obsv.NewRegistry(), sim.GeoIP(), sim.DstMetadata)
	sim.Run(netsim.RunOptions{From: 0, To: 24, Sink: agg})
	train := agg.Records()
	sim.Run(netsim.RunOptions{From: 24, To: 48, Sink: agg})
	truth := agg.Records()

	hist := core.TrainHistorical(features.SetAP, train, core.DefaultHistOpts())
	type shadow struct {
		flow  features.FlowFeatures
		preds []core.Prediction
	}
	var shadows []shadow
	seen := make(map[features.FlowFeatures]bool, sample)
	for _, r := range train {
		if len(shadows) < sample && !seen[r.Flow] {
			seen[r.Flow] = true
			shadows = append(shadows, shadow{r.Flow, hist.Predict(core.Query{Flow: r.Flow, K: gradedK})})
		}
	}

	m := New(DefaultConfig(), obsv.NewRegistry())
	m.AdvanceTo(24, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for day := wan.Hour(1); day <= wan.Hour(b.N); day++ {
		for _, s := range shadows {
			m.RecordPrediction(day*24, s.flow, "ensemble", s.preds)
		}
		m.AdvanceTo(day*24+24, truth)
		b.StopTimer()
		for i := range truth {
			truth[i].Hour += 24
		}
		b.StartTimer()
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/day")
	b.ReportMetric(float64(len(truth)), "records/day")
}
