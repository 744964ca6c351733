// Package tipsy's top-level benchmarks measure what no gated run of
// cmd/experiments can: the model costs of Table 3 and Table 11, the
// training cost of the rejected MLP baseline (§3.3), the daily
// retrain's scans that bench/'s retrain_day workload times, and three
// substrates (a simulated day of netsim.Run, the ground-truth walk and
// the IPFIX record codec). Every
// table, figure and ablation is an experiment of cmd/experiments,
// whose full run scripts/check.sh diffs against results/full_seed1.txt.
// Run with:
//
//	go test -run '^$' -bench . -benchmem .
package tipsy

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"tipsy/internal/bgp"
	"tipsy/internal/core"
	"tipsy/internal/eval"
	"tipsy/internal/features"
	"tipsy/internal/ipfix"
	"tipsy/internal/netsim"
	"tipsy/internal/pipeline"
	"tipsy/internal/wan"
)

var (
	envOnce  sync.Once
	benchEnv *eval.Env
)

func env(b *testing.B) *eval.Env {
	envOnce.Do(func() { benchEnv = eval.Build(eval.SmallEnvConfig(1)) })
	if benchEnv == nil {
		b.Fatal("environment build failed")
	}
	return benchEnv
}

// ---------------------------------------------------------------------------
// Model costs (Table 3, Table 11, §3.3)
// ---------------------------------------------------------------------------

func benchTrainHistorical(b *testing.B, set features.Set) {
	e := env(b)
	b.ResetTimer()
	var h *core.Historical
	for i := 0; i < b.N; i++ {
		h = core.TrainHistorical(set, e.Train, core.DefaultHistOpts())
	}
	b.ReportMetric(float64(h.NumTuples()), "tuples")
	b.ReportMetric(float64(len(e.Train))/float64(b.Elapsed().Seconds()/float64(b.N))/1e6, "Mrec/s")
}

func BenchmarkTable3TrainHistA(b *testing.B)  { benchTrainHistorical(b, features.SetA) }
func BenchmarkTable3TrainHistAP(b *testing.B) { benchTrainHistorical(b, features.SetAP) }
func BenchmarkTable3TrainHistAL(b *testing.B) { benchTrainHistorical(b, features.SetAL) }

func BenchmarkTable3PredictHistorical(b *testing.B) {
	// Table 3: one prediction is O(1) — a table lookup.
	e := env(b)
	h := e.Hist(features.SetAP)
	flows := make([]features.FlowFeatures, 0, 1024)
	for _, r := range e.Test {
		flows = append(flows, r.Flow)
		if len(flows) == cap(flows) {
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Predict(core.Query{Flow: flows[i%len(flows)], K: 3})
	}
}

func BenchmarkTable11TrainNB(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var nb *eval.NaiveBayes
	for i := 0; i < b.N; i++ {
		nb = eval.TrainNaiveBayes(features.SetAL, e.Train, eval.DefaultNBOpts())
	}
	b.ReportMetric(float64(nb.NumParameters()), "parameters")
	b.ReportMetric(float64(nb.NumClasses()), "classes")
}

func BenchmarkTable11PredictNB(b *testing.B) {
	// Table 11: one NB prediction scores every class, a lookup per
	// class and feature, orders of magnitude costlier than the
	// historical lookup.
	e := env(b)
	nb := eval.TrainNaiveBayes(features.SetAL, e.Train, eval.DefaultNBOpts())
	flows := make([]features.FlowFeatures, 0, 256)
	for _, r := range e.Test {
		flows = append(flows, r.Flow)
		if len(flows) == cap(flows) {
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nb.Predict(core.Query{Flow: flows[i%len(flows)], K: 3})
	}
}

// BenchmarkBaselineMLP reproduces the paper's model-selection claim
// (§3.3): a DNN over hashed categorical features is far more
// expensive to train than the one-pass Historical model and does not
// beat it. The custom metrics let the two be compared directly.
func BenchmarkBaselineMLP(b *testing.B) {
	e := env(b)
	opts := eval.DefaultMLPOpts()
	opts.Epochs = 2
	var mlpAcc, histAcc map[int]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mlp := eval.TrainMLP(features.SetAL, e.Train, opts)
		hist := core.TrainHistorical(features.SetAL, e.Train, core.DefaultHistOpts())
		mlpAcc = eval.Accuracy(mlp, e.Test, eval.Options{Ks: []int{3}})
		histAcc = eval.Accuracy(hist, e.Test, eval.Options{Ks: []int{3}})
	}
	b.ReportMetric(mlpAcc[3]*100, "mlp_top3_%")
	b.ReportMetric(histAcc[3]*100, "hist_top3_%")
}

// ---------------------------------------------------------------------------
// Daily retrain scans (the retrain_day layers of bench/)
// ---------------------------------------------------------------------------

var (
	retrainOnce sync.Once
	retrainE    *eval.Env
)

// retrainEnv is eval's default env cut to the window bench/'s
// retrain_day workload uses (same seeds: 10,000 flows, 8 training
// days, 2 testing days), so these benchmarks reproduce its core.train,
// pipeline.encode and eval.accuracy layers.
func retrainEnv(b *testing.B) *eval.Env {
	retrainOnce.Do(func() {
		cfg := eval.DefaultEnvConfig(1)
		cfg.TrainDays, cfg.TestDays = 8, 2
		cfg.TrafficCfg.NFlows = 10000
		cfg.SimCfg.HorizonHours = wan.Hour((cfg.TrainDays + cfg.TestDays) * 24)
		cfg.SimCfg.OutagesPerLinkYear = 10
		retrainE = eval.Build(cfg)
	})
	return retrainE
}

// BenchmarkTrainHistorical fits the three serving models, once on the
// records as the aggregator drains them and once on the same records
// shuffled. Every record costs one features.Index lookup either way, so
// the shuffled fit no longer pays what the map-of-maps fit did; what is
// left between the two is cache locality.
func BenchmarkTrainHistorical(b *testing.B) {
	train := retrainEnv(b).Train
	shuffled := slices.Clone(train)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, c := range []struct {
		name string
		recs []features.Record
	}{{"drain-order", train}, {"shuffled", shuffled}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			tuples := 0
			for i := 0; i < b.N; i++ {
				tuples = 0
				for _, set := range []features.Set{features.SetA, features.SetAP, features.SetAL} {
					tuples += core.TrainHistorical(set, c.recs, core.DefaultHistOpts()).NumTuples()
				}
			}
			b.ReportMetric(float64(tuples), "tuples")
		})
	}
}

// BenchmarkHistoricalPredict answers one query per test record (k=3,
// no exclusions) from each served Historical fit: the flat columns'
// features.Index lookup, then the copy of the tuple's links. ns/op is
// ns per query.
func BenchmarkHistoricalPredict(b *testing.B) {
	e := retrainEnv(b)
	for _, set := range []features.Set{features.SetA, features.SetAP, features.SetAL} {
		h := e.Hist(set)
		b.Run(set.String(), func(b *testing.B) {
			b.ReportAllocs()
			hits := 0
			for i := 0; i < b.N; i++ {
				if len(h.Predict(core.Query{Flow: e.Test[i%len(e.Test)].Flow, K: 3})) > 0 {
					hits++
				}
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hit-share")
		})
	}
}

// BenchmarkEncode encodes the training window; B/row is what Encode
// allocates per encoded row, against a features.Record's 32 bytes.
func BenchmarkEncode(b *testing.B) {
	train := retrainEnv(b).Train
	b.ReportAllocs()
	b.ResetTimer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rows := 0
	for i := 0; i < b.N; i++ {
		rows = len(pipeline.Encode(train).Rows)
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(rows), "rows")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*max(rows, 1)), "B/row")
}

func BenchmarkBuildGroups(b *testing.B) {
	test := retrainEnv(b).Test
	b.ReportAllocs()
	b.ResetTimer()
	groups := 0
	for i := 0; i < b.N; i++ {
		groups = len(eval.BuildGroups(test, eval.Options{}))
	}
	b.ReportMetric(float64(groups), "groups")
}

// ---------------------------------------------------------------------------
// Substrate throughput
// ---------------------------------------------------------------------------

// BenchmarkSimRun simulates the retrainEnv world one day per op, nil
// sink, at GOMAXPROCS 1 and 2. Each runs a fresh Sim whose first day
// is simulated before the timer starts, so every timed day finds the
// flows' memo entries as tipsyd's daily cycle does. If Run's second
// worker stops paying, the ratio of the two ms/day shows it.
func BenchmarkSimRun(b *testing.B) {
	e := retrainEnv(b)
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			cfg := e.Cfg.SimCfg
			cfg.HorizonHours = wan.Hour((b.N + 1) * 24)
			sim := netsim.New(cfg, e.Graph, e.Metros, e.Workload)
			sim.Run(netsim.RunOptions{From: 0, To: 24})
			b.ResetTimer()
			for day := 1; day <= b.N; day++ {
				sim.Run(netsim.RunOptions{From: wan.Hour(day * 24), To: wan.Hour(day*24 + 24)})
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/day")
		})
	}
}

// BenchmarkTruth times the public Truth, where each call is a
// memo-free walk: only Run keeps a per-flow memo, whose entries hold
// for a span of policy epochs.
func BenchmarkTruth(b *testing.B) {
	e := env(b)
	flows := e.Workload.Flows
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &flows[i%len(flows)]
		_ = e.Sim.Truth(f, wan.Hour(i%48), nil).Shares
	}
}

func BenchmarkIPFIXRecordRoundTrip(b *testing.B) {
	rec := &ipfix.FlowRecord{
		SrcAddr: bgp.V4(11, 0, 3, 7), DstAddr: bgp.V4(40, 1, 2, 3),
		Octets: 123456789, Packets: 98765, Ingress: 42, SrcAS: 64496,
		StartSecs: 3600, EndSecs: 7199,
	}
	ct := ipfix.NewTemplateTable().Register(ipfix.FlowTemplate())
	var out ipfix.FlowRecord
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ct.DecodeFlow(rec.Marshal(), &out) {
			b.Fatal("flow record did not decode")
		}
	}
}
