// Package tipsy's top-level benchmarks regenerate every table and
// figure of the paper on the small environment (one bench per
// experiment, reporting its headline numbers as custom metrics),
// measure the model cost claims of Table 3 and Table 11, benchmark
// the protocol substrates, and run the ablation studies DESIGN.md
// calls out. Run with:
//
//	go test -bench=. -benchmem
package tipsy

import (
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
	"tipsy/internal/pipeline"
	"tipsy/internal/risk"
	"tipsy/internal/wan"
)

var (
	envOnce  sync.Once
	benchEnv *eval.Env

	env2Once  sync.Once
	benchEnv2 *eval.Env
)

func env(b *testing.B) *eval.Env {
	envOnce.Do(func() { benchEnv = eval.Build(eval.SmallEnvConfig(1)) })
	if benchEnv == nil {
		b.Fatal("environment build failed")
	}
	return benchEnv
}

// env2 is the Appendix D second-period environment (fresh seed),
// shared across calibration reruns like env so the expensive Build
// happens once per process, not once per b.N adjustment.
func env2(b *testing.B) *eval.Env {
	env2Once.Do(func() { benchEnv2 = eval.Build(eval.SmallEnvConfig(1001)) })
	if benchEnv2 == nil {
		b.Fatal("environment build failed")
	}
	return benchEnv2
}

// reportRows publishes a table's best non-oracle top-1/3 accuracy.
func reportRows(b *testing.B, rows []eval.AccuracyRow) {
	best1, best3 := 0.0, 0.0
	for _, r := range rows {
		if r.Oracle {
			continue
		}
		if r.Top1 > best1 {
			best1 = r.Top1
		}
		if r.Top3 > best3 {
			best3 = r.Top3
		}
	}
	b.ReportMetric(best1, "top1_%")
	b.ReportMetric(best3, "top3_%")
}

// ---------------------------------------------------------------------------
// Tables and figures (§5, appendices)
// ---------------------------------------------------------------------------

func BenchmarkTable4Overall(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var rows []eval.AccuracyRow
	for i := 0; i < b.N; i++ {
		rows = eval.Table4(e)
	}
	reportRows(b, rows)
}

func BenchmarkTable5AllOutages(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var rows []eval.AccuracyRow
	for i := 0; i < b.N; i++ {
		rows = eval.TableOutages(e, eval.AllOutages)
	}
	reportRows(b, rows)
}

func BenchmarkTable6SeenOutages(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var rows []eval.AccuracyRow
	for i := 0; i < b.N; i++ {
		rows = eval.TableOutages(e, eval.SeenOutages)
	}
	reportRows(b, rows)
}

func BenchmarkTable7UnseenOutages(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var rows []eval.AccuracyRow
	for i := 0; i < b.N; i++ {
		rows = eval.TableOutages(e, eval.UnseenOutages)
	}
	reportRows(b, rows)
}

func BenchmarkTable9NaiveBayesOverall(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var rows []eval.AccuracyRow
	for i := 0; i < b.N; i++ {
		rows = eval.Table9(e)
	}
	reportRows(b, rows)
}

func BenchmarkTable10NaiveBayesOutages(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var rows []eval.AccuracyRow
	for i := 0; i < b.N; i++ {
		rows = eval.Table10(e)
	}
	reportRows(b, rows)
}

func BenchmarkTable12AtRisk(b *testing.B) {
	e := env(b)
	model := e.Hist(features.SetAL)
	b.ResetTimer()
	var rows []risk.Row
	for i := 0; i < b.N; i++ {
		rows = risk.AtRisk(e.Sim, model, e.Test, risk.DefaultOptions())
	}
	b.ReportMetric(float64(len(rows)), "at_risk_pairs")
}

func BenchmarkTable13SecondPeriod(b *testing.B) {
	// Appendix D: a different time period (fresh seed).
	e2 := env2(b)
	b.ResetTimer()
	var rows []eval.AccuracyRow
	for i := 0; i < b.N; i++ {
		rows = eval.Table4(e2)
	}
	reportRows(b, rows)
}

func BenchmarkFig2ByteDistanceCDF(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var pts []eval.Fig2Point
	for i := 0; i < b.N; i++ {
		pts = eval.Fig2(e, e.Train)
	}
	b.ReportMetric(pts[0].CumFrac*100, "direct_peer_%")
}

func BenchmarkFig3LinkSpread(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var rows []eval.Fig3Row
	for i := 0; i < b.N; i++ {
		rows = eval.Fig3(e, e.Train)
	}
	b.ReportMetric(float64(rows[0].P90), "hop1_p90_links")
}

func BenchmarkFig5OracleVsK(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var pts []eval.Fig5Point
	for i := 0; i < b.N; i++ {
		pts = eval.Fig5(e, []int{1, 3, 0})
	}
	b.ReportMetric(pts[1].Acc["Oracle_AP"], "oracleAP_top3_%")
}

func BenchmarkFig6FirstOutage(b *testing.B) {
	var pts []eval.Fig6Point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts = eval.Fig6(1000, 1.6, 42, 30)
	}
	b.ReportMetric(pts[len(pts)-1].CumFrac*100, "links_with_outage_%")
}

func BenchmarkFig7LastOutage(b *testing.B) {
	var pts []eval.Fig7Point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts = eval.Fig7(1000, 1.6, 42, 30)
	}
	b.ReportMetric(pts[1].CumFrac*100, "recent_outage_%")
}

func BenchmarkFig9TrainingWindow(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var pts []eval.Fig9Point
	for i := 0; i < b.N; i++ {
		pts = eval.Fig9(e, []int{2, 4}, 1, 2)
	}
	b.ReportMetric(pts[len(pts)-1].MeanTop3, "longest_window_top3_%")
}

func BenchmarkFig10Staleness(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var pts []eval.Fig10Point
	for i := 0; i < b.N; i++ {
		pts = eval.Fig10(e, 2)
	}
	b.ReportMetric(pts[0].Top3, "day1_top3_%")
}

func BenchmarkFig11SlidingWindows(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var stats []eval.Fig11Stats
	for i := 0; i < b.N; i++ {
		stats = eval.Fig11(e, 2)
	}
	b.ReportMetric(stats[0].Median, "overall_median_top3_%")
}

// ---------------------------------------------------------------------------
// Model costs (Table 3, Table 11)
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

// BenchmarkTruth times the public Truth, where each call is a
// memo-free walk: only Run keeps a per-flow memo of the day's
// resolutions.
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

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §4)
// ---------------------------------------------------------------------------

// BenchmarkAblationWeighting compares byte-weighted training (§3.3)
// against unweighted sample counting.
func BenchmarkAblationWeighting(b *testing.B) {
	e := env(b)
	unweighted := make([]features.Record, len(e.Train))
	copy(unweighted, e.Train)
	for i := range unweighted {
		unweighted[i].Bytes = 1
	}
	var weighted, flat map[int]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mW := core.TrainHistorical(features.SetAP, e.Train, core.DefaultHistOpts())
		mU := core.TrainHistorical(features.SetAP, unweighted, core.DefaultHistOpts())
		weighted = eval.Accuracy(mW, e.Test, eval.Options{Ks: []int{3}})
		flat = eval.Accuracy(mU, e.Test, eval.Options{Ks: []int{3}})
	}
	b.ReportMetric(weighted[3]*100, "weighted_top3_%")
	b.ReportMetric(flat[3]*100, "unweighted_top3_%")
}

// BenchmarkAblationPrefixLen explores the §3.2 resolution/feature-
// space trade-off by coarsening the source prefix feature.
func BenchmarkAblationPrefixLen(b *testing.B) {
	e := env(b)
	coarsen := func(recs []features.Record, bits uint8) []features.Record {
		out := make([]features.Record, len(recs))
		copy(out, recs)
		mask := bgp.Mask(bits)
		for i := range out {
			out[i].Flow.Prefix &= mask
		}
		return out
	}
	results := map[uint8]float64{}
	var tuples []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuples = tuples[:0]
		for _, bits := range []uint8{16, 20, 24} {
			train := coarsen(e.Train, bits)
			test := coarsen(e.Test, bits)
			m := core.TrainHistorical(features.SetAP, train, core.DefaultHistOpts())
			results[bits] = eval.Accuracy(m, test, eval.Options{Ks: []int{3}})[3] * 100
			tuples = append(tuples, m.NumTuples())
		}
	}
	b.ReportMetric(results[16], "slash16_top3_%")
	b.ReportMetric(results[24], "slash24_top3_%")
	b.ReportMetric(float64(tuples[2]-tuples[0]), "extra_tuples_at_24")
}

// BenchmarkAblationMaxLinks varies how many ranked links the model
// keeps per tuple (§5.1.2: training beyond the useful rank is waste).
func BenchmarkAblationMaxLinks(b *testing.B) {
	e := env(b)
	acc := map[int]float64{}
	size := map[int]int{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, max := range []int{1, 3, 16} {
			m := core.TrainHistorical(features.SetAP, e.Train, core.HistOpts{MaxLinksPerTuple: max})
			acc[max] = eval.Accuracy(m, e.Test, eval.Options{Ks: []int{3}})[3] * 100
			size[max] = m.NumEntries()
		}
	}
	b.ReportMetric(acc[1], "keep1_top3_%")
	b.ReportMetric(acc[16], "keep16_top3_%")
	b.ReportMetric(float64(size[16])/float64(size[1]), "size_ratio")
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

// BenchmarkAblationEnsembleOrder compares the two sequential ensemble
// orders of Table 2 on outage-affected traffic, where ordering
// matters most (Tables 5-7).
func BenchmarkAblationEnsembleOrder(b *testing.B) {
	e := env(b)
	hA := e.Hist(features.SetA)
	hAP := e.Hist(features.SetAP)
	hAL := e.Hist(features.SetAL)
	apFirst := core.NewEnsemble(hAP, hAL, hA)
	alFirst := core.NewEnsemble(hAL, hAP, hA)
	var a1, a2 map[int]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a1 = eval.Accuracy(apFirst, e.Test, eval.Options{Ks: []int{3}})
		a2 = eval.Accuracy(alFirst, e.Test, eval.Options{Ks: []int{3}})
	}
	b.ReportMetric(a1[3]*100, "AP_first_top3_%")
	b.ReportMetric(a2[3]*100, "AL_first_top3_%")
}
