// Command tipsybench is TIPSY's performance-trajectory harness: it
// runs the full prediction cycle end-to-end over a seeded simulated
// WAN — build environment → ingest telemetry → encode → train →
// predict — and records wall time, allocation, and throughput per
// stage alongside the deterministic outputs (record counts, registry
// counters, accuracy). Reports are written as BENCH_<date>.json so a
// series of commits leaves a perf trajectory in the repo history.
//
// Schema ("tipsybench/v1"): the top-level Report object splits into
//   - identity fields: schema, date, seed, config, go_version, goos,
//     goarch;
//   - deterministic fields: per-stage items, env summary (flows,
//     links, record counts, encoded rows, dictionary sizes), the
//     pipeline registry counters, and byte-weighted accuracy at k=1
//     and k=3. Two runs with the same seed and config produce
//     identical deterministic fields — `go test ./cmd/tipsybench`
//     enforces this;
//   - timing fields: per-stage wall_ns, alloc_bytes, mallocs,
//     items_per_sec, and total_wall_ns. Only these (and date) may
//     differ between same-seed runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"tipsy/internal/core"
	"tipsy/internal/dataset"
	"tipsy/internal/eval"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/netsim"
	"tipsy/internal/obsv"
	"tipsy/internal/pipeline"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

// SchemaVersion identifies the report layout. Bump when fields change
// meaning; additions are backwards compatible.
const SchemaVersion = "tipsybench/v1"

// StageResult is one pipeline stage's measurements. Items is
// deterministic for a fixed seed; the rest are timing fields.
type StageResult struct {
	Name  string `json:"name"`
	Items int64  `json:"items"` // units processed (deterministic)

	WallNs      int64   `json:"wall_ns"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	Mallocs     uint64  `json:"mallocs"`
	ItemsPerSec float64 `json:"items_per_sec"`
	// Per-record allocation cost — the hot-path ratchet's dynamic
	// counterpart. Timing-class: runtime internals (GC timing, map
	// growth points) make them slightly run-dependent, so they are
	// stripped by StripTiming and only warned about by -compare.
	AllocsPerRecord float64 `json:"allocs_per_record"`
	BytesPerRecord  float64 `json:"bytes_per_record"`
}

// EnvSummary captures the deterministic shape of the simulated
// environment the cycle ran over.
type EnvSummary struct {
	Flows        int `json:"flows"`
	Links        int `json:"links"`
	TrainRecords int `json:"train_records"`
	TestRecords  int `json:"test_records"`
	EncodedRows  int `json:"encoded_rows"`
	DictAS       int `json:"dict_as"`
	DictPrefix   int `json:"dict_prefix"`
	DictLoc      int `json:"dict_loc"`
}

// Report is one tipsybench run.
type Report struct {
	Schema    string `json:"schema"`
	Date      string `json:"date"` // YYYY-MM-DD, not compared
	Seed      int64  `json:"seed"`
	Config    string `json:"config"` // quick | small | full
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`

	Stages      []StageResult      `json:"stages"`
	TotalWallNs int64              `json:"total_wall_ns"`
	Env         EnvSummary         `json:"env"`
	Metrics     map[string]int64   `json:"metrics"`  // pipeline registry scalars
	Accuracy    map[string]float64 `json:"accuracy"` // "k1", "k3"

	// Tracing overhead, ns per span lifecycle (start, one attribute,
	// end): sampled measures a recording tracer, disabled a nil one —
	// the cost instrumented hot paths pay when tracing is off. Both
	// are timing fields.
	TracingSampledNs  int64 `json:"tracing_sampled_ns"`
	TracingDisabledNs int64 `json:"tracing_disabled_ns"`
}

// StripTiming zeroes every field that may legitimately differ between
// two same-seed runs, leaving only the deterministic payload. Used by
// the determinism test and by humans diffing two BENCH files.
func (r *Report) StripTiming() {
	r.Date = ""
	r.TotalWallNs = 0
	r.TracingSampledNs = 0
	r.TracingDisabledNs = 0
	for i := range r.Stages {
		r.Stages[i].WallNs = 0
		r.Stages[i].AllocBytes = 0
		r.Stages[i].Mallocs = 0
		r.Stages[i].ItemsPerSec = 0
		r.Stages[i].AllocsPerRecord = 0
		r.Stages[i].BytesPerRecord = 0
	}
}

// stage runs fn, measuring wall time and allocation around it, and
// appends the result to the report. items is evaluated after fn so
// stages can count their own output.
func (r *Report) stage(name string, fn func() int64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	items := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	res := StageResult{
		Name:       name,
		Items:      items,
		WallNs:     wall.Nanoseconds(),
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Mallocs:    after.Mallocs - before.Mallocs,
	}
	if wall > 0 {
		res.ItemsPerSec = float64(items) / wall.Seconds()
	}
	if items > 0 {
		res.AllocsPerRecord = float64(res.Mallocs) / float64(items)
		res.BytesPerRecord = float64(res.AllocBytes) / float64(items)
	}
	r.Stages = append(r.Stages, res)
	r.TotalWallNs += res.WallNs
}

// quickConfig scales SmallEnvConfig down further for CI gating: the
// same code paths, a fraction of the horizon.
func quickConfig(seed int64) eval.EnvConfig {
	cfg := eval.SmallEnvConfig(seed)
	cfg.TrainDays, cfg.TestDays = 4, 2
	cfg.TrafficCfg.NFlows = 1000
	cfg.SimCfg.HorizonHours = wan.Hour((cfg.TrainDays + cfg.TestDays) * 24)
	return cfg
}

// run executes the benchmark cycle under cfg and returns the report.
// Everything except the timing fields is a pure function of cfg.
func run(cfg eval.EnvConfig, config string) *Report {
	rep := &Report{
		Schema:    SchemaVersion,
		Seed:      cfg.Seed,
		Config:    config,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}

	// Stage 1: generate — topology, workload, simulator.
	var (
		metros *geo.DB
		g      *topology.Graph
		w      *traffic.Workload
		sim    *netsim.Sim
	)
	rep.stage("generate", func() int64 {
		metros = geo.World()
		g = topology.Generate(cfg.TopoCfg, metros)
		w = traffic.Generate(cfg.TrafficCfg, g, metros)
		sim = netsim.New(cfg.SimCfg, g, metros, w)
		return int64(len(w.Flows))
	})
	rep.Env.Flows = len(w.Flows)
	rep.Env.Links = len(sim.Links())

	// Stage 2: ingest — simulate the horizon through the aggregation
	// pipeline; throughput is raw IPFIX records, read back from the
	// pipeline's own registry counter.
	reg := obsv.NewRegistry()
	var all []features.Record
	rep.stage("ingest", func() int64 {
		agg := pipeline.NewAggregatorOn(reg, sim.GeoIP(), sim.DstMetadata)
		sim.Run(netsim.RunOptions{From: 0, To: cfg.SimCfg.HorizonHours, Sink: agg})
		all = agg.Records()
		return int64(reg.Counter("pipeline_records_raw_total").Value())
	})
	trainTo := wan.Hour(cfg.TrainDays * 24)
	train := dataset.Window(all, 0, trainTo)
	test := dataset.Window(all, trainTo, cfg.SimCfg.HorizonHours)
	rep.Env.TrainRecords = len(train)
	rep.Env.TestRecords = len(test)

	// Stage 3: encode — the §4.2 ordinal-dictionary compression.
	var enc *pipeline.Encoded
	rep.stage("encode", func() int64 {
		enc = pipeline.Encode(train)
		return int64(len(enc.Rows))
	})
	rep.Env.EncodedRows = len(enc.Rows)
	rep.Env.DictAS = enc.AS.Len()
	rep.Env.DictPrefix = enc.Prefix.Len()
	rep.Env.DictLoc = enc.Loc.Len()

	// Stage 4: train — the serving ensemble Hist_AP → Hist_AL →
	// Hist_A over the training window.
	var model core.Predictor
	rep.stage("train", func() int64 {
		hA := core.TrainHistorical(features.SetA, train, core.DefaultHistOpts())
		hAP := core.TrainHistorical(features.SetAP, train, core.DefaultHistOpts())
		hAL := core.TrainHistorical(features.SetAL, train, core.DefaultHistOpts())
		model = core.NewEnsemble(hAP, hAL, hA)
		return int64(len(train))
	})

	// Stage 5: predict — byte-weighted top-k accuracy over the test
	// window, one prediction per test flow aggregate.
	rep.stage("predict", func() int64 {
		acc := eval.Accuracy(model, test, eval.Options{Ks: []int{1, 3}})
		rep.Accuracy = map[string]float64{
			"k1": acc[1],
			"k3": acc[3],
		}
		return int64(len(test))
	})

	rep.Metrics = reg.Snapshot().Scalars()
	rep.TracingSampledNs, rep.TracingDisabledNs = measureTracingOverhead()
	return rep
}

// measureTracingOverhead times one span lifecycle — start, one int
// attribute, end — against a recording tracer and against a nil
// (disabled) one. The disabled number is the tax every instrumented
// hot path pays when tracing is off; it should be a handful of
// nanoseconds of nil checks.
func measureTracingOverhead() (sampledNs, disabledNs int64) {
	const iters = 200_000
	tr := obsv.NewTracer(obsv.NewRecorder(1024), obsv.TracerOptions{})
	start := time.Now()
	for i := 0; i < iters; i++ {
		sp := tr.StartRoot("bench")
		sp.SetInt("i", int64(i))
		sp.End()
	}
	sampledNs = time.Since(start).Nanoseconds() / iters
	var off *obsv.Tracer
	start = time.Now()
	for i := 0; i < iters; i++ {
		sp := off.StartRoot("bench")
		sp.SetInt("i", int64(i))
		sp.End()
	}
	disabledNs = time.Since(start).Nanoseconds() / iters
	return sampledNs, disabledNs
}

func main() {
	var (
		seed      = flag.Int64("seed", 1, "environment seed")
		quick     = flag.Bool("quick", false, "scaled-down cycle for CI gating")
		full      = flag.Bool("full", false, "paper-scale environment (slow)")
		out       = flag.String("out", "", "output path (default BENCH_<date>.json)")
		compare   = flag.String("compare", "", "prior BENCH_*.json to diff against: deterministic mismatch fails, timing drift warns")
		timingTol = flag.Float64("timing-tol", 0.25, "relative wall-time drift tolerated by -compare before warning")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the cycle to this file")
		memprof   = flag.String("memprofile", "", "write an allocation profile of the cycle to this file")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tipsybench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tipsybench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tipsybench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			_ = pprof.Lookup("allocs").WriteTo(f, 0)
		}()
	}

	var cfg eval.EnvConfig
	var config string
	switch {
	case *quick:
		cfg, config = quickConfig(*seed), "quick"
	case *full:
		cfg, config = eval.DefaultEnvConfig(*seed), "full"
	default:
		cfg, config = eval.SmallEnvConfig(*seed), "small"
	}

	rep := run(cfg, config)
	rep.Date = time.Now().UTC().Format("2006-01-02")

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", rep.Date)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "tipsybench:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "tipsybench:", err)
		os.Exit(1)
	}
	for _, s := range rep.Stages {
		fmt.Fprintf(os.Stdout, "%-9s %10d items  %12.2fms  %10.0f items/s  %8.1f MB alloc  %8.2f allocs/rec\n",
			s.Name, s.Items, float64(s.WallNs)/1e6, s.ItemsPerSec, float64(s.AllocBytes)/1e6, s.AllocsPerRecord)
	}
	fmt.Fprintf(os.Stdout, "total     %39.2fms  -> %s\n", float64(rep.TotalWallNs)/1e6, path)
	fmt.Fprintf(os.Stdout, "tracing   %d ns/span sampled, %d ns/span disabled\n",
		rep.TracingSampledNs, rep.TracingDisabledNs)

	if *compare != "" {
		prior, err := loadReport(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tipsybench:", err)
			os.Exit(1)
		}
		res := Compare(prior, rep, *timingTol)
		for _, w := range res.Warnings {
			fmt.Fprintf(os.Stdout, "compare: warning: %s\n", w)
		}
		for _, m := range res.Mismatches {
			fmt.Fprintf(os.Stderr, "compare: MISMATCH: %s\n", m)
		}
		if len(res.Mismatches) > 0 {
			fmt.Fprintf(os.Stderr, "tipsybench: %d deterministic mismatch(es) vs %s\n",
				len(res.Mismatches), *compare)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stdout, "compare: deterministic fields match %s (%d timing warning(s))\n",
			*compare, len(res.Warnings))
	}
}
