// Command bench is the repository's benchmark: four workloads, each a
// closed loop over one of the paths TIPSY's users exercise, reporting
// six end-to-end metrics and, with --trace 1, the per-layer metrics
// and a layer table. README.md has the glossary; BENCHMARK.json, at
// the root of the repository, has the contract.
//
//	bash bench/run.sh --workload serve_whatif --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	// window is the timed window; warmup runs untimed before it.
	window, warmup time.Duration
	trace          bool
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	// opsPerClient, when set, ends warm-up and window by op count, and
	// tiny shrinks the in-process envs: the smoke test's settings.
	opsPerClient int
	tiny         bool

	root, outDir, tipsydBin string
}

func (c config) outPath(name string) string { return filepath.Join(c.outDir, name) }

// workload is one of the benchmark's four.
type workload interface {
	// setup builds everything an op needs from the seed; teardown
	// releases it. setup may follow teardown.
	setup(ctx context.Context) error
	teardown()
	numClients() int
	// limit is the latency an op must meet to count in slo_ok_share.
	limit() time.Duration
	// sutPID is the process whose CPU and peak RSS are reported.
	sutPID() int
	op(client, seq int, tr *tracer, root int) opOutcome
	// beginWindow and endWindow bracket the timed window while no op
	// is in flight; endWindow sets layer metrics and checks counts.
	beginWindow() error
	endWindow(st loopStats, res *result) error
	// layers takes the layer measurements that need no window.
	layers(res *result)
}

var workloads = map[string]func(config) workload{
	"serve_whatif": func(c config) workload { return newServe(c, false) },
	"serve_live":   func(c config) workload { return newServe(c, true) },
	"ingest_wire":  func(c config) workload { return newIngest(c) },
	"retrain_day":  func(c config) workload { return newRetrain(c) },
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "serve_whatif, serve_live, ingest_wire or retrain_day")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.warmup = 2 * time.Second
	cfg.trace = trace != 0
	cfg.setupReps = 3

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// findRoot checks that the working directory is the repository root,
// where bench/run.sh starts the benchmark.
func findRoot() (string, error) {
	if _, err := os.Stat(filepath.Join("cmd", "tipsyd", "main.go")); err != nil {
		return "", errors.New("run from the repository root: bash bench/run.sh ...")
	}
	return filepath.Abs(".")
}

// run executes one workload and prints its report to out.
func run(ctx context.Context, cfg config, out io.Writer) error {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.root == "" {
		root, err := findRoot()
		if err != nil {
			return err
		}
		cfg.root = root
		cfg.outDir = filepath.Join(root, "bench", "out")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if cfg.tipsydBin == "" {
		cfg.tipsydBin = cfg.outPath("tipsyd")
		if err := buildTipsyd(ctx, cfg.root, cfg.tipsydBin); err != nil {
			return err
		}
	}
	w := mk(cfg)

	// Set-up runs several times and setup_s is the median, so one slow
	// page-cache miss or scheduler hiccup does not decide it.
	var setups []time.Duration
	for i := 0; i < cfg.setupReps; i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			w.teardown()
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	defer w.teardown()
	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })

	untraced := func(c, seq, root int) opOutcome { return w.op(c, seq, nil, 0) }
	loop := loopSpec{clients: w.numClients(), dur: cfg.warmup, opsPerClient: cfg.opsPerClient, limit: w.limit()}
	if st := loop.run(untraced); st.firstErr != nil {
		return fmt.Errorf("warm-up: %w", st.firstErr)
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// An untraced run is one window. A traced run splits it: the
	// first half untraced, as the reference for the tracing overhead,
	// the second half traced and reported.
	res := &result{metrics: map[string]float64{}}
	for _, d := range perLayer {
		res.metrics[d.name] = 0
	}
	var reference loopStats
	loop.dur = cfg.window
	if cfg.trace {
		loop.dur = cfg.window / 2
		reference = loop.run(untraced)
		loop.tr = newTracer()
	}
	if err := w.beginWindow(); err != nil {
		return err
	}
	pid, self := w.sutPID(), os.Getpid()
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	self0, _ := procCPU(self)
	rt0 := readRuntime()
	rss := sampleRSS(pid)
	st := loop.run(func(c, seq, root int) opOutcome { return w.op(c, seq, loop.tr, root) })
	rssMean := rss.finish()
	rt1 := readRuntime()
	self1, _ := procCPU(self)
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	peak, err := procStatusMB(pid, "VmHWM")
	if err != nil {
		return err
	}
	if err := w.endWindow(st, res); err != nil {
		return err
	}
	res.attempted, res.failed = st.attempted, st.failed
	if st.firstErr != nil {
		res.problemf("first failed op: %v", st.firstErr)
	}

	m := res.metrics
	work := float64(max(st.work, 1))
	m["setup_s"] = setups[len(setups)/2].Seconds()
	m["op_ms"] = ms(quantile(st.lats, 0.5))
	m["work_per_s"] = st.rate
	m["cpu_us_per_work"] = float64(cpu1-cpu0) / 1e3 / work
	m["slo_ok_share"] = float64(st.sloOK) / float64(max(st.attempted, 1))
	m["rss_mb"] = rssMean
	fmt.Fprintf(out, "workload %s seed %d: %d clients, closed loop, window %.1f s, %d latency samples, %d work units\n",
		cfg.workload, cfg.seed, w.numClients(), st.wall.Seconds(), len(st.lats), st.work)

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		w.layers(res)
		rt := rt1.since(rt0)
		m["go_runtime.allocs_per_work"] = float64(rt.mallocs) / work
		m["go_runtime.alloc_bytes_per_work"] = float64(rt.allocBytes) / work
		m["go_runtime.gc_pause_ms"] = ms(rt.gcPause)
		m["go_runtime.gc_cycles"] = float64(rt.gcCycles)
		m["loadgen.ops"] = float64(st.attempted)
		m["sut.peak_rss_mb"] = peak
		if total := float64(cpu1 - cpu0); pid != self && total > 0 {
			m["loadgen.client_cpu_share"] = float64(self1-self0) / (float64(self1-self0) + total)
		}
		if reference.attempted > 0 && st.attempted > 0 {
			traced := float64(st.iter) / float64(st.attempted)
			plain := float64(reference.iter) / float64(reference.attempted)
			m["trace.overhead_share"] = traced/plain - 1
		}
		spans := loop.tr.snapshot()
		rows, ops, total := layerTable(spans)
		printLayerTable(out, rows, ops, total)
		spanMetrics(m, spans, rows, ops, st)
		if err := writeTrace(cfg.outPath("trace-"+cfg.workload+".json"), spans); err != nil {
			return err
		}
	}
	return res.print(out, defs)
}

// spanMetrics reads the layer metrics that are rows of the layer
// table.
func spanMetrics(m map[string]float64, spans []span, rows []layerRow, ops int, st loopStats) {
	perOp := map[string]string{
		"ipfix.stream":         "ipfix.stream_self_ms_per_op",
		"pipeline.drain":       "pipeline.drain_ms_per_op",
		"pipeline.encode":      "pipeline.encode_ms_per_op",
		"core.train":           "core.train_ms_per_op",
		"core.checkpoint_save": "core.checkpoint_save_ms_per_op",
		"core.checkpoint_load": "core.checkpoint_load_ms_per_op",
		"eval.accuracy":        "eval.accuracy_ms_per_op",
		"loadgen.verify":       "loadgen.verify_ms_per_op",
	}
	for _, r := range rows {
		if name, ok := perOp[r.name]; ok && ops > 0 {
			m[name] = ms(r.self) / float64(ops)
		}
		if r.name == "pipeline.record_batch" && st.work > 0 {
			// Summed over both streams: processor time, not wall clock.
			m["pipeline.record_batch_ns_per_record"] = float64(r.raw) / float64(st.work)
		}
	}
	// The writers' spans lie outside the ops, so outside the table.
	var blocked time.Duration
	for _, s := range spans {
		if s.name == "loadgen.write_blocked" {
			blocked += s.end - s.start
		}
	}
	if ops > 0 {
		m["loadgen.write_blocked_ms_per_op"] = ms(blocked) / float64(ops*ingestStreams)
	}
}

func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
