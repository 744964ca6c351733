// Command tipsyd runs TIPSY as an online prediction service, the way
// §4 of the paper deploys it: a simulated WAN produces telemetry
// continuously, models retrain daily on a sliding window, and a JSON
// HTTP API answers the congestion mitigation system's what-if
// queries.
//
//	tipsyd -listen :8080 -seed 1 -train-days 8 -day-every 10s \
//	       -checkpoint /var/lib/tipsy/model.ck -stale-after 72
//
// API:
//
//	GET  /healthz            liveness, model freshness, degraded state
//	GET  /v1/model           model metadata
//	GET  /v1/links           link directory
//	POST /v1/predict         predict ingress links for flows
//	GET  /debug/quality      online quality report and alarms
//	GET  /debug/trace        flight-recorder span dump (Chrome trace_event JSON)
//	GET  /debug/bundle       write + verify a diagnostic bundle on demand
//
// Every handler participates in span tracing: an inbound traceparent
// header parents the request's spans (and is echoed on the response),
// and the flight recorder keeps the most recent spans for
// /debug/trace and diagnostic bundles. When a quality alarm fires the
// daemon writes a bundle automatically (see -bundle-dir).
//
// The -day-every flag compresses simulated time: every interval the
// daemon simulates one more day of traffic and retrains.
//
// Serving is degradation-tolerant: queries walk a fallback ladder
// (trained ensemble, then the coarse Hist_A model, then the
// training-free GeoNearest guesser), so the daemon answers even
// before its first retrain or for flows its models never saw. The
// model is checkpointed atomically after every retrain and on
// shutdown, and recovered on restart, so a crash never costs more
// than the current training interval. /healthz reports "degraded"
// (with HTTP 503) while no trained ensemble is serving or the model
// is stale.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tipsy/internal/bgp"
	"tipsy/internal/core"
	"tipsy/internal/dataset"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/monitor"
	"tipsy/internal/netsim"
	"tipsy/internal/obsv"
	"tipsy/internal/pipeline"
	"tipsy/internal/serve"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

// serverMetrics are tipsyd's registry-backed metrics: per ladder rung,
// a counter of the flows it answered and a latency histogram of its
// attempts; per /v1/predict request, the durations of its
// feature_encode and predict spans and their sum.
type serverMetrics struct {
	answered                     [serve.None + 1]*obsv.Counter
	rungNs                       [serve.None]*obsv.Histogram
	requests                     *obsv.Counter
	encodeNs, predictNs, totalNs *obsv.Histogram
	bundles                      *obsv.Counter
}

func newServerMetrics(reg *obsv.Registry) serverMetrics {
	m := serverMetrics{
		requests:  reg.Counter("tipsyd_predict_requests_total"),
		encodeNs:  reg.Histogram("tipsyd_predict_feature_encode_ns"),
		predictNs: reg.Histogram("tipsyd_predict_predict_ns"),
		totalNs:   reg.Histogram("tipsyd_predict_total_ns"),
		bundles:   reg.Counter("tipsyd_bundles_written_total"),
	}
	for r := serve.Ensemble; r <= serve.None; r++ {
		m.answered[r] = reg.Counter("tipsyd_fallback_" + r.String() + "_total")
	}
	for r := serve.Ensemble; r < serve.None; r++ {
		m.rungNs[r] = reg.Histogram("tipsyd_rung_" + r.String() + "_ns")
	}
	return m
}

// observe books one client-facing ladder walk: the answering rung's
// counter and every attempted rung's latency.
func (m *serverMetrics) observe(a serve.Answer) {
	m.answered[a.Rung].Inc()
	for r, tried := range a.Tried {
		if tried {
			m.rungNs[r].Observe(a.Ns[r])
		}
	}
}

type server struct {
	sim       *netsim.Sim
	metros    *geo.DB
	trainDays int
	// agg aggregates every cycle's simulated telemetry. One aggregator
	// serves all cycles, so its slot and pair indexes stay grown from
	// one day to the next; only the goroutine that runs cycles uses it.
	agg *pipeline.Aggregator

	// reg is the daemon-wide metrics registry: the pipeline counters,
	// the fallback ladder, and the prediction-path stage histograms
	// all land here, and /metrics exports it.
	reg *obsv.Registry
	met serverMetrics
	// pprofEnabled mounts net/http/pprof under /debug/pprof/.
	pprofEnabled bool

	// mon joins served predictions against later telemetry and keeps
	// the sliding quality windows behind /debug/quality.
	mon *monitor.Monitor
	// retrainEvery retrains every N simulated days; a firing drift
	// alarm forces a retrain sooner (see cycle).
	retrainEvery int

	// Per-component structured loggers, all derived from the process
	// default handler (-log-level / -log-json).
	logMain, logTrain, logHTTP, logCkpt *slog.Logger

	// checkpointPath, when set, is where retrains atomically persist
	// the trained models and where a restart recovers them from.
	checkpointPath string
	// staleAfter marks the model stale once it is this many simulated
	// hours behind the telemetry. 0 disables the staleness check.
	staleAfter wan.Hour

	// clock is the nanosecond clock behind every span timestamp (and
	// so the request stage timings) and the per-rung ladder timings,
	// obsv.Now unless a test swaps in a counter so span dumps golden.
	// It must be safe for concurrent use.
	clock func() int64
	// tracer + flight are the span-tracing subsystem: every span lands
	// in the flight-recorder ring, which /debug/trace and diagnostic
	// bundles dump.
	tracer *obsv.Tracer
	flight *obsv.Recorder
	// rtb samples runtime/metrics (GC pauses, heap, goroutines) into
	// the registry on each /metrics scrape and bundle write.
	rtb *obsv.RuntimeBridge
	// logRing keeps the recent slog tail for diagnostic bundles; main
	// tees the process logger into it.
	logRing *obsv.LogRing
	// bundleDir is where alarm-triggered and on-demand diagnostic
	// bundles land; empty disables bundle writing.
	bundleDir string
	seed      int64
	logBundle *slog.Logger

	// bundleMu serializes bundle writes; bundleSeq makes names unique
	// even under a frozen fake clock.
	bundleMu sync.Mutex
	// guarded by bundleMu
	bundleSeq uint64

	// gen is the serving model generation. Retraining and checkpoint
	// recovery swap it whole; a request loads it once, so all of its
	// answers come from one generation.
	gen atomic.Pointer[serve.Models]

	mu sync.RWMutex
	// records is the sliding training window as daily rows
	// (dataset.DailyRows): one per (day, flow, link), days counted from
	// each cycle's start hour, so the trainDays cutoff always falls on
	// a row day's edge. It trains the same models as the hourly
	// records it sums.
	// guarded by mu
	records []features.Record
	// days counts, per day in the window and in order, the hourly
	// records its rows sum.
	// guarded by mu
	days []windowDay
	// simulated is the wan.Hour the simulation has reached. Only the
	// goroutine that runs cycles writes it (and checkpoint recovery,
	// before serving starts), so a request reads it without waiting
	// on mu while a cycle appends to and trims the window.
	simulated atomic.Int32
}

// windowDay is one simulated day of the training window: its first
// hour and the number of hourly records its rows sum.
type windowDay struct {
	from    wan.Hour
	records int
}

// defaultTraceSpans sizes the flight-recorder ring; logRingBytes
// sizes the slog tail kept for diagnostic bundles.
const (
	defaultTraceSpans = 4096
	logRingBytes      = 64 << 10
)

func main() {
	var (
		listen       = flag.String("listen", ":8080", "HTTP listen address")
		seed         = flag.Int64("seed", 1, "simulation seed")
		trainDays    = flag.Int("train-days", 8, "sliding training window (days)")
		dayEvery     = flag.Duration("day-every", 10*time.Second, "wall-clock time per simulated day")
		retrainEvery = flag.Int("retrain-every", 1, "retrain every N simulated days (drift alarms retrain sooner)")
		checkpoint   = flag.String("checkpoint", "", "path for atomic model checkpoints (empty disables)")
		staleAfter   = flag.Int("stale-after", 72, "simulated hours before the model counts as stale (0 disables)")
		pprofFlag    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn, or error")
		logJSON      = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		traceSpans   = flag.Int("trace-spans", defaultTraceSpans, "flight-recorder capacity in spans")
		bundleDir    = flag.String("bundle-dir", filepath.Join(os.TempDir(), "tipsy-bundles"),
			"directory for diagnostic bundles (empty disables)")
	)
	flag.Parse()
	if err := checkFlags(*trainDays, *dayEvery); err != nil {
		fmt.Fprintln(flag.CommandLine.Output(), err)
		flag.Usage()
		os.Exit(2)
	}

	// Tee the process logger into a ring so diagnostic bundles carry
	// the log lines leading up to an incident.
	ring := obsv.NewLogRing(logRingBytes)
	slog.SetDefault(newLogger(io.MultiWriter(os.Stderr, ring), *logLevel, *logJSON))

	s := newServer(*seed, *trainDays, monitor.DefaultConfig())
	s.logRing = ring
	s.checkpointPath = *checkpoint
	s.staleAfter = wan.Hour(*staleAfter)
	s.pprofEnabled = *pprofFlag
	s.bundleDir = *bundleDir
	s.initTrace(*traceSpans)
	if *retrainEvery > 0 {
		s.retrainEvery = *retrainEvery
	}

	if s.checkpointPath != "" {
		switch err := s.recoverCheckpoint(); {
		case err == nil:
			s.logCkpt.Info("recovered checkpoint",
				"path", s.checkpointPath, "trained_at_hour", s.gen.Load().TrainedAt())
		case os.IsNotExist(err):
			s.logCkpt.Info("no checkpoint; starting cold", "path", s.checkpointPath)
		default:
			s.logCkpt.Warn("checkpoint unusable; starting cold",
				"path", s.checkpointPath, "err", err)
		}
	}

	if s.gen.Load().Recovered() {
		// The recovered models serve immediately; the retrain loop
		// refills the sliding window as simulated days pass.
		s.logMain.Info("serving from recovered checkpoint; skipping bootstrap")
	} else {
		s.logMain.Info("bootstrapping", "sim_days", *trainDays)
		s.cycle(*trainDays, true)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	s.logMain.Info("tipsyd listening",
		"addr", *listen, "links", s.sim.NumLinks(), "day_every", *dayEvery)
	if err := run(ctx, s, *listen, *dayEvery); err != nil {
		s.logMain.Error("tipsyd failed", "err", err)
		os.Exit(1)
	}
	s.logMain.Info("tipsyd shut down cleanly")
}

// checkFlags refuses the flag values that can never work, as the flag
// package refuses a malformed one: a -train-days below 1 would leave
// every retrain an empty window, so no model would ever serve, and no
// ticker runs on a -day-every that is not positive.
func checkFlags(trainDays int, dayEvery time.Duration) error {
	switch {
	case trainDays < 1:
		return fmt.Errorf("invalid value %d for flag -train-days: the training window needs at least one day", trainDays)
	case dayEvery <= 0:
		return fmt.Errorf("invalid value %v for flag -day-every: a simulated day needs a positive interval", dayEvery)
	}
	return nil
}

// newLogger builds the process-wide slog handler from the -log-level
// and -log-json flags. An unknown level falls back to info.
func newLogger(w io.Writer, level string, jsonOut bool) *slog.Logger {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		lvl = slog.LevelInfo
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	if jsonOut {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return slog.New(h)
}

// run serves the API and the retrain loop until the HTTP server fails
// or ctx is cancelled (the signal-driven shutdown path). On shutdown
// it stops the retrain loop, drains in-flight HTTP requests, and
// writes a final checkpoint so the trained model survives the
// restart.
func run(ctx context.Context, s *server, listen string, dayEvery time.Duration) error {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(dayEvery)
		defer ticker.Stop()
		days := 0 // simulated days since the last retrain
		for {
			select {
			case <-ticker.C:
				days++
				if s.cycle(1, days >= s.retrainEvery) {
					days = 0
				}
			case <-stop:
				return
			}
		}
	}()

	srv := &http.Server{Addr: listen, Handler: s.handler()}
	errCh := make(chan error, 1)
	go func() {
		errCh <- srv.ListenAndServe()
	}()

	var err error
	select {
	case err = <-errCh:
		// The listener died on its own; nothing to drain.
	case <-ctx.Done():
		s.logMain.Info("shutdown signal received; draining")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = srv.Shutdown(sctx)
		cancel()
		<-errCh // ListenAndServe has returned ErrServerClosed
	}
	close(stop)
	<-done

	if cerr := s.saveCheckpoint(); cerr != nil {
		s.logCkpt.Error("final checkpoint failed", "err", cerr)
		if err == nil {
			err = cerr
		}
	}
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return err
}

// newServer constructs the simulated WAN and an empty (untrained)
// server around it. Until the first retrain, queries are answered by
// the GeoNearest fallback and /healthz reports degraded. mcfg is the
// quality monitor's configuration; its LinkMeta and OnAlarm are
// filled in here.
func newServer(seed int64, trainDays int, mcfg monitor.Config) *server {
	metros := geo.World()
	g := topology.Generate(topology.TestGenConfig(seed), metros)
	w := traffic.Generate(traffic.TestConfig(seed+10), g, metros)
	cfg := netsim.DefaultConfig(seed + 20)
	cfg.HorizonHours = wan.Hour(400 * 24)
	cfg.OutagesPerLinkYear = 10
	sim := netsim.New(cfg, g, metros, w)

	reg := obsv.NewRegistry()
	if mcfg.LinkMeta == nil {
		mcfg.LinkMeta = linkMeta(sim)
	}
	logger := slog.Default()
	s := &server{
		sim:          sim,
		metros:       metros,
		trainDays:    trainDays,
		agg:          pipeline.NewAggregatorOn(reg, sim.GeoIP(), sim.DstMetadata),
		reg:          reg,
		met:          newServerMetrics(reg),
		retrainEvery: 1,
		logMain:      logger.With("component", "main"),
		logTrain:     logger.With("component", "train"),
		logHTTP:      logger.With("component", "http"),
		logCkpt:      logger.With("component", "checkpoint"),
		logBundle:    logger.With("component", "bundle"),
		clock:        obsv.Now,
		rtb:          obsv.NewRuntimeBridge(reg),
		logRing:      obsv.NewLogRing(logRingBytes),
		seed:         seed,
	}
	s.initTrace(defaultTraceSpans)
	s.gen.Store(serve.Untrained(sim, metros))
	// The alarm hook must be wired before the monitor exists so no
	// transition into firing can be missed.
	mcfg.OnAlarm = s.onAlarm
	s.mon = monitor.New(mcfg, reg)
	s.reg.SetInfo("tipsy_build_info", buildInfoLabels(seed))
	return s
}

// buildVersion reports the module version stamped into the binary, or
// "unknown" for plain `go test` / development builds.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// buildInfoLabels renders the tipsy_build_info label set — the
// standard "info metric" idiom: a constant-1 gauge whose labels carry
// the build identity.
func buildInfoLabels(seed int64) string {
	return fmt.Sprintf("go_version=%q,seed=%q,version=%q",
		runtime.Version(), strconv.FormatInt(seed, 10), buildVersion())
}

// initTrace wires a fresh span-tracing subsystem: a flight recorder of
// capacity spans and a tracer recording every span into it, timed by
// whatever s.clock is when a span reads it.
func (s *server) initTrace(capacity int) {
	s.flight = obsv.NewRecorder(capacity)
	s.tracer = obsv.NewTracer(s.flight, func() int64 { return s.clock() })
}

// linkMeta resolves a link to its metro and peer-AS kind — the
// monitor's quality-slice dimensions.
func linkMeta(sim *netsim.Sim) func(wan.LinkID) (geo.MetroID, string) {
	return func(id wan.LinkID) (geo.MetroID, string) {
		l, ok := sim.Link(id)
		if !ok {
			return 0, "unknown"
		}
		kind := "unknown"
		if as, ok := sim.Graph().AS(l.PeerAS); ok {
			kind = as.Kind.String()
		}
		return l.Metro, kind
	}
}

// statusWriter captures the response status code so the request span
// can record it (and mark 5xx responses as errors).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// handler routes the API behind W3C traceparent propagation, so every
// request runs under its request span: an inbound traceparent header
// parents it (StartRemote marks where the trace entered this process),
// the response echoes the current context so callers can stitch traces
// across hops, and the finished request span — method, path, status —
// lands in the flight recorder. /metrics always serves the registry's
// text exposition; the pprof handlers are mounted only when -pprof is
// set, keeping the profiling surface off production listeners by
// default.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/model", s.handleModel)
	mux.HandleFunc("GET /v1/links", s.handleLinks)
	mux.HandleFunc("GET /v1/sample", s.handleSample)
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/quality", s.handleQuality)
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	mux.HandleFunc("GET /debug/bundle", s.handleBundle)
	if s.pprofEnabled {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var sp *obsv.Span
		if sc, ok := obsv.ExtractTraceparent(r.Header); ok {
			sp = s.tracer.StartRemote(sc, r.URL.Path)
		} else {
			sp = s.tracer.StartRoot(r.URL.Path)
		}
		sp.SetStr("method", r.Method)
		obsv.InjectTraceparent(w.Header(), sp.Context())
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		mux.ServeHTTP(sw, r.WithContext(obsv.ContextWithSpan(r.Context(), sp)))
		sp.SetInt("status", int64(sw.code))
		if sw.code >= 500 {
			sp.Error("server error")
		}
		sp.End()
	})
}

// cycle is one ingest/retrain cycle under a root span, so the flight
// recorder links the day's ingest, drain, truth join, and retrain
// together: it simulates n more days, then retrains if a retrain is
// due or a quality alarm forces one, and reports whether it did.
func (s *server) cycle(n int, due bool) bool {
	root := s.tracer.StartRoot("cycle")
	defer root.End()
	s.advanceDays(n, root)
	if !due {
		// Sustained drift pulls the retrain forward: a stale model is
		// the one thing a retrain is guaranteed to fix. The
		// post-withdrawal alarm would too, but tipsyd never arms its
		// watch: Monitor.NoteWithdrawal is the CMS's call and no CMS
		// runs inside the daemon, so here only drift forces a retrain.
		if !s.mon.AlarmFiring(monitor.AlarmDrift) && !s.mon.AlarmFiring(monitor.AlarmPostWithdrawal) {
			return false
		}
		s.logTrain.Warn("quality alarm forcing early retrain", "retrain_every", s.retrainEvery)
		root.Event("forced_retrain")
	}
	s.retrain(root)
	return true
}

// advanceDays simulates n more days of traffic into the training
// window and returns the drained hourly records. They double as
// ground truth: the monitor joins them against outstanding
// predictions and closes their hours before the simulated clock
// advances past them. The window keeps them only as daily rows
// counted from the cycle's start hour. Under parent, "ingest" covers
// the simulated run (the aggregator's own aggregate_batch and drain
// spans parent under the same trace) and "truth_join" the monitor's
// join of the drained window; a nil parent records nothing.
func (s *server) advanceDays(n int, parent *obsv.Span) []features.Record {
	from := s.simHour()
	to := from + wan.Hour(n*24)
	s.agg.SetTrace(s.tracer, parent.Context())
	isp := s.tracer.StartChild(parent, "ingest")
	isp.SetInt("from_hour", int64(from))
	isp.SetInt("to_hour", int64(to))
	s.sim.Run(netsim.RunOptions{From: from, To: to, Sink: s.agg})
	isp.End()
	recs := s.agg.Records()
	tsp := s.tracer.StartChild(parent, "truth_join")
	tsp.SetInt("records", int64(len(recs)))
	s.mon.AdvanceTo(to, recs)
	tsp.End()
	rows := dataset.DailyRows(recs, from)
	days := make([]windowDay, n)
	for d := range days {
		days[d].from = from + wan.Hour(d*24)
	}
	for i := range recs {
		if r := &recs[i]; r.Bytes > 0 && r.Hour >= from && r.Hour < to {
			days[(r.Hour-from)/24].records++
		}
	}
	// Trim the window to what retraining needs. The new rows all fall
	// in [from, to), inside the window; concatenating them onto the
	// kept rows makes one exact allocation, so the window holds no
	// trimmed days.
	cutoff := to - wan.Hour(s.trainDays*24)
	s.mu.Lock()
	s.records = slices.Concat(dataset.Window(s.records, cutoff, to), rows)
	s.days = slices.DeleteFunc(append(s.days, days...), func(d windowDay) bool { return d.from < cutoff })
	s.mu.Unlock()
	s.simulated.Store(int32(to))
	return recs
}

// simHour is the hour the simulation has reached.
func (s *server) simHour() wan.Hour { return wan.Hour(s.simulated.Load()) }

// retrain rebuilds the serving generation from the sliding window —
// the paper's daily retraining cadence — swaps it in, and checkpoints
// it. Under parent, "retrain" wraps the whole rebuild, "train" the
// model fitting, "shadow_predict" the monitor's graded sample, and the
// checkpoint outcome lands as a span event (success) or error status
// (failure).
func (s *server) retrain(parent *obsv.Span) {
	s.mu.RLock()
	rows, records := s.records, 0
	for _, d := range s.days {
		records += d.records
	}
	s.mu.RUnlock()
	now := s.simHour()
	if len(rows) == 0 {
		return
	}
	rsp := s.tracer.StartChild(parent, "retrain")
	tsp := s.tracer.StartChild(rsp, "train")
	gen := serve.Train(rows, now, s.sim, s.metros)
	s.gen.Store(gen)
	tsp.SetInt("rows", int64(len(rows)))
	tsp.SetInt("records", int64(records))
	tuples := gen.Tuples()
	tsp.SetInt("tuples", int64(tuples))
	tsp.End()
	// The freshly trained model defines the new quality baseline (and
	// disarms any post-withdrawal watch); shadow predictions from it
	// are what next day's telemetry will be joined against.
	s.mon.FreezeBaseline(now)
	ssp := s.tracer.StartChild(rsp, "shadow_predict")
	s.shadowPredict(gen, now, rows, ssp)
	ssp.End()
	s.logTrain.Info("retrained",
		"hour", now, "rows", len(rows), "records", records, "tuples", tuples)
	switch err := s.saveCheckpoint(); {
	case err != nil:
		rsp.Error("checkpoint write failed")
		s.logCkpt.Error("checkpoint failed", "err", err)
	case s.checkpointPath != "":
		rsp.Event("checkpoint_write")
	}
	rsp.End()
}

// shadowSampleCap bounds how many distinct flows each retrain grades.
const shadowSampleCap = 256

// shadowPredict records a deterministic sample of the training
// window's flows as served predictions, so the monitor has joinable
// predictions even when no external client is querying. The sample
// keeps the first sighting of each distinct flow in record order, so
// same-seed runs grade the same flows. These walks grade the model and
// no client asked for them, so they stay out of the serving metrics.
func (s *server) shadowPredict(gen *serve.Models, now wan.Hour, recs []features.Record, parent *obsv.Span) {
	for _, rec := range firstSightings(recs, shadowSampleCap) {
		psp := s.tracer.StartChild(parent, "predict")
		_, a := gen.Walk(nil, core.Query{Flow: rec.Flow, K: serve.DefaultK}, s.clock)
		markDemotions(psp, a)
		psp.SetStr("rung", a.Rung.String())
		psp.End()
		s.mon.RecordPrediction(now, rec.Flow, a.Rung.String(), a.Preds)
	}
}

// firstSightings returns the first record of each of the first n
// distinct flows in recs, in record order.
func firstSightings(recs []features.Record, n int) []features.Record {
	out := make([]features.Record, 0, n)
	seen := make(map[features.FlowFeatures]bool, n)
	for i := 0; i < len(recs) && len(out) < n; i++ {
		if !seen[recs[i].Flow] {
			seen[recs[i].Flow] = true
			out = append(out, recs[i])
		}
	}
	return out
}

var demoteEvents = [serve.None]string{"demote_ensemble", "demote_geo"}

// markDemotions files a demote_* event on sp for every rung that ran
// and produced nothing — the span-level record of a degraded answer.
func markDemotions(sp *obsv.Span, a serve.Answer) {
	for r := serve.Ensemble; r < a.Rung; r++ {
		if a.Tried[r] {
			sp.Event(demoteEvents[r])
		}
	}
}

// saveCheckpoint atomically persists the trained models. A no-op when
// checkpointing is disabled or nothing is trained yet.
func (s *server) saveCheckpoint() error {
	ck := s.gen.Load().Checkpoint()
	if s.checkpointPath == "" || len(ck.Models) == 0 {
		return nil
	}
	return ck.SaveFile(s.checkpointPath)
}

// recoverCheckpoint restores the serving generation from the
// checkpoint file and resumes the simulation clock at the
// checkpointed hour. The recovered generation serves immediately; the
// next retrain replaces it.
func (s *server) recoverCheckpoint() error {
	sp := s.tracer.StartRoot("checkpoint_recover")
	defer sp.End()
	ck, err := core.LoadCheckpointFile(s.checkpointPath)
	if err != nil {
		sp.Error("checkpoint load failed")
		return err
	}
	gen, err := serve.FromCheckpoint(ck, s.sim, s.metros)
	if err != nil {
		sp.Error("checkpoint rejected")
		return err
	}
	s.gen.Store(gen)
	if s.simHour() < ck.TrainedAt {
		s.simulated.Store(int32(ck.TrainedAt))
	}
	return nil
}

// degraded reports whether serving from gen at simulated hour now is
// degraded (no trained ensemble, or a model staler than the
// configured bound) and why.
func (s *server) degraded(gen *serve.Models, now wan.Hour) (bool, string) {
	if !gen.Trained() {
		return true, "no trained model; serving from fallback"
	}
	if s.staleAfter > 0 && now-gen.TrainedAt() > s.staleAfter {
		return true, fmt.Sprintf("model stale: trained at hour %d, telemetry at hour %d", gen.TrainedAt(), now)
	}
	return false, ""
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	gen, now := s.gen.Load(), s.simHour()
	degraded, reason := s.degraded(gen, now)
	body := map[string]any{
		"status":           "ok",
		"simulated_hour":   now,
		"model_trained_at": gen.TrainedAt(),
		"model_age_hours":  now - gen.TrainedAt(),
		"model_ready":      gen.Trained(),
		"recovered":        gen.Recovered(),
	}
	// The monitor's verdict annotates health: a model that is fresh
	// but predicting badly is degraded too.
	qDegraded, qReason := s.mon.Degraded()
	body["quality_degraded"] = qDegraded
	if qDegraded {
		body["quality_reason"] = qReason
		if !degraded {
			degraded, reason = true, "prediction quality: "+qReason
		}
	}
	status := http.StatusOK
	if degraded {
		body["status"] = "degraded"
		body["reason"] = reason
		status = http.StatusServiceUnavailable
	}
	s.writeJSONStatus(w, status, body)
}

// handleQuality serves the monitor's full quality report: windowed
// accuracy, slices, drift vs. baseline, and alarm states.
func (s *server) handleQuality(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, s.mon.Quality())
}

func (s *server) handleModel(w http.ResponseWriter, r *http.Request) {
	gen := s.gen.Load()
	if !gen.Trained() {
		http.Error(w, "model not ready", http.StatusServiceUnavailable)
		return
	}
	s.writeJSON(w, map[string]any{
		"name":       gen.Ensemble().Name(),
		"tuples":     gen.Tuples(),
		"trained_at": gen.TrainedAt(),
		"train_days": s.trainDays,
		"recovered":  gen.Recovered(),
	})
}

func (s *server) handleLinks(w http.ResponseWriter, r *http.Request) {
	type linkJSON struct {
		ID       wan.LinkID `json:"id"`
		Router   string     `json:"router"`
		Metro    uint16     `json:"metro"`
		PeerAS   uint32     `json:"peer_as"`
		Capacity float64    `json:"capacity_bps"`
	}
	var out []linkJSON
	for _, id := range s.sim.Links() {
		l, _ := s.sim.Link(id)
		out = append(out, linkJSON{l.ID, l.Router, uint16(l.Metro), uint32(l.PeerAS), l.Capacity})
	}
	s.writeJSON(w, out)
}

// handleSample returns a few flow tuples present in the training
// window, ready to paste into /v1/predict bodies — handy for demos
// and smoke tests. A flow's bytes are its sampled pair's bytes over
// the first day the window holds it.
func (s *server) handleSample(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	recs := s.records
	s.mu.RUnlock()
	var out []serve.Flow
	for _, rec := range firstSightings(recs, 5) {
		out = append(out, serve.Flow{
			SrcAddr: bgp.FormatIP(rec.Flow.Prefix | 7),
			SrcAS:   uint32(rec.Flow.AS), Region: uint16(rec.Flow.Region),
			Service: uint8(rec.Flow.Type), Bytes: rec.Bytes,
		})
	}
	s.writeJSON(w, out)
}

// The two bounds on what /v1/predict buffers per request.
const (
	// maxPredictBody is the longest body read; a longer one is
	// answered 413. A flow takes some 80 bytes, so this is a what-if
	// over twelve thousand flows.
	maxPredictBody = 1 << 20
	// maxPooledBuf is the largest buffer that goes back to the pool:
	// room for the body and the answer of some 1,500 flows. A request
	// that grew its buffers past it leaves them to the collector, so
	// one huge request does not pin its memory for good.
	maxPooledBuf = 256 << 10
	// maxPooledFlows bounds the decoded request's flows and excluded
	// links that go back to the pool: a body of empty flows or of
	// repeated link IDs grows them faster than the bytes. The answer
	// needs no bound of its own, as each link in it takes 30 bytes or
	// more of the encoded answer, and an answer that could not be
	// encoded drops its storage.
	maxPooledFlows = 4096
)

// predictBuf is the memory one /v1/predict request borrows, from the
// body as read to the answer as encoded. The handler that took it from
// predictBufs owns all of it until its last Write returns, and nothing
// in it outlives the request: the monitor copies what it keeps.
type predictBuf struct {
	in    bytes.Buffer
	req   serve.Request
	flows []features.FlowFeatures
	resp  serve.Response
	out   []byte
}

var predictBufs = sync.Pool{New: func() any { return new(predictBuf) }}

func (b *predictBuf) release() {
	if b.in.Cap() <= maxPooledBuf && cap(b.out) <= maxPooledBuf &&
		cap(b.req.Flows) <= maxPooledFlows && cap(b.req.ExcludeLinks) <= maxPooledFlows {
		predictBufs.Put(b)
	}
}

// handlePredict serves the per-request prediction path — the
// latency-sensitive endpoint, so TestPredictHandlerAllocs pins its
// allocations per what-if. Both directions of JSON go through
// internal/serve's codec and pooled buffers, never encoding/json, and
// the answer leaves in one Write under a Content-Length. Four spans
// under the one handler() started account for the request: json_decode
// (reading the body included), feature_encode, predict and json_encode
// (the write included). The stage histograms take the middle two
// spans' durations and their sum, so /metrics and /debug/trace hold
// the same nanoseconds.
func (s *server) handlePredict(w http.ResponseWriter, r *http.Request) {
	rsp := obsv.SpanFromContext(r.Context())
	buf := predictBufs.Get().(*predictBuf)
	defer buf.release()
	dsp := s.tracer.StartChild(rsp, "json_decode")
	buf.in.Reset()
	_, err := buf.in.ReadFrom(http.MaxBytesReader(w, r.Body, maxPredictBody))
	dsp.SetInt("bytes", int64(buf.in.Len()))
	req := &buf.req
	if err == nil {
		err = serve.DecodeRequest(buf.in.Bytes(), req)
	}
	if err != nil {
		dsp.Error("bad request")
		dsp.End()
		status := http.StatusBadRequest
		var tooLong *http.MaxBytesError
		if errors.As(err, &tooLong) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	dsp.End()
	s.met.requests.Inc()
	gen, now := s.gen.Load(), s.simHour()
	fsp := s.tracer.StartChild(rsp, "feature_encode")
	flows, err := req.Encode(buf.flows, s.sim.GeoIP())
	buf.flows = flows
	if err != nil {
		fsp.Error("bad address")
		fsp.End()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fsp.SetInt("flows", int64(len(flows)))
	encodeNs := fsp.End()
	psp := s.tracer.StartChild(rsp, "predict")
	// Only unconstrained queries feed the quality monitor: a what-if
	// that excludes links is answered against a counterfactual
	// topology and would skew the joined accuracy.
	graded := len(req.ExcludeLinks) == 0
	resp := &buf.resp
	gen.Respond(resp, req, flows, s.clock, func(i int, a serve.Answer) {
		s.met.observe(a)
		markDemotions(psp, a)
		if graded {
			s.mon.RecordPrediction(now, flows[i], a.Rung.String(), a.Preds)
		}
	})
	psp.SetInt("flows", int64(len(flows)))
	predictNs := psp.End()
	s.met.encodeNs.Observe(encodeNs)
	s.met.predictNs.Observe(predictNs)
	s.met.totalNs.Observe(encodeNs + predictNs)
	esp := s.tracer.StartChild(rsp, "json_encode")
	defer esp.End()
	if buf.out, err = resp.AppendJSON(buf.out[:0]); err != nil {
		esp.Error("unencodable answer")
		buf.resp = serve.Response{} // out, left as it was, does not bound it
		s.unencodable(w, err)
		return
	}
	esp.SetInt("bytes", int64(len(buf.out)))
	s.writeBody(w, http.StatusOK, buf.out)
}

func (s *server) writeJSON(w http.ResponseWriter, v any) {
	s.writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus encodes before it writes the status line, so that a
// value JSON cannot carry is a 500 with a message, not status and an
// empty body.
func (s *server) writeJSONStatus(w http.ResponseWriter, status int, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		s.unencodable(w, err)
		return
	}
	s.writeBody(w, status, body.Bytes())
}

func (s *server) unencodable(w http.ResponseWriter, err error) {
	s.logHTTP.Error("encode response", "err", err)
	http.Error(w, "encode response: "+err.Error(), http.StatusInternalServerError)
}

// writeBody sends an encoded JSON body in one Write, its length
// announced, so net/http frames nothing in chunks.
func (s *server) writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.logHTTP.Error("write response", "err", err)
	}
}

// handleMetrics samples the runtime bridge (GC pauses, heap,
// goroutines, scheduler latency) and serves the registry's text
// exposition, so every scrape carries fresh runtime gauges.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.rtb.Sample()
	s.reg.Handler().ServeHTTP(w, r)
}
