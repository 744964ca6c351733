package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef names one reported metric. BENCHMARK.json carries the
// same names and units; TestBenchmarkJSONMatches holds the two lists
// together.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees. Every workload reports
// all of them, from untraced runs only.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"work_per_s", "1/s"},
	{"cpu_us_per_work", "us"},
	{"slo_ok_share", "share"},
	{"rss_mb", "MB"},
}

// perLayer is reported by traced runs. Layers are module names; a
// metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// tipsyd's own view of the window: deltas of /metrics and /healthz.
	{"tipsyd.rtt_p50_ms", "ms"},
	{"tipsyd.rtt_p99_ms", "ms"},
	{"tipsyd.rtt_max_ms", "ms"},
	{"tipsyd.handler_ms_per_op", "ms"},
	{"tipsyd.feature_encode_ms_per_op", "ms"},
	{"tipsyd.predict_stage_ms_per_op", "ms"},
	{"tipsyd.ladder_ns_per_flow", "ns"},
	{"tipsyd.http_json_ms_per_op", "ms"},
	{"tipsyd.requests", "count"},
	{"tipsyd.rung_ensemble_share", "share"},
	{"tipsyd.cycles", "count"},
	{"tipsyd.cycle_raw_records", "count"},
	{"tipsyd.gc_pause_ms", "ms"},
	{"tipsyd.gc_cycles", "count"},
	{"tipsyd.sched_latency_ms", "ms"},
	{"tipsyd.heap_mb", "MB"},
	{"monitor.predictions", "count"},
	// In-process twins of the daemon's stages, on the same queries.
	{"core.predict_ns_per_flow", "ns"},
	{"features.encode_ns_per_flow", "ns"},
	{"monitor.record_prediction_ns_per_flow", "ns"},
	{"netsim.day_ms", "ms"},
	// ingest_wire.
	{"ipfix.stream_self_ms_per_op", "ms"},
	{"ipfix.decode_ns_per_record", "ns"},
	{"ipfix.messages", "count"},
	{"ipfix.records", "count"},
	{"ipfix.lost", "count"},
	{"ipfix.quarantined", "count"},
	{"pipeline.record_batch_ns_per_record", "ns"},
	{"pipeline.drain_ms_per_op", "ms"},
	{"pipeline.drained_records", "count"},
	{"loadgen.write_blocked_ms_per_op", "ms"},
	// retrain_day.
	{"pipeline.encode_ms_per_op", "ms"},
	{"core.train_ms_per_op", "ms"},
	{"core.tuples", "count"},
	{"core.checkpoint_save_ms_per_op", "ms"},
	{"core.checkpoint_load_ms_per_op", "ms"},
	{"core.checkpoint_bytes", "count"},
	{"eval.accuracy_ms_per_op", "ms"},
	{"core.predict_ns_per_query", "ns"},
	{"eval.top1", "share"},
	{"eval.top3", "share"},
	// The bench process's Go runtime over the window: the system
	// under test on ingest_wire and retrain_day, the load generator
	// on serve_*.
	{"go_runtime.allocs_per_work", "count"},
	{"go_runtime.alloc_bytes_per_work", "count"},
	{"go_runtime.gc_pause_ms", "ms"},
	{"go_runtime.gc_cycles", "count"},
	// VmHWM of the system under test since it began, set-up included.
	{"sut.peak_rss_mb", "MB"},
	// Validity of the run itself.
	{"netsim.run_ms", "ms"},
	{"loadgen.verify_ms_per_op", "ms"},
	{"loadgen.client_cpu_share", "share"},
	{"loadgen.ops", "count"},
	{"trace.overhead_share", "share"},
}

// result is what one run reports.
type result struct {
	attempted, failed int
	// problems are oracle or exact-count violations that are not tied
	// to one op; any entry makes the run incorrect.
	problems []string
	metrics  map[string]float64
}

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// print writes every metric of defs by name with its unit, then the
// one-line JSON object the driver reads. A metric the workload did
// not set is a bug and is reported as such.
func (r *result) print(w io.Writer, defs []metricDef) error {
	type valueJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueJSON `json:"metrics"`
	}{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]valueJSON{}}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(w, "metric %-40s %18.6f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = valueJSON{v, d.unit}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
	fmt.Fprintf(w, "ops attempted %d failed %d\n", r.attempted, r.failed)
	out.Correct = r.correct()
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
