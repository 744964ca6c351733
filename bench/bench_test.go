package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests hold the
// code to.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatches(t *testing.T) {
	b := loadBenchmarkJSON(t)
	names := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the code %s [%s]",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
			if !names.MatchString(d.name) {
				t.Errorf("%s metric name %q is outside the contract", kind, d.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the code lacks", w.Name)
		}
	}
}

// TestWorkloadsSmoke drives every workload, untraced and traced, by
// op count on a tiny env, and checks the report: every metric of
// BENCHMARK.json printed exactly once with its unit, every oracle
// passed, no op failed.
func TestWorkloadsSmoke(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	tipsyd := filepath.Join(tmp, "tipsyd")
	if err := buildTipsyd(context.Background(), root, tipsyd); err != nil {
		t.Fatal(err)
	}
	b := loadBenchmarkJSON(t)
	ops := map[string]int{"serve_whatif": 48, "serve_live": 48, "ingest_wire": 2, "retrain_day": 2}
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				cfg := config{
					workload: w.Name, seed: 7, trace: trace, setupReps: 1,
					opsPerClient: ops[w.Name], tiny: true,
					root: root, outDir: tmp, tipsydBin: tipsyd,
				}
				var out bytes.Buffer
				if err := run(context.Background(), cfg, &out); err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				want := b.EndToEnd
				if trace {
					want = b.PerLayer
				}
				checkReport(t, out.String(), want)
			})
		}
	}
}

func checkReport(t *testing.T, report string, want []struct{ Name, Unit string }) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(report), "\n")
	printed := map[string]int{}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 4 && f[0] == "metric" {
			printed[f[1]+" "+f[3]]++
		}
	}
	var last struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, report)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d\n%s", last.Correct, last.Attempted, last.Failed, report)
	}
	if len(last.Metrics) != len(want) {
		t.Errorf("result object has %d metrics, BENCHMARK.json %d", len(last.Metrics), len(want))
	}
	for _, m := range want {
		if n := printed[m.Name+" "+m.Unit]; n != 1 {
			t.Errorf("metric %s [%s] printed %d times", m.Name, m.Unit, n)
		}
		if got, ok := last.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("result object: metric %s has unit %q, want %q (present: %v)", m.Name, got.Unit, m.Unit, ok)
		}
	}
}

// TestLayerTableSumsToOpTime pins the attribution rule: sequential
// children keep their time, parallel children share the wall clock
// they cover, and the rows always sum to the ops' total.
func TestLayerTableSumsToOpTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "op", start: 0, end: 100 * ms},
		{name: "stream", parent: 1, start: 10 * ms, end: 70 * ms},
		{name: "stream", parent: 1, start: 10 * ms, end: 50 * ms},
		{name: "batch", parent: 2, start: 10 * ms, end: 40 * ms},
		{name: "drain", parent: 1, start: 70 * ms, end: 90 * ms},
		{name: "outside", start: 0, end: 500 * ms},
	}
	rows, ops, total := layerTable(spans)
	if ops != 1 || total != 100*ms {
		t.Fatalf("ops %d total %v", ops, total)
	}
	got := map[string]time.Duration{}
	var sum time.Duration
	for _, r := range rows {
		got[r.name] = r.self
		sum += r.self
	}
	// The streams share 10-50 ms evenly, so the first is given 40 of
	// its 60 ms and the second 20 of its 40; drain ran alone.
	want := map[string]time.Duration{"op": 20 * ms, "stream": 40 * ms, "batch": 20 * ms, "drain": 20 * ms}
	for name, w := range want {
		if d := got[name] - w; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("%s: self %v, want %v", name, got[name], w)
		}
	}
	if _, ok := got["outside"]; ok {
		t.Error("a span outside any op is in the table")
	}
	if d := sum - total; d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("rows sum to %v, ops to %v", sum, total)
	}
}
