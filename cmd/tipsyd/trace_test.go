package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"tipsy/internal/bundle"
	"tipsy/internal/monitor"
	"tipsy/internal/obsv"
)

// traceTestServer builds a trained server with a fresh tracer and the
// span clock replaced by a deterministic counter. The swap happens
// after bootstrap so training's clock reads and spans don't shift the
// counter or the span IDs: the first traced request always sees tick
// 1, span ID 1.
func traceTestServer(t *testing.T, capacity int) (*server, *atomic.Int64) {
	t.Helper()
	s := buildServer(3, 4)
	var tick atomic.Int64
	s.clock = func() int64 { return tick.Add(1) }
	s.initTrace(capacity)
	return s, &tick
}

// samplePredictBody builds a /v1/predict request for a flow the model
// has seen, via /v1/sample — the same known-tuple idiom main_test
// uses.
func samplePredictBody(t *testing.T, s *server) []byte {
	t.Helper()
	rr := get(t, s, "/v1/sample")
	var samples []map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &samples); err != nil || len(samples) == 0 {
		t.Fatalf("sample endpoint: %v / %s", err, rr.Body)
	}
	body, _ := json.Marshal(map[string]any{
		"flows": []map[string]any{{
			"src_addr": samples[0]["src_addr"],
			"src_as":   samples[0]["src_as"],
			"region":   samples[0]["region"],
			"service":  samples[0]["service"],
			"bytes":    1e9,
		}},
		"k": 3,
	})
	return body
}

// postTraced sends a request with headers through the full handler
// chain.
func postTraced(s *server, path string, body []byte, hdr http.Header) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	rr := httptest.NewRecorder()
	s.handler().ServeHTTP(rr, req)
	return rr
}

// traceIDFromTraceparent pulls the 32-hex trace id out of a
// traceparent header value.
func traceIDFromTraceparent(t *testing.T, tp string) obsv.TraceID {
	t.Helper()
	parts := strings.Split(tp, "-")
	if len(parts) != 4 {
		t.Fatalf("malformed traceparent %q", tp)
	}
	id, ok := obsv.ParseTraceID(parts[1])
	if !ok {
		t.Fatalf("bad trace id in traceparent %q", tp)
	}
	return id
}

// TestPredictTraceGolden locks the span dump for one /v1/predict
// request: with a counter clock and a fresh tracer the request span,
// feature_encode, and predict children — IDs, timestamps, attributes
// — are a pure function of the seed.
func TestPredictTraceGolden(t *testing.T) {
	s, _ := traceTestServer(t, 256)
	body := samplePredictBody(t, s)

	rr := postTraced(s, "/v1/predict", body, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("predict status %d: %s", rr.Code, rr.Body)
	}
	tp := rr.Header().Get(obsv.TraceparentHeader)
	if tp == "" {
		t.Fatal("no traceparent on predict response")
	}
	id := traceIDFromTraceparent(t, tp)

	dump := get(t, s, fmt.Sprintf("/debug/trace?trace=%016x%016x", id.Hi, id.Lo))
	if dump.Code != http.StatusOK {
		t.Fatalf("trace dump status %d: %s", dump.Code, dump.Body)
	}
	got := dump.Body.Bytes()

	golden := filepath.Join("testdata", "predict_trace.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("predict trace dump diverged from golden:\n got: %s\nwant: %s", got, want)
	}
	// There is one dump format: a client still asking for the Chrome
	// one by name gets the same answer.
	chrome := get(t, s, fmt.Sprintf("/debug/trace?trace=%016x%016x&format=chrome", id.Hi, id.Lo))
	if chrome.Code != http.StatusOK || !bytes.Equal(chrome.Body.Bytes(), got) {
		t.Errorf("?format=chrome answered %d:\n%s", chrome.Code, chrome.Body)
	}
}

// TestCycleTraceEndToEnd drives one full simulated day plus retrain
// under a single root span and checks every pipeline stage — ingest,
// aggregation, drain, truth join, training, shadow predictions — lands in the flight recorder linked by one trace ID.
func TestCycleTraceEndToEnd(t *testing.T) {
	s, _ := traceTestServer(t, 8192)

	root := s.tracer.StartRoot("cycle")
	s.advanceDays(1, root)
	s.retrain(root)
	root.End()

	spans := s.flight.TraceSpans(root.Context().Trace)
	counts := map[string]int{}
	for _, r := range spans {
		counts[r.Name]++
		if r.Trace != root.Context().Trace {
			t.Fatalf("TraceSpans leaked foreign trace %v", r.Trace)
		}
	}
	for _, name := range []string{
		"cycle", "ingest", "aggregate_batch", "drain", "truth_join",
		"retrain", "train", "shadow_predict", "predict",
	} {
		if counts[name] == 0 {
			t.Errorf("cycle trace missing %q spans (have %v)", name, counts)
		}
	}
	if counts["cycle"] != 1 || counts["truth_join"] != 1 || counts["retrain"] != 1 || counts["train"] != 1 {
		t.Errorf("singleton span duplicated: %v", counts)
	}
	// The shadow sample is deterministic and capped.
	if counts["predict"] > shadowSampleCap {
		t.Errorf("predict spans %d exceed shadow cap %d", counts["predict"], shadowSampleCap)
	}
	// Parent links: train under retrain, retrain under cycle.
	byName := map[string]obsv.SpanRecord{}
	for _, r := range spans {
		byName[r.Name] = r
	}
	if byName["retrain"].Parent != byName["cycle"].ID {
		t.Error("retrain not parented under cycle")
	}
	if byName["train"].Parent != byName["retrain"].ID {
		t.Error("train not parented under retrain")
	}
	if byName["truth_join"].Parent != byName["cycle"].ID {
		t.Error("truth_join not parented under cycle")
	}
}

// TestTraceparentPropagation: an inbound traceparent parents the
// request span (marked remote), and the response echoes the same
// trace so callers can stitch across hops.
func TestTraceparentPropagation(t *testing.T) {
	s, _ := traceTestServer(t, 256)
	body := samplePredictBody(t, s)

	hdr := http.Header{}
	inbound := "00-0123456789abcdeffedcba9876543210-1a2b3c4d5e6f7081-01"
	hdr.Set(obsv.TraceparentHeader, inbound)
	rr := postTraced(s, "/v1/predict", body, hdr)
	if rr.Code != http.StatusOK {
		t.Fatalf("predict status %d: %s", rr.Code, rr.Body)
	}
	tp := rr.Header().Get(obsv.TraceparentHeader)
	wantTrace, _ := obsv.ParseTraceID("0123456789abcdeffedcba9876543210")
	if got := traceIDFromTraceparent(t, tp); got != wantTrace {
		t.Fatalf("response trace %v, want inbound %v", got, wantTrace)
	}
	if strings.Contains(tp, "1a2b3c4d5e6f7081") {
		t.Fatalf("response span id not re-minted: %s", tp)
	}

	spans := s.flight.TraceSpans(wantTrace)
	if len(spans) == 0 {
		t.Fatal("no spans recorded under the inbound trace")
	}
	var req obsv.SpanRecord
	for _, r := range spans {
		if r.Name == "/v1/predict" {
			req = r
		}
	}
	if !req.Remote {
		t.Errorf("request span not marked remote: %+v", req)
	}
	if req.Parent != obsv.SpanID(0x1a2b3c4d5e6f7081) {
		t.Errorf("request span parent %x, want inbound span id", req.Parent)
	}

	// An unsampled inbound context is recorded under the inbound trace
	// all the same: the request span and its four stage spans.
	before := len(spans)
	hdr.Set(obsv.TraceparentHeader, "00-0123456789abcdeffedcba9876543210-1a2b3c4d5e6f7081-00")
	if rr := postTraced(s, "/v1/predict", body, hdr); rr.Code != http.StatusOK {
		t.Fatalf("unsampled predict status %d", rr.Code)
	}
	if got := len(s.flight.TraceSpans(wantTrace)) - before; got != 5 {
		t.Errorf("unsampled request recorded %d spans under the inbound trace, want 5", got)
	}
}

// TestBundleAlarmRoundTrip is the acceptance scenario for diagnostic
// bundles: the post-withdrawal accuracy collapse fires monitor
// alarms, each transition writes a bundle via the OnAlarm hook, and
// every bundle passes CRC verification with all sections present.
func TestBundleAlarmRoundTrip(t *testing.T) {
	mcfg := monitor.DefaultConfig()
	mcfg.WindowHours = 24
	mcfg.JoinHorizonHours = 24
	mcfg.MinGroups = 10
	mcfg.FireAfter = 2
	mcfg.ClearAfter = 2
	s := newServer(17, 4, mcfg)
	s.bundleDir = t.TempDir()
	s.initTrace(2048)
	s.advanceDays(4, nil)
	s.retrain(nil)
	s.advanceDays(1, nil)
	s.retrain(nil)

	// Withdraw the top predicted links under a stale model: the
	// collapse the paper documents, and the alarm trigger. The day
	// runs under a cycle root the way the daemon's ticker loop traces
	// it, so the bundle's span dump captures the incident.
	withdrawTopPredicted(s)
	s.mon.NoteWithdrawal(s.simHour())
	root := s.tracer.StartRoot("cycle")
	s.advanceDays(1, root)
	root.End()

	entries, err := os.ReadDir(s.bundleDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no bundles written by the alarm hook")
	}
	sawAlarm := false
	for _, e := range entries {
		if strings.Contains(e.Name(), "alarm-") {
			sawAlarm = true
		}
		dir := filepath.Join(s.bundleDir, e.Name())
		man, err := bundle.Verify(dir)
		if err != nil {
			t.Fatalf("bundle %s failed verification: %v", e.Name(), err)
		}
		if !strings.HasPrefix(man.Reason, "alarm-") {
			t.Errorf("bundle %s reason %q", e.Name(), man.Reason)
		}
		have := map[string]bool{}
		for _, ent := range man.Entries {
			have[ent.Name] = true
		}
		for _, want := range []string{
			"metrics.prom", "quality.json", "trace_events.json",
			"log_tail.txt", "heap.pprof", "goroutine.pprof",
		} {
			if !have[want] {
				t.Errorf("bundle %s missing section %s", e.Name(), want)
			}
			delete(have, want)
		}
		if len(have) != 0 {
			t.Errorf("bundle %s has sections beyond the six: %v", e.Name(), have)
		}
		if man.Build["seed"] != "17" || man.Build["go_version"] == "" {
			t.Errorf("bundle %s build manifest %v", e.Name(), man.Build)
		}
	}
	if !sawAlarm {
		t.Errorf("no bundle named for its alarm: %v", entries)
	}
	// The spans section of the first bundle holds real flight-recorder
	// content from the traced collapse day.
	buf, err := os.ReadFile(filepath.Join(s.bundleDir, entries[0].Name(), "trace_events.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf, []byte(`"name": "aggregate_batch"`)) {
		t.Error("bundle trace_events.json has no ingest spans")
	}
}

// TestBundleEndpoint: GET /debug/bundle writes and verifies a bundle
// on demand; with bundles disabled it reports failure rather than
// pretending.
func TestBundleEndpoint(t *testing.T) {
	s, _ := traceTestServer(t, 256)
	s.bundleDir = t.TempDir()

	rr := get(t, s, "/debug/bundle")
	if rr.Code != http.StatusOK {
		t.Fatalf("bundle status %d: %s", rr.Code, rr.Body)
	}
	var resp struct {
		Dir      string          `json:"dir"`
		Manifest bundle.Manifest `json:"manifest"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bundle response not JSON: %v\n%s", err, rr.Body)
	}
	if resp.Manifest.Reason != "manual" {
		t.Errorf("manifest reason %q", resp.Manifest.Reason)
	}
	if _, err := bundle.Verify(resp.Dir); err != nil {
		t.Errorf("reported bundle does not verify: %v", err)
	}

	s.bundleDir = ""
	if rr := get(t, s, "/debug/bundle"); rr.Code != http.StatusInternalServerError {
		t.Errorf("disabled bundles returned %d, want 500", rr.Code)
	}
}
