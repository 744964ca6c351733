package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"tipsy/internal/alloctest"
	"tipsy/internal/bgp"
	"tipsy/internal/core"
	"tipsy/internal/monitor"
	"tipsy/internal/serve"
)

var (
	srvOnce sync.Once
	srv     *server
)

func testServer(t *testing.T) *server {
	t.Helper()
	srvOnce.Do(func() { srv = buildServer(3, 4) })
	if srv == nil {
		t.Fatal("server build failed")
	}
	return srv
}

// buildServer constructs the simulated WAN, bootstraps trainDays of
// telemetry, and trains the first serving model.
func buildServer(seed int64, trainDays int) *server {
	s := newServer(seed, trainDays, monitor.DefaultConfig())
	s.advanceDays(trainDays, nil)
	s.retrain(nil)
	return s
}

// predict answers q the way a client's flow is answered: one ladder
// walk, booked in the serving metrics.
func (s *server) predict(q core.Query) ([]core.Prediction, string) {
	a := s.gen.Load().Walk(q, s.clock)
	s.met.observe(a)
	return a.Preds, a.Rung.String()
}

func get(t *testing.T, s *server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rr := httptest.NewRecorder()
	s.mux().ServeHTTP(rr, req)
	return rr
}

func TestHealthEndpoint(t *testing.T) {
	s := testServer(t)
	rr := get(t, s, "/healthz")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["model_ready"] != true {
		t.Errorf("model not ready after bootstrap: %v", body)
	}
	if body["simulated_hour"].(float64) != 4*24 {
		t.Errorf("simulated hour = %v, want 96", body["simulated_hour"])
	}
}

func TestModelEndpoint(t *testing.T) {
	s := testServer(t)
	rr := get(t, s, "/v1/model")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	var body map[string]any
	json.Unmarshal(rr.Body.Bytes(), &body)
	if body["name"] != "Hist_AP/AL+G/A" {
		t.Errorf("model name %v", body["name"])
	}
	if body["tuples"].(float64) <= 0 {
		t.Error("no tuples reported")
	}
}

func TestLinksEndpoint(t *testing.T) {
	s := testServer(t)
	rr := get(t, s, "/v1/links")
	var links []map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &links); err != nil {
		t.Fatal(err)
	}
	if len(links) != s.sim.NumLinks() {
		t.Errorf("returned %d links, sim has %d", len(links), s.sim.NumLinks())
	}
	if links[0]["router"] == "" || links[0]["capacity_bps"].(float64) <= 0 {
		t.Errorf("link metadata incomplete: %v", links[0])
	}
}

func TestPredictEndToEnd(t *testing.T) {
	s := testServer(t)
	// Grab a real tuple from the sample endpoint, then ask for a
	// prediction for it — including the exclusion variant.
	rr := get(t, s, "/v1/sample")
	var samples []map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &samples); err != nil || len(samples) == 0 {
		t.Fatalf("sample endpoint: %v / %s", err, rr.Body)
	}
	reqBody, _ := json.Marshal(map[string]any{
		"flows": []map[string]any{{
			"src_addr": samples[0]["src_addr"],
			"src_as":   samples[0]["src_as"],
			"region":   samples[0]["region"],
			"service":  samples[0]["service"],
			"bytes":    1e9,
		}},
		"k": 3,
	})
	req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(reqBody))
	rr = httptest.NewRecorder()
	s.mux().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	var resp serve.Response
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || len(resp.Results[0].Links) == 0 {
		t.Fatalf("no prediction for a known tuple: %s", rr.Body)
	}
	top := resp.Results[0].Links[0].Link

	// Excluding the top link must produce a different answer (or no
	// answer), never the excluded link.
	reqBody, _ = json.Marshal(map[string]any{
		"flows": []map[string]any{{
			"src_addr": samples[0]["src_addr"],
			"src_as":   samples[0]["src_as"],
			"region":   samples[0]["region"],
			"service":  samples[0]["service"],
			"bytes":    1e9,
		}},
		"exclude_links": []uint32{uint32(top)},
		"k":             3,
	})
	req = httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(reqBody))
	rr = httptest.NewRecorder()
	s.mux().ServeHTTP(rr, req)
	resp = serve.Response{} // Unmarshal merges into maps; start clean.
	json.Unmarshal(rr.Body.Bytes(), &resp)
	for _, l := range resp.Results[0].Links {
		if l.Link == top {
			t.Error("excluded link returned")
		}
	}
	if _, ok := resp.Shifted[top]; ok {
		t.Error("excluded link in shifted aggregate")
	}
}

// predictHandlerAllocs is what one 256-flow, 2-excluded-link, k=3
// what-if allocates from httptest.NewRequest through s.handler() to
// the written body: tracing, net/http, both encoding/json directions,
// Request.Encode and Models.Respond (serve.TestWhatIfAllocs splits
// those two). The pin is exact, so it also moves with the Go release;
// a lower number is committed by editing it.
const predictHandlerAllocs = 1147

func TestPredictHandlerAllocs(t *testing.T) {
	alloctest.SkipPooledUnderRace(t)
	s := testServer(t)
	s.mu.RLock()
	recs := s.records
	s.mu.RUnlock()
	req := serve.Request{K: 3}
	gen := s.gen.Load()
	for _, rec := range firstSightings(recs, 256) {
		req.Flows = append(req.Flows, serve.Flow{
			SrcAddr: bgp.FormatIP(rec.Flow.Prefix | 7), SrcAS: uint32(rec.Flow.AS),
			Region: uint16(rec.Flow.Region), Service: uint8(rec.Flow.Type), Bytes: 1e9,
		})
		// Withdraw the first two links that are some flow's best.
		top := gen.Walk(core.Query{Flow: rec.Flow, K: 1}, s.clock).Preds
		if len(req.ExcludeLinks) < 2 && len(top) == 1 && !slices.Contains(req.ExcludeLinks, top[0].Link) {
			req.ExcludeLinks = append(req.ExcludeLinks, top[0].Link)
		}
	}
	if len(req.Flows) != 256 || len(req.ExcludeLinks) != 2 {
		t.Fatalf("fixture gives %d flows and %d links to exclude, want 256 and 2", len(req.Flows), len(req.ExcludeLinks))
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	h := s.handler()
	post := func() {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body)))
		if rr.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rr.Code, rr.Body)
		}
	}
	post() // fill the span and encoder pools
	if allocs := testing.AllocsPerRun(10, post); allocs != predictHandlerAllocs {
		t.Fatalf("/v1/predict allocates %v times per 256-flow what-if, want %d", allocs, predictHandlerAllocs)
	}
}

func TestPredictRejectsBadInput(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader([]byte("{not json")))
	rr := httptest.NewRecorder()
	s.mux().ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d", rr.Code)
	}
	// Every address must be a dotted quad and nothing more.
	for _, addr := range []string{
		"not-an-ip", "1.2.3.4garbage", "1.2.3.4.5", " 1.2.3.4", "+1.2.3.4", "010.1.1.1",
	} {
		body, _ := json.Marshal(map[string]any{
			"flows": []map[string]any{{"src_addr": "11.0.3.7", "src_as": 1}, {"src_addr": addr, "src_as": 1}},
		})
		req = httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body))
		rr = httptest.NewRecorder()
		s.mux().ServeHTTP(rr, req)
		if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "flow 1:") {
			t.Errorf("address %q: status %d, body %q; want 400 naming flow 1", addr, rr.Code, rr.Body)
		}
	}
}

func TestRetrainAdvancesModel(t *testing.T) {
	s := testServer(t)
	before := s.gen.Load().TrainedAt()
	s.advanceDays(1, nil)
	s.retrain(nil)
	if after := s.gen.Load().TrainedAt(); after != before+24 {
		t.Errorf("trainedAt %d -> %d, want +24", before, after)
	}
	// The sliding window keeps only trainDays of records.
	if len(s.records) == 0 {
		t.Fatal("record store empty after retrain")
	}
	cutoff := s.simulated - 24*4
	for _, r := range s.records {
		if r.Hour < cutoff {
			t.Fatalf("record at hour %d survived the %d cutoff", r.Hour, cutoff)
		}
	}
}
