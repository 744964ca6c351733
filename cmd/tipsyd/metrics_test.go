package main

import (
	"net/http"
	"regexp"
	"strconv"
	"testing"

	"tipsy/internal/core"
	"tipsy/internal/features"
	"tipsy/internal/obsv"
)

// metricValue extracts one scalar metric from /metrics text output.
func metricValue(t *testing.T, body, name string) int64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s not found in /metrics output", name)
	}
	v, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestMetricsEndpoint proves the migrated counters surface on
// /metrics: the pipeline ingest counters from the bootstrap and the
// fallback-ladder rung counters after predictions through both the
// ensemble and the geo fallback.
func TestMetricsEndpoint(t *testing.T) {
	s := smallServer(t, 41)

	// Bootstrap ingested telemetry through the registry-backed
	// aggregator.
	rr := get(t, s, "/metrics")
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rr.Code)
	}
	if raw := metricValue(t, rr.Body.String(), "pipeline_records_raw_total"); raw <= 0 {
		t.Errorf("pipeline_records_raw_total = %d after bootstrap", raw)
	}

	// One known flow (ensemble rung) and one novel flow (geo rung).
	known := s.records[0].Flow
	s.predict(core.Query{Flow: known, K: 3})
	novel := features.FlowFeatures{AS: 4200000002, Prefix: 0x02030400, Loc: 2, Region: known.Region, Type: known.Type}
	s.predict(core.Query{Flow: novel, K: 3})

	body := get(t, s, "/metrics").Body.String()
	if v := metricValue(t, body, "tipsyd_fallback_ensemble_total"); v != 1 {
		t.Errorf("tipsyd_fallback_ensemble_total = %d, want 1", v)
	}
	if v := metricValue(t, body, "tipsyd_fallback_geo_total"); v != 1 {
		t.Errorf("tipsyd_fallback_geo_total = %d, want 1", v)
	}
	// The rung histograms recorded the attempts: the geo answer first
	// fell through the ensemble rung.
	for _, name := range []string{"tipsyd_rung_ensemble_ns_count", "tipsyd_rung_geo_ns_count"} {
		if v := metricValue(t, body, name); v < 1 {
			t.Errorf("%s = %d, want >= 1", name, v)
		}
	}
}

// TestStageHistogramsAreSpanDurations: the stage histograms /metrics
// serves hold exactly the nanoseconds of the feature_encode and
// predict spans under the /v1/predict request spans, and total is
// their sum, so /metrics and /debug/trace cannot disagree. A caller's
// unsampled traceparent is recorded and counted like any request; a
// request refused for a bad address observes nothing.
func TestStageHistogramsAreSpanDurations(t *testing.T) {
	s, _ := traceTestServer(t, 4096)
	known := samplePredictBody(t, s)
	unsampled := http.Header{}
	unsampled.Set(obsv.TraceparentHeader, "00-0123456789abcdeffedcba9876543210-1a2b3c4d5e6f7081-00")
	for i, c := range []struct {
		body []byte
		hdr  http.Header
		code int
	}{
		{known, nil, http.StatusOK},
		{whatIfBody(t, s), nil, http.StatusOK},
		{known, unsampled, http.StatusOK},
		{[]byte(`{"flows":[{"src_addr":"010.1.1.1","src_as":1}]}`), nil, http.StatusBadRequest},
		{[]byte(`{"flows":[{"src_addr":"1.2.3.4","src_as":4200000001,"bytes":1}]}`), nil, http.StatusOK},
	} {
		if rr := postTraced(s, "/v1/predict", c.body, c.hdr); rr.Code != c.code {
			t.Fatalf("request %d: status %d, want %d: %s", i, rr.Code, c.code, rr.Body)
		}
	}

	recs := s.flight.Snapshot()
	answered := map[obsv.SpanID]bool{}
	remote := 0
	for _, r := range recs {
		if r.Name != "/v1/predict" {
			continue
		}
		for _, a := range r.Attrs[:r.NAttrs] {
			if a.Key == "status" && a.Int == http.StatusOK {
				answered[r.ID] = true
				if r.Remote {
					remote++
				}
			}
		}
	}
	if len(answered) != 4 || remote != 1 {
		t.Fatalf("%d answered request spans, %d of them remote; want 4 and 1", len(answered), remote)
	}
	var encode, predict int64
	for _, r := range recs {
		if !answered[r.Parent] {
			continue
		}
		switch r.Name {
		case "feature_encode":
			encode += r.End - r.Start
		case "predict":
			predict += r.End - r.Start
		}
	}
	if encode <= 0 || predict <= 0 {
		t.Fatalf("span durations encode %d predict %d, want both positive", encode, predict)
	}

	body := get(t, s, "/metrics").Body.String()
	for name, want := range map[string]int64{
		"tipsyd_predict_requests_total":          5,
		"tipsyd_predict_feature_encode_ns_count": 4,
		"tipsyd_predict_predict_ns_count":        4,
		"tipsyd_predict_total_ns_count":          4,
		"tipsyd_predict_feature_encode_ns_sum":   encode,
		"tipsyd_predict_predict_ns_sum":          predict,
		"tipsyd_predict_total_ns_sum":            encode + predict,
	} {
		if got := metricValue(t, body, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestPprofGatedByFlag: the profiling surface exists only when
// enabled.
func TestPprofGatedByFlag(t *testing.T) {
	s := smallServer(t, 43)
	if rr := get(t, s, "/debug/pprof/"); rr.Code != http.StatusNotFound {
		t.Errorf("pprof served without the flag: %d", rr.Code)
	}
	s.pprofEnabled = true
	if rr := get(t, s, "/debug/pprof/"); rr.Code != http.StatusOK {
		t.Errorf("pprof with flag: %d", rr.Code)
	}
}
