package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tipsy/internal/core"
	"tipsy/internal/features"
	"tipsy/internal/monitor"
	"tipsy/internal/serve"
)

// smallServer builds a cheap one-day server, bypassing the shared
// singleton so tests can mutate serving state freely.
func smallServer(t *testing.T, seed int64) *server {
	t.Helper()
	s := buildServer(seed, 1)
	if !s.gen.Load().Trained() {
		t.Fatal("bootstrap did not produce a model")
	}
	return s
}

func TestHealthzDegradedWhenUntrained(t *testing.T) {
	s := newServer(31, 1, monitor.DefaultConfig()) // no bootstrap: nothing trained
	rr := get(t, s, "/healthz")
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("untrained server healthz = %d, want 503", rr.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "degraded" || body["model_ready"] != false {
		t.Errorf("degraded body: %v", body)
	}
}

func TestHealthzDegradedWhenStale(t *testing.T) {
	s := smallServer(t, 32)
	s.staleAfter = 24
	if rr := get(t, s, "/healthz"); rr.Code != http.StatusOK {
		t.Fatalf("fresh model healthz = %d, want 200", rr.Code)
	}
	// Telemetry advances two days with no retrain: past the bound.
	s.advanceDays(2, nil)
	rr := get(t, s, "/healthz")
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("stale model healthz = %d, want 503", rr.Code)
	}
	var body map[string]any
	json.Unmarshal(rr.Body.Bytes(), &body)
	if body["status"] != "degraded" || body["model_age_hours"].(float64) != 48 {
		t.Errorf("stale body: %v", body)
	}
	// A retrain restores health.
	s.retrain(nil)
	if rr := get(t, s, "/healthz"); rr.Code != http.StatusOK {
		t.Errorf("healthz after retrain = %d, want 200", rr.Code)
	}
}

func TestPredictLadderFallsBackToGeo(t *testing.T) {
	s := smallServer(t, 33)
	// A flow the models know answers from the ensemble.
	if len(s.records) == 0 {
		t.Fatal("no records")
	}
	known := s.records[0].Flow
	preds, rung := s.predict(core.Query{Flow: known, K: 3})
	if rung != "ensemble" || len(preds) == 0 {
		t.Fatalf("known flow answered by %q with %d predictions", rung, len(preds))
	}
	// A flow from an AS the window never saw: every trained model is
	// empty for it, and the geographic fallback must still answer.
	novel := features.FlowFeatures{AS: 4200000001, Prefix: 0x01020300, Loc: 3, Region: known.Region, Type: known.Type}
	preds, rung = s.predict(core.Query{Flow: novel, K: 3})
	if rung != "geo" {
		t.Fatalf("novel flow answered by %q, want geo", rung)
	}
	if len(preds) == 0 {
		t.Fatal("geo fallback returned nothing")
	}
	fb := s.fallbackSnapshot()
	if fb.Ensemble != 1 || fb.Geo != 1 {
		t.Errorf("fallback counters = %+v", fb)
	}
	// The counters surface in /healthz.
	var body map[string]any
	rr := get(t, s, "/healthz")
	json.Unmarshal(rr.Body.Bytes(), &body)
	counters, ok := body["fallbacks"].(map[string]any)
	if !ok || counters["geo"].(float64) != 1 {
		t.Errorf("healthz fallbacks: %v", body["fallbacks"])
	}
}

func TestPredictServesWithNoModelAtAll(t *testing.T) {
	// Degraded-mode serving: before any training, the API still
	// answers via GeoNearest instead of refusing.
	s := newServer(34, 1, monitor.DefaultConfig())
	f := features.FlowFeatures{AS: 7, Prefix: 0x0a000100, Loc: 2, Region: 1, Type: 1}
	preds, rung := s.predict(core.Query{Flow: f, K: 3})
	if rung != "geo" || len(preds) == 0 {
		t.Fatalf("untrained server: rung=%q preds=%d", rung, len(preds))
	}
}

func TestCheckpointRecoveryOnRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ck")
	a := smallServer(t, 35)
	a.checkpointPath = path
	if err := a.saveCheckpoint(); err != nil {
		t.Fatal(err)
	}

	// A "restarted" process over the same WAN recovers the models
	// without retraining.
	b := newServer(35, 1, monitor.DefaultConfig())
	b.checkpointPath = path
	if err := b.recoverCheckpoint(); err != nil {
		t.Fatal(err)
	}
	ga, gb := a.gen.Load(), b.gen.Load()
	if !gb.Recovered() || !gb.Trained() {
		t.Fatal("recovery did not install a serving model")
	}
	if gb.TrainedAt() != ga.TrainedAt() || b.simHour() != ga.TrainedAt() {
		t.Errorf("recovered clock: trainedAt=%d simulated=%d, want both %d",
			gb.TrainedAt(), b.simHour(), ga.TrainedAt())
	}
	// Recovered predictions are identical to the originals.
	for i := 0; i < len(a.records) && i < 50; i += 10 {
		q := core.Query{Flow: a.records[i].Flow, K: 3}
		pa, pb := ga.Ensemble().Predict(q), gb.Ensemble().Predict(q)
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("record %d: predictions diverge after recovery:\n a %+v\n b %+v", i, pa, pb)
		}
	}
	// A fresh model (age 0, within staleness bound) serves healthily.
	b.staleAfter = 48
	if rr := get(t, b, "/healthz"); rr.Code != http.StatusOK {
		t.Errorf("recovered healthz = %d: %s", rr.Code, rr.Body.String())
	}
}

// v1Checkpoint and v1Model are the checkpoint layout of snapshot
// version 1, which gob-encoded each model's table map.
type v1Checkpoint struct {
	Version   int
	TrainedAt int32
	Models    []v1Model
}

type v1Model struct {
	Version int
	Set     features.Set
	Table   map[features.Tuple][]core.Prediction
}

func TestRecoverRejectsCorruptCheckpoint(t *testing.T) {
	a := smallServer(t, 36)
	a.checkpointPath = filepath.Join(t.TempDir(), "model.ck")
	if err := a.saveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(a.checkpointPath)
	if err != nil {
		t.Fatal(err)
	}
	// Version 1: the file of a build before the columnar layout.
	old := v1Checkpoint{Version: 1, TrainedAt: 24, Models: []v1Model{{
		Version: 1, Set: features.SetA,
		Table: map[features.Tuple][]core.Prediction{{AS: 7}: {{Link: 1, Frac: 1}}},
	}}}
	var payload, v1 bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(old); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteFramed(&v1, "TIPSYCK1", payload.Bytes()); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		file []byte
		want string // in the error
	}{
		// The shape a crash would leave without atomic rename.
		{"truncated", raw[:len(raw)/2], "corrupt"},
		{"version 1", v1.Bytes(), "unsupported checkpoint version 1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "model.ck")
			if err := os.WriteFile(path, c.file, 0o644); err != nil {
				t.Fatal(err)
			}
			b := newServer(36, 1, monitor.DefaultConfig())
			b.checkpointPath = path
			err := b.recoverCheckpoint()
			// main starts cold on any error but a missing file.
			if err == nil || os.IsNotExist(err) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("recover: %v, want an error containing %q", err, c.want)
			}
			if gb := b.gen.Load(); gb.Trained() || gb.Recovered() {
				t.Error("failed recovery must leave the server cold")
			}
		})
	}
}

func TestRunGracefulShutdownCheckpoints(t *testing.T) {
	s := smallServer(t, 37)
	s.checkpointPath = filepath.Join(t.TempDir(), "model.ck")

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		// Port 0 picks a free port; the ticker never fires in-test.
		errCh <- run(ctx, s, "127.0.0.1:0", time.Hour)
	}()
	cancel() // simulate SIGINT/SIGTERM

	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after shutdown signal")
	}
	// The shutdown path must have written the final checkpoint.
	ck, err := core.LoadCheckpointFile(s.checkpointPath)
	if err != nil {
		t.Fatalf("no usable checkpoint after shutdown: %v", err)
	}
	if ck.TrainedAt != s.gen.Load().TrainedAt() || len(ck.Models) != 3 {
		t.Errorf("checkpoint contents: trainedAt=%d models=%d", ck.TrainedAt, len(ck.Models))
	}
}

// TestPredictDuringRetrain serves requests while the cycle loop
// ingests, retrains and swaps the generation underneath them: under
// -race this is the check that a handler shares nothing mutable with
// the swap, and every request must still get its one answer per flow.
func TestPredictDuringRetrain(t *testing.T) {
	s := smallServer(t, 38)
	body := samplePredictBody(t, s)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rr := postTraced(s, "/v1/predict", body, nil)
				var resp serve.Response
				if err := json.Unmarshal(rr.Body.Bytes(), &resp); rr.Code != http.StatusOK || err != nil || len(resp.Results) != 1 {
					t.Errorf("predict during retrain: status %d, err %v, body %s", rr.Code, err, rr.Body)
					return
				}
			}
		}()
	}
	before := s.gen.Load()
	for i := 0; i < 3; i++ {
		s.cycle(1, true)
	}
	close(stop)
	wg.Wait()
	if after := s.gen.Load(); after == before || after.TrainedAt() != before.TrainedAt()+3*24 {
		t.Errorf("generation not swapped: trained at %d, before %d", after.TrainedAt(), before.TrainedAt())
	}
}
