package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tipsy/internal/core"
	"tipsy/internal/features"
	"tipsy/internal/monitor"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// withdrawTopPredicted withdraws each workload flow's anycast prefix
// from the model's top two predicted links — the congestion
// mitigation system's bulk traffic shift, the event the paper shows
// collapsing prediction accuracy until the next retrain.
func withdrawTopPredicted(s *server) {
	w := s.sim.Workload()
	for i := range w.Flows {
		f := &w.Flows[i]
		ff := features.FlowFeatures{
			AS: f.SrcAS, Prefix: f.SrcPrefix,
			Loc:    s.sim.GeoIP().Lookup(f.SrcPrefix),
			Region: f.DstRegion, Type: f.DstType,
		}
		for j, p := range s.gen.Load().Predict(core.Query{Flow: ff, K: 3}) {
			if j >= 2 {
				break // leave each flow an ingress path
			}
			s.sim.Withdraw(p.Link, s.sim.FlowPrefix(f))
		}
	}
}

// runQualityScenario drives the daemon through the withdrawal
// lifecycle — bootstrap, healthy graded day, mass withdrawal under a
// stale model, re-announce + retrain — invoking check at each named
// stage. Every step is a pure function of the seed.
func runQualityScenario(t *testing.T, seed int64, check func(stage string, s *server)) *server {
	t.Helper()
	mcfg := monitor.DefaultConfig()
	mcfg.WindowHours = 24
	mcfg.JoinHorizonHours = 24
	mcfg.MinGroups = 10
	mcfg.FireAfter = 2
	mcfg.ClearAfter = 2
	s := newServer(seed, 4, mcfg)
	s.advanceDays(4, nil)
	s.retrain(nil)

	// A healthy day of joins establishes the baseline at retrain.
	s.advanceDays(1, nil)
	s.retrain(nil)
	if check != nil {
		check("healthy", s)
	}

	// The withdrawal lands mid-interval: the serving model goes stale
	// against the shifted traffic for a full day.
	withdrawTopPredicted(s)
	s.mon.NoteWithdrawal(s.simHour())
	s.advanceDays(1, nil)
	if check != nil {
		check("collapsed", s)
	}

	// Mitigation ends: prefixes re-announced, model retrained (the
	// daemon's alarm response), and a day of joins under the fresh
	// model clears the alarms.
	for _, wd := range s.sim.Withdrawals() {
		s.sim.Announce(wd.Link, wd.Prefix)
	}
	s.retrain(nil)
	s.advanceDays(1, nil)
	if check != nil {
		check("recovered", s)
	}
	return s
}

func qualityReport(t *testing.T, s *server) monitor.QualityReport {
	t.Helper()
	rr := get(t, s, "/debug/quality")
	if rr.Code != http.StatusOK {
		t.Fatalf("/debug/quality status %d", rr.Code)
	}
	var q monitor.QualityReport
	if err := json.Unmarshal(rr.Body.Bytes(), &q); err != nil {
		t.Fatalf("/debug/quality not JSON: %v\n%s", err, rr.Body)
	}
	return q
}

func alarmFiring(q monitor.QualityReport, name string) bool {
	for _, a := range q.Alarms {
		if a.Name == name {
			return a.Firing
		}
	}
	return false
}

// TestQualityScenarioHTTP is the acceptance scenario over the HTTP
// surface: the post-withdrawal collapse fires alarms visible on
// /debug/quality and /metrics and degrades /healthz, and recovery
// clears all three.
func TestQualityScenarioHTTP(t *testing.T) {
	runQualityScenario(t, 17, func(stage string, s *server) {
		q := qualityReport(t, s)
		metrics := get(t, s, "/metrics").Body.String()
		hrr := get(t, s, "/healthz")
		var health map[string]any
		if err := json.Unmarshal(hrr.Body.Bytes(), &health); err != nil {
			t.Fatalf("%s: healthz not JSON: %v", stage, err)
		}

		switch stage {
		case "healthy":
			if q.Window.Groups < 10 {
				t.Fatalf("healthy: only %d joined groups", q.Window.Groups)
			}
			if q.Baseline.Top3 < 0.5 {
				t.Fatalf("healthy: baseline top3 %.3f too weak", q.Baseline.Top3)
			}
			for _, a := range q.Alarms {
				if a.Firing {
					t.Errorf("healthy: alarm %s firing", a.Name)
				}
			}
			if hrr.Code != http.StatusOK || health["quality_degraded"] != false {
				t.Errorf("healthy: healthz %d quality_degraded=%v", hrr.Code, health["quality_degraded"])
			}

		case "collapsed":
			if !alarmFiring(q, monitor.AlarmPostWithdrawal) {
				t.Errorf("collapsed: post_withdrawal not firing on /debug/quality: %+v", q.Alarms)
			}
			if q.PostWithdrawal.Top3 >= q.Baseline.Top3-0.2 {
				t.Errorf("collapsed: post top3 %.3f vs baseline %.3f: no collapse",
					q.PostWithdrawal.Top3, q.Baseline.Top3)
			}
			if v := metricValue(t, metrics, "monitor_alarm_post_withdrawal"); v != 1 {
				t.Errorf("collapsed: monitor_alarm_post_withdrawal = %d on /metrics", v)
			}
			if hrr.Code != http.StatusServiceUnavailable {
				t.Errorf("collapsed: healthz %d, want 503", hrr.Code)
			}
			if health["quality_degraded"] != true {
				t.Errorf("collapsed: quality_degraded = %v", health["quality_degraded"])
			}
			if reason, _ := health["reason"].(string); !strings.Contains(reason, "prediction quality") {
				t.Errorf("collapsed: healthz reason %q lacks quality annotation", reason)
			}

		case "recovered":
			for _, a := range q.Alarms {
				if a.Firing {
					t.Errorf("recovered: alarm %s still firing (%s)", a.Name, a.Reason)
				}
			}
			if q.WithdrawalAt != -1 {
				t.Errorf("recovered: withdrawal watch still armed at hour %d", q.WithdrawalAt)
			}
			if v := metricValue(t, metrics, "monitor_alarm_post_withdrawal"); v != 0 {
				t.Errorf("recovered: monitor_alarm_post_withdrawal = %d on /metrics", v)
			}
			if hrr.Code != http.StatusOK {
				t.Errorf("recovered: healthz %d: %s", hrr.Code, hrr.Body)
			}
		}
	})
}

// TestQualityScenarioDeterministic runs the same seeded scenario
// twice and requires byte-identical /debug/quality payloads, then
// pins the payload against the golden file.
func TestQualityScenarioDeterministic(t *testing.T) {
	body := func() []byte {
		s := runQualityScenario(t, 17, nil)
		return get(t, s, "/debug/quality").Body.Bytes()
	}
	a, b := body(), body()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed scenarios produced different /debug/quality:\n%s\n---\n%s", a, b)
	}

	goldenPath := filepath.Join("testdata", "quality.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, a, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, want) {
		t.Errorf("/debug/quality diverged from golden (run with -update to refresh):\n--- want\n%s--- got\n%s", want, a)
	}
}
