package monitor

import (
	"strings"
	"testing"
)

// TestOnAlarmFiresOncePerTransition drives the join-starvation alarm
// through fire → clear → fire and checks the hook sees exactly the
// two transitions into firing — not one call per breached hour.
func TestOnAlarmFiresOncePerTransition(t *testing.T) {
	cfg := testConfig()
	cfg.StarvationHours = 1
	cfg.FireAfter = 1
	cfg.ClearAfter = 1

	var fired []AlarmStatus
	var m *Monitor
	cfg.OnAlarm = func(st AlarmStatus) {
		// The hook runs outside the monitor's lock: reading the
		// monitor back must not deadlock (tipsyd's bundle writer
		// snapshots Quality from exactly this position).
		_ = m.Quality()
		fired = append(fired, st)
	}
	m, _ = newTestMonitor(cfg)

	// Outstanding prediction, no truth: starvation breaches once
	// head-lastJoin exceeds StarvationHours.
	m.RecordPrediction(0, flowN(1), "ensemble", predict(7))
	advance(m, 4)

	if len(fired) != 1 {
		t.Fatalf("hook calls after starvation = %d, want 1: %+v", len(fired), fired)
	}
	st := fired[0]
	if st.Name != AlarmJoinStarvation || !st.Firing {
		t.Fatalf("fired %+v, want firing join_starvation", st)
	}
	if !strings.Contains(st.Reason, "predictions outstanding") {
		t.Errorf("reason %q", st.Reason)
	}
	if !m.AlarmFiring(AlarmJoinStarvation) {
		t.Fatal("alarm not firing after hook delivery")
	}

	// A join clears it; going dark again re-fires, and the hook sees
	// the second transition as a fresh call.
	advance(m, 6, feed(m, flowN(1), 4, 5, 7, 7, 100))
	if m.AlarmFiring(AlarmJoinStarvation) {
		t.Fatal("alarm still firing after a join")
	}
	m.RecordPrediction(6, flowN(2), "ensemble", predict(8))
	advance(m, 10)
	if len(fired) != 2 {
		t.Fatalf("hook calls after re-fire = %d, want 2: %+v", len(fired), fired)
	}
	if fired[1].Since <= fired[0].Since {
		t.Errorf("second firing Since %d not after first %d", fired[1].Since, fired[0].Since)
	}
}

// TestOnAlarmNilHookSafe: alarms still transition with no hook set.
func TestOnAlarmNilHookSafe(t *testing.T) {
	cfg := testConfig()
	cfg.StarvationHours = 1
	cfg.FireAfter = 1
	m, _ := newTestMonitor(cfg)
	m.RecordPrediction(0, flowN(1), "ensemble", predict(7))
	advance(m, 4)
	if !m.AlarmFiring(AlarmJoinStarvation) {
		t.Fatal("starvation alarm did not fire without a hook")
	}
}
