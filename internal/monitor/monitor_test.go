package monitor

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tipsy/internal/bgp"
	"tipsy/internal/core"
	"tipsy/internal/eval"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/obsv"
	"tipsy/internal/wan"
)

// testConfig is a tight geometry that makes every transition cheap to
// drive: 4-hour window, 1-group sample floor, 2/2 hysteresis.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.WindowHours = 4
	cfg.JoinHorizonHours = 24
	cfg.MinGroups = 1
	cfg.AccuracyFloor = 0.6
	cfg.DriftThreshold = 0.15
	cfg.CollapseDrop = 0.2
	cfg.StarvationHours = 3
	cfg.FireAfter = 2
	cfg.ClearAfter = 2
	return cfg
}

func newTestMonitor(cfg Config) (*Monitor, *obsv.Registry) {
	reg := obsv.NewRegistry()
	return New(cfg, reg), reg
}

func flowN(i int) features.FlowFeatures {
	return features.FlowFeatures{AS: bgp.ASN(100 + i), Region: 1, Type: 1}
}

func predict(l wan.LinkID) []core.Prediction {
	return []core.Prediction{{Link: l, Frac: 1}}
}

// feed records a prediction at madeAt and returns truth for it at
// hour h on the given link — a correct join when the truth link
// matches the predicted one.
func feed(m *Monitor, f features.FlowFeatures, madeAt, h wan.Hour, predicted, actual wan.LinkID, bytes float64) features.Record {
	m.RecordPrediction(madeAt, f, "ensemble", predict(predicted))
	return features.Record{Hour: h, Flow: f, Link: actual, Bytes: bytes}
}

// advance hands truth to AdvanceTo in drain order, as a drain would.
func advance(m *Monitor, h wan.Hour, truth ...features.Record) {
	truth = slices.Clone(truth)
	slices.SortFunc(truth, features.Record.Compare)
	m.AdvanceTo(h, truth)
}

func TestJoinScoresAccuracy(t *testing.T) {
	m, _ := newTestMonitor(testConfig())
	// A correct prediction and a wrong one in the same hour.
	advance(m, 2,
		feed(m, flowN(1), 0, 1, 7, 7, 100), // credit 100
		feed(m, flowN(2), 0, 1, 8, 9, 300), // credit 0
	)

	q := m.Quality()
	if q.Hour != 1 || q.Window.Groups != 2 {
		t.Fatalf("window: %+v", q.Window)
	}
	if q.Window.Bytes != 400 {
		t.Errorf("window bytes = %v, want 400", q.Window.Bytes)
	}
	if want := 0.25; q.Window.Top1 != want || q.Window.Top3 != want {
		t.Errorf("accuracy top1=%v top3=%v, want %v", q.Window.Top1, q.Window.Top3, want)
	}
}

func TestJoinHonoursHorizonAndOrdering(t *testing.T) {
	m, reg := newTestMonitor(testConfig())
	f := flowN(1)
	m.RecordPrediction(5, f, "ensemble", predict(7))

	advance(m, 5+26,
		// Truth before the prediction hour must not join (the model
		// trained through it), and the prediction hour itself, the
		// first the model has not seen, must...
		features.Record{Hour: 4, Flow: f, Link: 7, Bytes: 10},
		features.Record{Hour: 5, Flow: f, Link: 7, Bytes: 10},
		// ...as must the horizon's last hour, but not the one past it...
		features.Record{Hour: 5 + 23, Flow: f, Link: 7, Bytes: 10},
		features.Record{Hour: 5 + 24, Flow: f, Link: 7, Bytes: 10},
		// ...nor truth for a flow never predicted.
		features.Record{Hour: 6, Flow: flowN(9), Link: 7, Bytes: 10},
	)
	if got := reg.Counter("monitor_truth_unmatched_total").Value(); got != 3 {
		t.Errorf("unmatched = %d, want 3", got)
	}
	if got := reg.Counter("monitor_joins_total").Value(); got != 2 {
		t.Errorf("joins = %d, want 2", got)
	}

	// Late truth (hour already closed) is dropped and counted.
	advance(m, 5+26, features.Record{Hour: 6, Flow: f, Link: 7, Bytes: 10})
	if got := reg.Counter("monitor_truth_late_total").Value(); got != 1 {
		t.Errorf("late = %d, want 1", got)
	}
}

// TestWindowEvictionAtRingBoundary drives joins across more hours
// than the window holds and checks the oldest hour falls out of the
// totals exactly when the window slides past it — including the slot
// whose ring index wraps.
func TestWindowEvictionAtRingBoundary(t *testing.T) {
	cfg := testConfig() // WindowHours = 4
	m, _ := newTestMonitor(cfg)

	// Hour 1: a wrong prediction (0 credit). Hours 2-4: correct ones.
	truth := []features.Record{feed(m, flowN(1), 0, 1, 7, 9, 100)}
	for h := wan.Hour(2); h <= 4; h++ {
		truth = append(truth, feed(m, flowN(int(h)), h-1, h, 7, 7, 100))
	}
	advance(m, 5, truth...)
	q := m.Quality()
	// Window covers hours 1-4: 3 of 4 groups correct.
	if q.Window.Groups != 4 || q.Window.Top1 != 0.75 {
		t.Fatalf("pre-eviction window = %+v", q.Window)
	}

	// Hour 5 lands in ring slot 5%4 = 1, the slot hour 1 occupied: the
	// bad hour is evicted both by hour arithmetic and by slot reuse.
	advance(m, 6, feed(m, flowN(5), 4, 5, 7, 7, 100))
	q = m.Quality()
	if q.Window.Groups != 4 || q.Window.Top1 != 1.0 {
		t.Errorf("post-eviction window = %+v, want 4 groups at accuracy 1.0", q.Window)
	}

	// An idle stretch longer than the window empties it: stale slots
	// must not leak old hours back in.
	advance(m, 20)
	q = m.Quality()
	if q.Window.Groups != 0 {
		t.Errorf("idle window still holds %d groups", q.Window.Groups)
	}
}

// TestAlarmHysteresis pins the fire → hold → clear contract: two
// breached hours to fire, a single clean hour does not clear, two
// consecutive clean hours do.
func TestAlarmHysteresis(t *testing.T) {
	cfg := testConfig()
	cfg.WindowHours = 1 // each hour stands alone: precise control
	m, _ := newTestMonitor(cfg)

	bad := func(h wan.Hour) features.Record { return feed(m, flowN(int(h)), h-1, h, 7, 9, 100) }
	good := func(h wan.Hour) features.Record { return feed(m, flowN(int(h)), h-1, h, 7, 7, 100) }

	advance(m, 2, bad(1))
	if m.AlarmFiring(AlarmAccuracyFloor) {
		t.Fatal("alarm fired after a single breached hour (FireAfter=2)")
	}
	advance(m, 3, bad(2))
	if !m.AlarmFiring(AlarmAccuracyFloor) {
		t.Fatal("alarm did not fire after two breached hours")
	}
	advance(m, 4, good(3))
	if !m.AlarmFiring(AlarmAccuracyFloor) {
		t.Fatal("alarm cleared after a single clean hour (ClearAfter=2)")
	}
	advance(m, 5, bad(4)) // breach again: the clear streak must reset
	good2 := func(h wan.Hour) features.Record { return feed(m, flowN(1000+int(h)), h-1, h, 7, 7, 100) }
	advance(m, 7, good(5), good2(6))
	if m.AlarmFiring(AlarmAccuracyFloor) {
		t.Fatal("alarm still firing after two consecutive clean hours")
	}

	// The gauge tracks the state machine.
	if got, _ := m.Degraded(); got {
		t.Error("Degraded after alarm cleared")
	}
}

func TestDriftAndPostWithdrawalLifecycle(t *testing.T) {
	cfg := testConfig()
	cfg.MinGroups = 2
	m, reg := newTestMonitor(cfg)

	// Healthy hours 1-2 build the window; freeze the baseline (the
	// "last retrain" snapshot).
	var truth []features.Record
	for h := wan.Hour(1); h <= 2; h++ {
		truth = append(truth,
			feed(m, flowN(int(h)), h-1, h, 7, 7, 100),
			feed(m, flowN(100+int(h)), h-1, h, 8, 8, 100))
	}
	advance(m, 3, truth...)
	m.FreezeBaseline(3)
	if q := m.Quality(); q.BaselineAt != 3 || q.Baseline.Top3 != 1.0 {
		t.Fatalf("baseline: %+v at %d", q.Baseline, q.BaselineAt)
	}

	// A withdrawal shifts traffic; the stale model keeps predicting
	// the old links, so joins after it collapse.
	m.NoteWithdrawal(3)
	truth = nil
	for h := wan.Hour(4); h <= 5; h++ {
		truth = append(truth,
			feed(m, flowN(int(h)), h-1, h, 7, 9, 100),
			feed(m, flowN(100+int(h)), h-1, h, 8, 9, 100))
	}
	advance(m, 6, truth...)
	if !m.AlarmFiring(AlarmPostWithdrawal) {
		t.Fatal("post-withdrawal alarm not firing after collapse")
	}
	if !m.AlarmFiring(AlarmDrift) {
		t.Fatal("drift alarm not firing after collapse")
	}
	if v := reg.Gauge("monitor_alarm_post_withdrawal").Value(); v != 1 {
		t.Errorf("post_withdrawal gauge = %d, want 1", v)
	}
	if deg, reason := m.Degraded(); !deg || reason == "" {
		t.Errorf("Degraded = %v %q during collapse", deg, reason)
	}

	// Retrain: baseline refreezes on the collapsed window and the
	// withdrawal watch disarms; healthy joins then clear everything.
	m.FreezeBaseline(6)
	if q := m.Quality(); q.WithdrawalAt != -1 {
		t.Errorf("withdrawal watch still armed after retrain: %d", q.WithdrawalAt)
	}
	truth = nil
	for h := wan.Hour(6); h <= 9; h++ {
		truth = append(truth,
			feed(m, flowN(int(h)), h-1, h, 7, 7, 100),
			feed(m, flowN(100+int(h)), h-1, h, 8, 8, 100))
	}
	advance(m, 10, truth...)
	for _, name := range []string{AlarmPostWithdrawal, AlarmDrift, AlarmAccuracyFloor} {
		if m.AlarmFiring(name) {
			t.Errorf("alarm %s still firing after recovery", name)
		}
	}
}

func TestJoinStarvation(t *testing.T) {
	cfg := testConfig()
	cfg.JoinHorizonHours = 100 // keep the prediction outstanding
	m, _ := newTestMonitor(cfg)

	m.RecordPrediction(0, flowN(1), "ensemble", predict(7))
	// StarvationHours=3, FireAfter=2: hours 4 and 5 breach.
	advance(m, 6)
	if !m.AlarmFiring(AlarmJoinStarvation) {
		t.Fatal("starvation alarm not firing with truth feed dark")
	}
	// Starvation alone must not mark serving degraded.
	if deg, _ := m.Degraded(); deg {
		t.Error("starvation marked serving degraded")
	}

	// Truth resumes: joins flow again and the alarm clears.
	var truth []features.Record
	for h := wan.Hour(6); h <= 8; h++ {
		truth = append(truth, feed(m, flowN(int(h)), h-1, h, 7, 7, 50))
	}
	advance(m, 9, truth...)
	if m.AlarmFiring(AlarmJoinStarvation) {
		t.Error("starvation alarm still firing after joins resumed")
	}
}

func TestSlicesAndRungAttribution(t *testing.T) {
	cfg := testConfig()
	cfg.LinkMeta = func(l wan.LinkID) (geo.MetroID, string) {
		if l < 10 {
			return 1, "tier1"
		}
		return 2, "access"
	}
	m, _ := newTestMonitor(cfg)

	m.RecordPrediction(0, flowN(1), "ensemble", predict(7))
	m.RecordPrediction(0, flowN(2), "geo", predict(12))
	advance(m, 2,
		features.Record{Hour: 1, Flow: flowN(1), Link: 7, Bytes: 100},
		features.Record{Hour: 1, Flow: flowN(2), Link: 12, Bytes: 50},
		features.Record{Hour: 1, Flow: flowN(2), Link: 13, Bytes: 10})

	q := m.Quality()
	if len(q.ByRung) != 2 || q.ByRung[0].Key != "ensemble" || q.ByRung[1].Key != "geo" {
		t.Fatalf("by_rung: %+v", q.ByRung)
	}
	if q.ByRung[0].Top1 != 1.0 {
		t.Errorf("ensemble rung top1 = %v", q.ByRung[0].Top1)
	}
	// flow 2's dominant link is 12 -> metro 2 / access.
	if len(q.ByMetro) != 2 || q.ByMetro[0].Key != "metro_1" || q.ByMetro[1].Key != "metro_2" {
		t.Fatalf("by_metro: %+v", q.ByMetro)
	}
	if q.ByMetro[1].Bytes != 60 {
		t.Errorf("metro_2 bytes = %v, want 60", q.ByMetro[1].Bytes)
	}
	if len(q.ByPeerKind) != 2 || q.ByPeerKind[0].Key != "access" || q.ByPeerKind[1].Key != "tier1" {
		t.Fatalf("by_peer_kind: %+v", q.ByPeerKind)
	}
}

func TestEmptyPredictionIsAMiss(t *testing.T) {
	m, _ := newTestMonitor(testConfig())
	m.RecordPrediction(0, flowN(1), "none", nil)
	advance(m, 2, features.Record{Hour: 1, Flow: flowN(1), Link: 7, Bytes: 100})
	q := m.Quality()
	if q.Window.Groups != 1 || q.Window.Top3 != 0 {
		t.Errorf("unanswered flow must score 0: %+v", q.Window)
	}
	if len(q.ByRung) != 1 || q.ByRung[0].Key != "none" {
		t.Errorf("by_rung: %+v", q.ByRung)
	}
}

func TestPredictionExpiry(t *testing.T) {
	cfg := testConfig()
	cfg.JoinHorizonHours = 2
	m, reg := newTestMonitor(cfg)
	m.RecordPrediction(0, flowN(1), "ensemble", predict(7))
	advance(m, 4) // horizon 0+2 < 3: evicted while closing hour 3
	if got := reg.Counter("monitor_predictions_expired_total").Value(); got != 1 {
		t.Errorf("expired = %d, want 1", got)
	}
	if q := m.Quality(); q.PendingPredictions != 0 {
		t.Errorf("pending = %d after expiry", q.PendingPredictions)
	}
}

// TestExpiryEvictsLikeAScan drives a random script of predictions,
// re-recorded flows, predictions made behind or ahead of the clock and
// truth, and holds the monitor's pending set and expired counter equal
// after every advance to a scan of every pending prediction at every
// closed hour.
func TestExpiryEvictsLikeAScan(t *testing.T) {
	cfg := testConfig()
	cfg.JoinHorizonHours = 3
	m, reg := newTestMonitor(cfg)
	type ref struct {
		madeAt wan.Hour
		joined bool
	}
	want, expired := map[features.FlowFeatures]ref{}, uint64(0)
	rng := rand.New(rand.NewSource(1))
	head := wan.Hour(0)
	for step := range 400 {
		if rng.Intn(3) > 0 {
			f, h := flowN(rng.Intn(12)), max(head+wan.Hour(rng.Intn(11)-5), 0)
			m.RecordPrediction(h, f, "ensemble", predict(1))
			want[f] = ref{madeAt: h}
			continue
		}
		to := head + wan.Hour(1+rng.Intn(3))
		var truth []features.Record
		for h := head; h < to; h++ {
			for range rng.Intn(4) {
				truth = append(truth, features.Record{Hour: h, Flow: flowN(rng.Intn(12)), Link: 1, Bytes: 1})
			}
		}
		advance(m, to, truth...)
		for ; head < to; head++ {
			for _, r := range truth {
				if p, ok := want[r.Flow]; ok && r.Hour == head && head >= p.madeAt && head < p.madeAt+3 {
					p.joined = true
					want[r.Flow] = p
				}
			}
			for f, p := range want {
				if head >= p.madeAt+3 {
					delete(want, f)
					if !p.joined {
						expired++
					}
				}
			}
		}
		got := map[features.FlowFeatures]ref{}
		for f, p := range m.pending {
			got[f] = ref{p.madeAt, p.joined}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d, hour %d: pending %v, a scan keeps %v", step, head, got, want)
		}
		if n := reg.Counter("monitor_predictions_expired_total").Value(); n != expired {
			t.Fatalf("step %d, hour %d: %d expired, a scan counts %d", step, head, n, expired)
		}
		if n := m.Quality().PendingPredictions; n != len(want) {
			t.Fatalf("step %d, hour %d: %d pending reported, want %d", step, head, n, len(want))
		}
	}
}

// TestQualityReportDeterministic runs the same scripted history twice
// and requires byte-identical JSON — the property the golden endpoint
// test and the bench trajectory lean on.
func TestQualityReportDeterministic(t *testing.T) {
	script := func() []byte {
		cfg := testConfig()
		cfg.LinkMeta = func(l wan.LinkID) (geo.MetroID, string) { return geo.MetroID(l % 3), "kind" }
		m, _ := newTestMonitor(cfg)
		for h := wan.Hour(1); h <= 6; h++ {
			var truth []features.Record
			for i := 0; i < 5; i++ {
				actual := wan.LinkID(7 + i%2)
				truth = append(truth, feed(m, flowN(i), h-1, h, 7, actual, float64(50+10*i)))
			}
			advance(m, h+1, truth...)
			if h == 3 {
				m.FreezeBaseline(h)
				m.NoteWithdrawal(h)
			}
		}
		buf, err := json.Marshal(m.Quality())
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := script(), script()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-script reports differ:\n%s\n---\n%s", a, b)
	}
}

// TestTruthPastTheAdvanceIsUnmatched: AdvanceTo keeps nothing for
// later. A record at or past h is counted unmatched and dropped, and
// the same record handed over again with the hour it belongs to joins.
func TestTruthPastTheAdvanceIsUnmatched(t *testing.T) {
	m, reg := newTestMonitor(testConfig())
	m.RecordPrediction(0, flowN(1), "ensemble", predict(7))
	early := features.Record{Hour: 2, Flow: flowN(1), Link: 7, Bytes: 10}
	advance(m, 2, features.Record{Hour: 1, Flow: flowN(1), Link: 7, Bytes: 10}, early)
	joins, unmatched := reg.Counter("monitor_joins_total"), reg.Counter("monitor_truth_unmatched_total")
	if joins.Value() != 1 || unmatched.Value() != 1 {
		t.Errorf("joins = %d, unmatched = %d, want 1 and 1", joins.Value(), unmatched.Value())
	}
	advance(m, 3, early)
	if joins.Value() != 2 || unmatched.Value() != 1 {
		t.Errorf("after resending: joins = %d, unmatched = %d, want 2 and 1", joins.Value(), unmatched.Value())
	}
	if got := reg.Counter("monitor_truth_records_total").Value(); got != 3 {
		t.Errorf("truth records = %d, want 3", got)
	}
}

// TestGradesOnlyTheTopThree: a prediction list longer than three is
// graded on its first three entries, the most credit top-3 can give.
func TestGradesOnlyTheTopThree(t *testing.T) {
	m, _ := newTestMonitor(testConfig())
	preds := []core.Prediction{{Link: 1, Frac: 0.4}, {Link: 2, Frac: 0.3}, {Link: 3, Frac: 0.2}, {Link: 4, Frac: 0.1}}
	m.RecordPrediction(0, flowN(1), "ensemble", preds)
	advance(m, 2,
		features.Record{Hour: 1, Flow: flowN(1), Link: 1, Bytes: 40},
		features.Record{Hour: 1, Flow: flowN(1), Link: 4, Bytes: 60})
	if q := m.Quality(); q.Window.Top1 != 0.4 || q.Window.Top3 != 0.4 {
		t.Errorf("top1 = %v, top3 = %v, want 0.4 and 0.4", q.Window.Top1, q.Window.Top3)
	}
}

// TestRecordPredictionAllocs pins a served flow's prediction replacing
// its older one: the monitor keeps it by value in the map slot the
// flow already has.
func TestRecordPredictionAllocs(t *testing.T) {
	const recordPredictionAllocs = 0
	m, _ := newTestMonitor(testConfig())
	preds := []core.Prediction{{Link: 7, Frac: 0.5}, {Link: 8, Frac: 0.3}, {Link: 9, Frac: 0.2}}
	m.RecordPrediction(0, flowN(1), "ensemble", preds)
	got := testing.AllocsPerRun(100, func() { m.RecordPrediction(1, flowN(1), "ensemble", preds) })
	if got != recordPredictionAllocs {
		t.Errorf("RecordPrediction on a known flow allocates %v times, want %d", got, recordPredictionAllocs)
	}
}

// TestBuildGroupsAllocs pins the grouping each closing hour goes
// through: its allocations do not grow with the groups, whose links
// and hours are cut from one array each.
func TestBuildGroupsAllocs(t *testing.T) {
	const groups, maxAllocsPerGroup = 4096, 0.05
	var hour []features.Record
	for i := range groups {
		for _, l := range []wan.LinkID{wan.LinkID(1 + i%7), wan.LinkID(8 + i%5)} {
			hour = append(hour, features.Record{Hour: 3, Flow: flowN(i), Link: l, Bytes: float64(100 + i)})
		}
	}
	slices.SortFunc(hour, features.Record.Compare)
	got := testing.AllocsPerRun(10, func() {
		if n := len(eval.BuildGroups(hour, eval.Options{})); n != groups {
			t.Fatalf("%d groups, want %d", n, groups)
		}
	})
	if got/groups >= maxAllocsPerGroup {
		t.Errorf("BuildGroups allocates %v times for %d groups, %.3f per group; want under %v", got, groups, got/groups, maxAllocsPerGroup)
	}
}
