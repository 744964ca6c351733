// Package monitor is TIPSY's online prediction-quality subsystem: it
// joins the predictions the serving daemon hands out against the
// ground truth later telemetry reveals (the aggregation pipeline's
// drain says where every flow aggregate actually ingressed, and
// AdvanceTo takes that drain whole), keeps deterministic sliding windows
// of top-1/top-3 byte-weighted accuracy sliced by metro, peer kind,
// and fallback-ladder rung, scores drift against a baseline frozen at
// the last retrain, and raises hysteresis alarms for the failure
// modes the paper documents: accuracy collapse after prefix
// withdrawals, slow routing-policy drift, and a broken telemetry
// feedback loop.
//
// The monitor is clocked entirely by simulated hours (wan.Hour) fed
// through AdvanceTo — never the wall clock — so seeded runs produce
// byte-identical quality reports. It groups each closing hour with
// eval.BuildGroups and credits each group with eval.CreditBytes, the
// grouping and arithmetic the offline harness uses, so its unit is
// the (hour, flow); tipsyd's TestMonitorGradesLikeEval holds its
// hourly score equal to eval.Accuracy on the same hour.
package monitor

import (
	"fmt"
	"sync"

	"tipsy/internal/core"
	"tipsy/internal/eval"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/obsv"
	"tipsy/internal/wan"
)

// Config holds the monitor's thresholds and window geometry.
type Config struct {
	// WindowHours is the sliding accuracy window length.
	WindowHours int
	// JoinHorizonHours is how long a recorded prediction remains
	// joinable against incoming truth; past it the prediction is
	// evicted (and counted if it never joined).
	JoinHorizonHours int
	// MinGroups is the minimum number of joined groups a window (or
	// baseline) needs before accuracy alarms may evaluate — below it
	// the sample is too thin to alarm on.
	MinGroups int64
	// AccuracyFloor is the top-3 accuracy below which the window is
	// alarmed (the small env trains to ~0.89 top-3).
	AccuracyFloor float64
	// DriftThreshold is how far window top-3 accuracy may sink below
	// the frozen baseline before the drift alarm breaches.
	DriftThreshold float64
	// CollapseDrop is how far post-withdrawal top-3 accuracy may sink
	// below the baseline before the post-withdrawal alarm breaches.
	CollapseDrop float64
	// StarvationHours is how many hours may pass without a single
	// truth join, while predictions are outstanding, before the
	// starvation alarm breaches.
	StarvationHours int
	// FireAfter/ClearAfter are the alarm hysteresis: consecutive
	// breached evaluations to fire, consecutive clear ones to clear.
	FireAfter, ClearAfter int
	// LinkMeta, when set, resolves a link to its landing metro and
	// peer kind for the per-slice windows. Nil disables those slices.
	LinkMeta func(wan.LinkID) (geo.MetroID, string)
	// OnAlarm, when set, is invoked once per alarm transition into the
	// firing state, from the AdvanceTo caller's goroutine after the
	// monitor's lock is released — so the hook may call Quality,
	// AlarmFiring, or anything else on the monitor. tipsyd uses it to
	// write diagnostic bundles.
	OnAlarm func(AlarmStatus)
}

// DefaultConfig returns thresholds calibrated for the small simulated
// environment (top-3 accuracy ~0.89 when healthy).
func DefaultConfig() Config {
	return Config{
		WindowHours:      48,
		JoinHorizonHours: 24,
		MinGroups:        20,
		AccuracyFloor:    0.60,
		DriftThreshold:   0.15,
		CollapseDrop:     0.20,
		StarvationHours:  6,
		FireAfter:        2,
		ClearAfter:       2,
	}
}

// gradedK is the deepest top-k the monitor grades: credit is read at
// k=1 and k=3 only.
const gradedK = 3

// pending is one served prediction awaiting ground truth. A prediction
// list is ordered by fraction, so its first gradedK entries are all
// that grading reads.
type pending struct {
	madeAt wan.Hour
	rung   string
	preds  [gradedK]core.Prediction
	n      int // how many of preds hold a prediction
	joined bool
}

// expiry is one recorded prediction, named by its flow and the hour it
// was made.
type expiry struct {
	flow   features.FlowFeatures
	madeAt wan.Hour
}

// metrics are the monitor's registry-backed series.
type metrics struct {
	predictions *obsv.Counter
	truthRecs   *obsv.Counter
	truthLate   *obsv.Counter
	unmatched   *obsv.Counter
	joins       *obsv.Counter
	expired     *obsv.Counter
	transitions *obsv.Counter

	top1     *obsv.Gauge
	top3     *obsv.Gauge
	drift    *obsv.Gauge
	pendingG *obsv.Gauge
	alarms   map[string]*obsv.Gauge
}

func newMetrics(reg *obsv.Registry) metrics {
	m := metrics{
		predictions: reg.Counter("monitor_predictions_total"),
		truthRecs:   reg.Counter("monitor_truth_records_total"),
		truthLate:   reg.Counter("monitor_truth_late_total"),
		unmatched:   reg.Counter("monitor_truth_unmatched_total"),
		joins:       reg.Counter("monitor_joins_total"),
		expired:     reg.Counter("monitor_predictions_expired_total"),
		transitions: reg.Counter("monitor_alarm_transitions_total"),
		top1:        reg.Gauge("monitor_window_top1_permille"),
		top3:        reg.Gauge("monitor_window_top3_permille"),
		drift:       reg.Gauge("monitor_drift_permille"),
		pendingG:    reg.Gauge("monitor_pending_predictions"),
		alarms:      make(map[string]*obsv.Gauge, 4),
	}
	for _, name := range alarmNames {
		m.alarms[name] = reg.Gauge("monitor_alarm_" + name)
	}
	return m
}

var alarmNames = []string{
	AlarmAccuracyFloor, AlarmDrift, AlarmPostWithdrawal, AlarmJoinStarvation,
}

// Monitor is the online quality evaluator. Safe for concurrent use;
// all state advances deterministically with the simulated clock.
type Monitor struct {
	// lock-free: set in New and read-only afterwards; AdvanceTo
	// reads cfg.OnAlarm outside mu by design so the hook can lock
	// the monitor back
	cfg Config

	mu sync.Mutex
	// lock-free: set in New; the registry's metrics synchronize themselves
	met metrics
	// guarded by mu
	head wan.Hour // next hour to close; all hours below are final

	// guarded by mu
	pending map[features.FlowFeatures]pending
	// expiring lists each pending prediction, once per (flow, madeAt),
	// under the hour whose close evicts it; an entry whose flow was
	// recorded at another hour since is stale, and skipped.
	// guarded by mu
	expiring map[wan.Hour][]expiry
	// guarded by mu
	ring []bucket

	// guarded by mu
	baseline totals
	// guarded by mu
	baselineAt wan.Hour
	// guarded by mu
	hasBaseline bool
	// guarded by mu
	lastJoin wan.Hour // last hour that joined any group
	// guarded by mu
	sawActivity bool // a prediction was ever recorded
	// guarded by mu
	withdrawalAt wan.Hour // -1 when the post-withdrawal watch is disarmed
	// guarded by mu
	post cell // joined quality since withdrawalAt

	// guarded by mu
	alarmList []*alarm
	// guarded by mu
	alarmByN map[string]*alarm
	// fired queues newly-firing alarm statuses under mu; AdvanceTo
	// drains it to cfg.OnAlarm after unlocking.
	// guarded by mu
	fired []AlarmStatus
}

// New builds a monitor publishing its gauges and counters on reg.
func New(cfg Config, reg *obsv.Registry) *Monitor {
	if cfg.WindowHours <= 0 {
		cfg.WindowHours = DefaultConfig().WindowHours
	}
	if cfg.JoinHorizonHours <= 0 {
		cfg.JoinHorizonHours = DefaultConfig().JoinHorizonHours
	}
	if cfg.FireAfter <= 0 {
		cfg.FireAfter = 1
	}
	if cfg.ClearAfter <= 0 {
		cfg.ClearAfter = 1
	}
	m := &Monitor{
		cfg:          cfg,
		met:          newMetrics(reg),
		pending:      make(map[features.FlowFeatures]pending),
		expiring:     make(map[wan.Hour][]expiry),
		ring:         make([]bucket, cfg.WindowHours),
		withdrawalAt: -1,
		alarmByN:     make(map[string]*alarm, 4),
	}
	for i := range m.ring {
		m.ring[i].hour = -1
	}
	for _, name := range alarmNames {
		a := &alarm{name: name, fireAfter: cfg.FireAfter, clearAfter: cfg.ClearAfter}
		m.alarmList = append(m.alarmList, a)
		m.alarmByN[name] = a
	}
	return m
}

// RecordPrediction registers a prediction served at simulated hour h
// for the given flow by the named fallback-ladder rung. An empty
// prediction list is recorded too: a flow the ladder could not answer
// that then carries traffic is a quality miss, not a non-event. A
// newer prediction for the same flow replaces the older one. Only the
// first gradedK predictions are kept.
func (m *Monitor) RecordPrediction(h wan.Hour, flow features.FlowFeatures, rung string, preds []core.Prediction) {
	p := pending{madeAt: h, rung: rung}
	p.n = copy(p.preds[:], preds)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.met.predictions.Inc()
	if !m.sawActivity {
		m.sawActivity = true
		m.lastJoin = h // starvation counts from the first prediction
	}
	if old, ok := m.pending[flow]; !ok || old.madeAt != h {
		// Evicted when the first hour at or past its horizon closes. A
		// pending prediction made at h is listed there already.
		at := max(h+wan.Hour(m.cfg.JoinHorizonHours), m.head)
		m.expiring[at] = append(m.expiring[at], expiry{flow, h})
	}
	m.pending[flow] = p
	m.met.pendingG.Set(int64(len(m.pending)))
}

// AdvanceTo hands the monitor the ground truth for the hours below h
// and closes every hour from head up to h, in order. truth must be in
// drain order (features.Record.Compare: hour, flow, link), as
// pipeline.Aggregator.Records returns it. Each closed hour takes the
// lock once: its records are joined flow by flow against the
// outstanding predictions and scored, then predictions past their join
// horizon are evicted, windows and gauges updated, and alarms
// evaluated.
//
// A record joins a prediction when it falls inside the prediction's
// join horizon: from the hour the prediction was made — the first the
// model has not trained on — for JoinHorizonHours hours. A record for
// an hour already closed is late; any other record that joins nothing,
// one at or past h included, is unmatched.
func (m *Monitor) AdvanceTo(h wan.Hour, truth []features.Record) {
	m.met.truthRecs.Add(uint64(len(truth)))
	var fired []AlarmStatus
	for done := false; !done; {
		truth, fired, done = m.closeNext(h, truth)
	}
	// Deliver hook calls outside the lock: the hook is free to read
	// the monitor back (Quality locks m.mu).
	if m.cfg.OnAlarm != nil {
		for _, st := range fired {
			m.cfg.OnAlarm(st)
		}
	}
}

// closeNext closes hour head with the records of truth that belong to
// it and returns the records past it, or, once head has reached h,
// counts the records left over and returns the alarms that fired.
func (m *Monitor) closeNext(h wan.Hour, truth []features.Record) (rest []features.Record, fired []AlarmStatus, done bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	late := 0
	for late < len(truth) && truth[late].Hour < m.head {
		late++
	}
	m.met.truthLate.Add(uint64(late))
	truth = truth[late:]
	if m.head >= h {
		m.met.unmatched.Add(uint64(len(truth)))
		fired, m.fired = m.fired, nil
		return nil, fired, true
	}
	n := 0
	for n < len(truth) && truth[n].Hour == m.head {
		n++
	}
	m.closeHour(m.head, truth[:n])
	m.head++
	return truth[n:], nil, false
}

// closeHour finalizes hour h, whose records recs are, in flow order.
// Callers hold m.mu.
func (m *Monitor) closeHour(h wan.Hour, recs []features.Record) {
	b := &m.ring[int(h)%m.cfg.WindowHours]
	b.reset(h)

	joins, joined, horizon := 0, 0, wan.Hour(m.cfg.JoinHorizonHours)
	var groups []eval.Group
	if len(m.pending) > 0 { // else no record can join
		groups = eval.BuildGroups(recs, eval.Options{})
	}
	for _, g := range groups {
		p, ok := m.pending[g.Flow]
		if !ok || h < p.madeAt || h >= p.madeAt+horizon {
			continue
		}
		p.joined = true
		m.pending[g.Flow] = p
		joins++
		joined += len(g.Links) // an hour holds one record per (flow, link)
		c := cell{
			groups: 1,
			bytes:  g.Total,
			cred1:  eval.CreditBytes(p.preds[:p.n], 1, g.Links, g.Total),
			cred3:  eval.CreditBytes(p.preds[:p.n], gradedK, g.Links, g.Total),
		}
		b.overall.add(c)
		addSlice(&b.byRung, p.rung, c)
		if m.cfg.LinkMeta != nil {
			metro, kind := m.cfg.LinkMeta(dominantLink(g.Links))
			addSlice(&b.byMetro, metro, c)
			addSlice(&b.byKind, kind, c)
		}
		if m.withdrawalAt >= 0 && h > m.withdrawalAt {
			m.post.add(c)
		}
	}
	m.met.unmatched.Add(uint64(len(recs) - joined))
	if joins > 0 {
		m.met.joins.Add(uint64(joins))
		m.lastJoin = h
	}

	// Evict predictions whose join horizon has fully passed.
	for _, e := range m.expiring[h] {
		if p, ok := m.pending[e.flow]; ok && p.madeAt == e.madeAt {
			delete(m.pending, e.flow)
			if !p.joined {
				m.met.expired.Inc()
			}
		}
	}
	delete(m.expiring, h)
	m.met.pendingG.Set(int64(len(m.pending)))

	cur := m.windowTotals(h)
	m.met.top1.Set(permille(cur.overall.top1()))
	m.met.top3.Set(permille(cur.overall.top3()))
	drift := m.driftScore(cur)
	m.met.drift.Set(permille(drift))
	m.evaluateAlarms(h, cur, drift)
}

// driftScore is how far the window's top-3 accuracy has sunk below
// the frozen baseline; 0 when either side lacks a sample (or the
// model improved). Callers hold m.mu.
func (m *Monitor) driftScore(cur totals) float64 {
	if !m.hasBaseline ||
		m.baseline.overall.groups < m.cfg.MinGroups ||
		cur.overall.groups < m.cfg.MinGroups {
		return 0
	}
	d := m.baseline.overall.top3() - cur.overall.top3()
	if d < 0 {
		return 0
	}
	return d
}

// evaluateAlarms runs every alarm's hourly evaluation. Callers hold
// m.mu.
func (m *Monitor) evaluateAlarms(h wan.Hour, cur totals, drift float64) {
	baseOK := m.hasBaseline && m.baseline.overall.groups >= m.cfg.MinGroups

	floorBreach := cur.overall.groups >= m.cfg.MinGroups &&
		cur.overall.top3() < m.cfg.AccuracyFloor
	m.observe(m.alarmByN[AlarmAccuracyFloor], h, floorBreach, fmt.Sprintf(
		"window top-3 accuracy %.3f below floor %.2f over %d groups",
		cur.overall.top3(), m.cfg.AccuracyFloor, cur.overall.groups))

	driftBreach := drift > m.cfg.DriftThreshold
	m.observe(m.alarmByN[AlarmDrift], h, driftBreach, fmt.Sprintf(
		"window top-3 accuracy %.3f drifted %.3f below baseline %.3f (frozen at hour %d)",
		cur.overall.top3(), drift, m.baseline.overall.top3(), m.baselineAt))

	postBreach := baseOK && m.withdrawalAt >= 0 &&
		m.post.groups >= m.cfg.MinGroups &&
		m.baseline.overall.top3()-m.post.top3() > m.cfg.CollapseDrop
	m.observe(m.alarmByN[AlarmPostWithdrawal], h, postBreach, fmt.Sprintf(
		"top-3 accuracy since withdrawal at hour %d is %.3f, %.3f below baseline %.3f",
		m.withdrawalAt, m.post.top3(), m.baseline.overall.top3()-m.post.top3(),
		m.baseline.overall.top3()))

	starved := len(m.pending) > 0 && m.sawActivity &&
		h-m.lastJoin > wan.Hour(m.cfg.StarvationHours)
	m.observe(m.alarmByN[AlarmJoinStarvation], h, starved, fmt.Sprintf(
		"no ground-truth join for %d hours with %d predictions outstanding",
		h-m.lastJoin, len(m.pending)))
}

func (m *Monitor) observe(a *alarm, h wan.Hour, breached bool, reason string) {
	if a.observe(h, breached, reason) {
		m.met.transitions.Inc()
		if a.firing && m.cfg.OnAlarm != nil {
			m.fired = append(m.fired, a.status())
		}
	}
	v := int64(0)
	if a.firing {
		v = 1
	}
	m.met.alarms[a.name].Set(v)
}

// FreezeBaseline snapshots the current window as the drift baseline —
// call it when (re)training completes, at simulated hour h. It also
// disarms the post-withdrawal watch: the fresh model has seen the
// post-withdrawal world, so the collapse comparison starts over.
func (m *Monitor) FreezeBaseline(h wan.Hour) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.baseline = m.windowTotals(m.head - 1)
	m.baselineAt = h
	m.hasBaseline = true
	m.withdrawalAt = -1
	m.post = cell{}
}

// NoteWithdrawal arms the post-withdrawal collapse watch: joined
// quality for hours after h is compared against the frozen baseline
// until the next FreezeBaseline. A later withdrawal restarts the
// watch.
func (m *Monitor) NoteWithdrawal(h wan.Hour) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.withdrawalAt = h
	m.post = cell{}
}

// AlarmFiring reports whether the named alarm is currently firing.
func (m *Monitor) AlarmFiring(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	a := m.alarmByN[name]
	return a != nil && a.firing
}

// Degraded reports whether any model-quality alarm (floor, drift,
// post-withdrawal) is firing — the /healthz degradation signal. The
// starvation alarm is excluded: it means quality is unobservable, not
// that serving is known-bad.
func (m *Monitor) Degraded() (bool, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, name := range []string{AlarmAccuracyFloor, AlarmPostWithdrawal, AlarmDrift} {
		if a := m.alarmByN[name]; a.firing {
			return true, fmt.Sprintf("quality alarm %s: %s", a.name, a.reason)
		}
	}
	return false, ""
}

func addSlice[K comparable](mp *map[K]cell, k K, c cell) {
	if *mp == nil {
		*mp = make(map[K]cell, 4)
	}
	e := (*mp)[k]
	e.add(c)
	(*mp)[k] = e
}

// mergeSlices adds every slice of src into *dst.
func mergeSlices[K comparable](dst *map[K]cell, src map[K]cell) {
	for k, c := range src {
		addSlice(dst, k, c)
	}
}

// dominantLink picks the link that carried the most of a group's
// bytes (lowest ID on ties: links are sorted) — the link whose metro
// and peer kind the group is sliced under.
func dominantLink(links []eval.LinkBytes) wan.LinkID {
	best := links[0]
	for _, lb := range links[1:] {
		if lb.Bytes > best.Bytes {
			best = lb
		}
	}
	return best.Link
}

func permille(v float64) int64 {
	return int64(v*1000 + 0.5)
}
