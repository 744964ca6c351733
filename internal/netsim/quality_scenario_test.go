package netsim_test

// The withdrawal-then-recover quality scenario, end to end through
// the real stack: seeded sim -> aggregation pipeline -> trained
// ensemble -> monitor. It reproduces the paper's headline failure
// mode — prefix withdrawals silently collapse prediction accuracy
// until the next retrain — and proves the monitor turns it into a
// firing post-withdrawal alarm, then clears after re-announcement and
// retraining. External test package: the monitor depends on eval,
// which builds environments on netsim.

import (
	"testing"

	"tipsy/internal/bgp"
	"tipsy/internal/core"
	"tipsy/internal/features"
	"tipsy/internal/monitor"
	"tipsy/internal/netsim"
	"tipsy/internal/obsv"
	"tipsy/internal/pipeline"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"

	"tipsy/internal/geo"
)

// qualityEnv bundles the scenario's moving parts.
type qualityEnv struct {
	sim   *netsim.Sim
	w     *traffic.Workload
	reg   *obsv.Registry
	mon   *monitor.Monitor
	store []features.Record // all aggregated records so far
	model core.Predictor
}

func newQualityEnv(t *testing.T, seed int64) *qualityEnv {
	t.Helper()
	metros := geo.World()
	g := topology.Generate(topology.TestGenConfig(seed), metros)
	w := traffic.Generate(traffic.TestConfig(seed), g, metros)
	cfg := netsim.DefaultConfig(seed)
	cfg.HorizonHours = 10 * 24
	// No outages: the scenario isolates the withdrawal signal.
	cfg.OutagesPerLinkYear = 0
	sim := netsim.New(cfg, g, metros, w)

	reg := obsv.NewRegistry()
	mcfg := monitor.DefaultConfig()
	mcfg.WindowHours = 24
	mcfg.JoinHorizonHours = 24
	mcfg.MinGroups = 10
	mcfg.FireAfter = 2
	mcfg.ClearAfter = 2
	return &qualityEnv{
		sim: sim, w: w, reg: reg,
		mon: monitor.New(mcfg, reg),
	}
}

// advance simulates days [fromDay, toDay), hands the aggregated
// records to the monitor as ground truth, closing the hours, and
// appends them to the record store.
func (e *qualityEnv) advance(fromDay, toDay int) {
	agg := pipeline.NewAggregatorOn(e.reg, e.sim.GeoIP(), e.sim.DstMetadata)
	e.sim.Run(netsim.RunOptions{
		From: wan.Hour(fromDay * 24), To: wan.Hour(toDay * 24), Sink: agg,
	})
	recs := agg.Records()
	e.store = append(e.store, recs...)
	e.mon.AdvanceTo(wan.Hour(toDay*24), recs)
}

// retrain fits the serving ensemble on everything aggregated so far.
func (e *qualityEnv) retrain() {
	hA := core.TrainHistorical(features.SetA, e.store, core.DefaultHistOpts())
	hAP := core.TrainHistorical(features.SetAP, e.store, core.DefaultHistOpts())
	hAL := core.TrainHistorical(features.SetAL, e.store, core.DefaultHistOpts())
	e.model = core.NewEnsemble(hAP, hAL, hA)
}

// flowFeatures maps a workload FlowSpec to the aggregation pipeline's
// join key.
func (e *qualityEnv) flowFeatures(f *traffic.FlowSpec) features.FlowFeatures {
	return features.FlowFeatures{
		AS: f.SrcAS, Prefix: f.SrcPrefix,
		Loc:    e.sim.GeoIP().Lookup(f.SrcPrefix),
		Region: f.DstRegion, Type: f.DstType,
	}
}

// predictVictims records the model's predictions for the victim flows
// at the given hour, exactly as tipsyd's shadow sampling would.
func (e *qualityEnv) predictVictims(now wan.Hour, victims []*traffic.FlowSpec) {
	for _, f := range victims {
		ff := e.flowFeatures(f)
		preds := e.model.Predict(core.Query{Flow: ff, K: 3})
		e.mon.RecordPrediction(now, ff, "ensemble", preds)
	}
}

func TestWithdrawalQualityScenario(t *testing.T) {
	e := newQualityEnv(t, 21)

	// Days 0-3: telemetry accumulates; train the first model.
	e.advance(0, 4)
	e.retrain()

	// Victims: the flows whose ingress concentrates on the single
	// busiest-by-flow-count link — the link a congestion mitigation
	// withdrawal would target.
	byLink := map[wan.LinkID][]*traffic.FlowSpec{}
	for i := range e.w.Flows {
		f := &e.w.Flows[i]
		shares := e.sim.Truth(f, 4*24, nil).Shares
		if len(shares) == 0 {
			continue
		}
		byLink[shares[0].Link] = append(byLink[shares[0].Link], f)
	}
	var target wan.LinkID
	for l, fs := range byLink {
		if target == 0 || len(fs) > len(byLink[target]) ||
			(len(fs) == len(byLink[target]) && l < target) {
			target = l
		}
	}
	victims := byLink[target]
	if len(victims) < 20 {
		t.Fatalf("only %d victim flows on link %d; scenario underpowered", len(victims), target)
	}
	if len(victims) > 64 {
		victims = victims[:64]
	}

	// Day 4: a healthy graded day establishes the baseline.
	e.predictVictims(4*24, victims)
	e.advance(4, 5)
	e.mon.FreezeBaseline(5 * 24)
	q := e.mon.Quality()
	if q.Window.Groups < 10 {
		t.Fatalf("healthy day joined only %d groups", q.Window.Groups)
	}
	if q.Baseline.Top3 < 0.5 {
		t.Fatalf("baseline top3 = %.3f; model too weak for the scenario", q.Baseline.Top3)
	}
	if firing := q.Alarms; true {
		for _, a := range firing {
			if a.Firing {
				t.Fatalf("alarm %s firing on the healthy day", a.Name)
			}
		}
	}

	// The congestion mitigation system withdraws each victim's anycast
	// prefix from the model's top predicted links — the §5 incident
	// shape. The stale model keeps predicting the withdrawn links.
	e.mon.NoteWithdrawal(5 * 24)
	type withdrawal struct {
		link   wan.LinkID
		prefix bgp.Prefix
	}
	var withdrawn []withdrawal
	for _, f := range victims {
		prefix := e.sim.FlowPrefix(f)
		preds := e.model.Predict(core.Query{Flow: e.flowFeatures(f), K: 3})
		for i, p := range preds {
			if i >= 2 {
				break // leave the flow a path so traffic still ingresses
			}
			e.sim.Withdraw(p.Link, prefix)
			withdrawn = append(withdrawn, withdrawal{p.Link, prefix})
		}
	}
	e.predictVictims(5*24, victims)
	e.advance(5, 6)

	q = e.mon.Quality()
	if !e.mon.AlarmFiring(monitor.AlarmPostWithdrawal) {
		t.Fatalf("post-withdrawal alarm not firing; baseline top3 %.3f post top3 %.3f",
			q.Baseline.Top3, q.PostWithdrawal.Top3)
	}
	if !e.mon.AlarmFiring(monitor.AlarmDrift) {
		t.Errorf("drift alarm not firing; drift score %.3f", q.DriftScore)
	}
	if q.PostWithdrawal.Top3 >= q.Baseline.Top3-0.2 {
		t.Errorf("post-withdrawal top3 %.3f did not collapse vs baseline %.3f",
			q.PostWithdrawal.Top3, q.Baseline.Top3)
	}
	if v := e.reg.Gauge("monitor_alarm_post_withdrawal").Value(); v != 1 {
		t.Errorf("monitor_alarm_post_withdrawal gauge = %d, want 1", v)
	}
	if deg, reason := e.mon.Degraded(); !deg || reason == "" {
		t.Errorf("monitor not degraded during collapse: %v %q", deg, reason)
	}

	// Recovery: re-announce everything, retrain on the full history
	// (the daemon's response to the alarm), grade another day.
	for _, wd := range withdrawn {
		e.sim.Announce(wd.link, wd.prefix)
	}
	e.retrain()
	e.mon.FreezeBaseline(6 * 24) // disarms the withdrawal watch
	e.predictVictims(6*24, victims)
	e.advance(6, 7)

	q = e.mon.Quality()
	for _, name := range []string{
		monitor.AlarmPostWithdrawal, monitor.AlarmDrift, monitor.AlarmAccuracyFloor,
	} {
		if e.mon.AlarmFiring(name) {
			t.Errorf("alarm %s still firing after recovery", name)
		}
	}
	if q.WithdrawalAt != -1 {
		t.Errorf("withdrawal watch still armed after retrain: hour %d", q.WithdrawalAt)
	}
	if v := e.reg.Gauge("monitor_alarm_post_withdrawal").Value(); v != 0 {
		t.Errorf("monitor_alarm_post_withdrawal gauge = %d after recovery, want 0", v)
	}
	if deg, _ := e.mon.Degraded(); deg {
		t.Error("monitor still degraded after recovery")
	}
	if q.Window.Top3 <= q.Baseline.Top3 {
		t.Errorf("recovered window top3 %.3f not above the collapsed baseline %.3f",
			q.Window.Top3, q.Baseline.Top3)
	}
}
