package cms

import (
	"strings"
	"testing"

	"tipsy/internal/core"
	"tipsy/internal/eval"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/netsim"
	"tipsy/internal/pipeline"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

// scenario builds a small simulated WAN with one engineered
// congestion incident: the busiest link is inflated past the CMS
// trigger threshold at hour congestStart.
type scenario struct {
	sim   *netsim.Sim
	w     *traffic.Workload
	tipsy core.Predictor
	hot   wan.LinkID
	start wan.Hour
}

func buildScenario(t *testing.T, seed int64) *scenario {
	t.Helper()
	metros := geo.World()
	g := topology.Generate(topology.TestGenConfig(seed), metros)
	w := traffic.Generate(traffic.TestConfig(seed), g, metros)
	cfg := netsim.DefaultConfig(seed)
	cfg.OutagesPerLinkYear = 0 // isolate the engineered incident
	sim := netsim.New(cfg, g, metros, w)

	// Train TIPSY on 3 days of normal traffic.
	agg := pipeline.NewAggregator(sim.GeoIP(), sim.DstMetadata)
	sim.Run(netsim.RunOptions{From: 0, To: 72, Sink: agg})
	train := agg.Records()
	if len(train) == 0 {
		t.Fatal("no training records")
	}
	hAL := core.TrainHistorical(features.SetAL, train, core.DefaultHistOpts())
	hAP := core.TrainHistorical(features.SetAP, train, core.DefaultHistOpts())
	hA := core.TrainHistorical(features.SetA, train, core.DefaultHistOpts())
	model := core.NewEnsemble(hAP, hAL, hA)

	// Pick the busiest link and push it over threshold from hour 72.
	var hot wan.LinkID
	var best float64
	for _, id := range sim.Links() {
		var sum float64
		for h := wan.Hour(48); h < 72; h++ {
			sum += sim.LinkBytes(h, id)
		}
		if sum > best {
			best, hot = sum, id
		}
	}
	if hot == 0 {
		t.Fatal("no traffic-bearing link")
	}
	scale := sim.InflateToUtilization(hot, 0.92, 72, 76)
	if scale <= 1 {
		t.Fatal("inflation had no effect")
	}
	return &scenario{sim: sim, w: w, tipsy: model, hot: hot, start: 72}
}

func runWithCMS(t *testing.T, sc *scenario, blind bool, hours wan.Hour) *CMS {
	t.Helper()
	cfg := DefaultConfig(sc.w.Anycast)
	cfg.Blind = blind
	c := New(cfg, sc.sim, sc.tipsy, sc.sim.GeoIP(), sc.sim.DstMetadata)
	sc.sim.Run(netsim.RunOptions{
		From: sc.start, To: sc.start + hours,
		Sink:      c,
		OnHourEnd: c.Step,
	})
	return c
}

func hotUtil(sc *scenario, h wan.Hour) float64 {
	l, _ := sc.sim.Link(sc.hot)
	return l.Utilization(sc.sim.LinkBytes(h, sc.hot), 3600)
}

func TestCMSDetectsAndMitigates(t *testing.T) {
	sc := buildScenario(t, 31)
	c := runWithCMS(t, sc, false, 6)

	events := c.Events()
	if len(events) == 0 {
		t.Fatal("no congestion event detected")
	}
	found := false
	for _, ev := range events {
		if ev.Link == sc.hot {
			found = true
			if ev.Util < 0.85 {
				t.Errorf("event recorded at %.2f utilization, below threshold", ev.Util)
			}
		}
	}
	if !found {
		t.Fatalf("no event on the congested link %d: %+v", sc.hot, events)
	}
	if len(c.Active()) == 0 {
		t.Fatal("no withdrawal issued")
	}
	// Utilization on the hot link must come down after a few control
	// cycles (mitigation issued at hour end takes effect the next
	// hour, and the CMS keeps withdrawing while the link stays hot).
	minAfter := 10.0
	for h := sc.start + 1; h < sc.start+6; h++ {
		if u := hotUtil(sc, h); u < minAfter {
			minAfter = u
		}
	}
	if minAfter >= 0.85 {
		t.Errorf("link never left congestion after mitigation: best %.2f", minAfter)
	}
	if !strings.Contains(c.Summary(), "tipsy") {
		t.Errorf("summary: %s", c.Summary())
	}
}

func TestCMSSafetyAvoidsOverloadingTargets(t *testing.T) {
	sc := buildScenario(t, 32)
	c := runWithCMS(t, sc, false, 6)
	// Every link TIPSY predicted to absorb shifted traffic must stay
	// under the trigger threshold afterwards (the whole point of
	// consulting TIPSY before withdrawing).
	for _, ev := range c.Events() {
		if ev.Link != sc.hot || len(ev.Withdrawn) == 0 {
			continue
		}
		for target := range ev.Predicted {
			l, _ := sc.sim.Link(target)
			u := l.Utilization(sc.sim.LinkBytes(ev.Hour+1, target), 3600)
			if u >= 0.95 {
				t.Errorf("predicted target link %d at %.2f utilization after shift", target, u)
			}
		}
	}
}

func TestCMSBlindStillWithdraws(t *testing.T) {
	sc := buildScenario(t, 33)
	c := runWithCMS(t, sc, true, 5)
	if len(c.Active()) == 0 {
		t.Fatal("blind mode should withdraw without safety checks")
	}
	if !strings.Contains(c.Summary(), "blind") {
		t.Errorf("summary: %s", c.Summary())
	}
	deferred := 0
	for _, ev := range c.Events() {
		deferred += ev.Deferred
	}
	if deferred != 0 {
		t.Error("blind mode must not defer withdrawals")
	}
}

func TestCMSReannouncesWhenCalm(t *testing.T) {
	sc := buildScenario(t, 34)
	cfg := DefaultConfig(sc.w.Anycast)
	cfg.CalmHours = 1
	c := New(cfg, sc.sim, sc.tipsy, sc.sim.GeoIP(), sc.sim.DstMetadata)

	inflated := sc.sim.FlowsVia(sc.hot, sc.start)
	h := sc.start
	sc.sim.Run(netsim.RunOptions{
		From: h, To: h + 2, Sink: c, OnHourEnd: c.Step,
	})
	if len(c.Active()) == 0 {
		t.Skip("no withdrawal issued in this scenario")
	}
	// The incident subsides: scale the inflated flows back down hard.
	sc.sim.ScaleFlows(inflated, 0.05)
	sc.sim.Run(netsim.RunOptions{
		From: h + 2, To: h + 8, Sink: c, OnHourEnd: c.Step,
	})
	re := 0
	for _, w := range c.Active() {
		if w.Reannounced {
			re++
			if sc.sim.IsWithdrawn(w.Link, w.Prefix) {
				t.Error("re-announced prefix still withdrawn in the network")
			}
		}
	}
	if re == 0 {
		t.Error("no withdrawal was re-announced after the incident subsided")
	}
}

func TestCMSHonorsEnvAccuracy(t *testing.T) {
	// Sanity: the predictor handed to CMS in the scenario has real
	// skill on the scenario's own traffic.
	sc := buildScenario(t, 35)
	agg := pipeline.NewAggregator(sc.sim.GeoIP(), sc.sim.DstMetadata)
	sc.sim.Run(netsim.RunOptions{From: sc.start, To: sc.start + 4, Sink: agg})
	recs := agg.Records()
	acc := eval.Accuracy(sc.tipsy, recs, eval.Options{Ks: []int{3}})
	if acc[3] < 0.5 {
		t.Errorf("scenario predictor top-3 accuracy only %.0f%%", acc[3]*100)
	}
}
