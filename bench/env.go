package main

import (
	"time"

	"tipsy/internal/core"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/netsim"
	"tipsy/internal/pipeline"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

// The deployment under test is fixed; --seed varies what is sent to
// it. A benchmark whose topology changed with the seed would measure
// the topology generator's spread (1,337 to 1,465 links over seeds 1
// to 3), not the code's.
const (
	// daemonSeed is tipsyd's -seed and its in-process twin's.
	daemonSeed = 1
	// mediumTopoSeed fixes the medium env's topology and flows; the
	// simulation on top of them (outages, sampling) follows --seed.
	mediumTopoSeed = 1
	// daemonTrainDays is tipsyd's default -train-days.
	daemonTrainDays = 8
)

// env is one simulated WAN.
type env struct {
	metros *geo.DB
	sim    *netsim.Sim
	flows  []traffic.FlowSpec
}

// daemonEnv repeats tipsyd's private recipe (seed, seed+10, seed+20
// in newServerCfg), so that a model trained here is the daemon's
// twin. startDaemon fails fast if the two ever disagree.
func daemonEnv(seed int64) *env {
	metros := geo.World()
	g := topology.Generate(topology.TestGenConfig(seed), metros)
	w := traffic.Generate(traffic.TestConfig(seed+10), g, metros)
	cfg := netsim.DefaultConfig(seed + 20)
	cfg.HorizonHours = wan.Hour(400 * 24)
	cfg.OutagesPerLinkYear = 10
	return &env{metros, netsim.New(cfg, g, metros, w), w.Flows}
}

// mediumEnv is the default topology (1,573 ASes, 1,337 links) with
// 10,000 flows: large enough that maps leave the caches the small
// env's 319 links fit in. tiny shrinks it to the unit-test topology
// for the smoke test.
func mediumEnv(simSeed int64, days int, tiny bool) *env {
	metros := geo.World()
	topo := topology.DefaultGenConfig(mediumTopoSeed)
	tc := traffic.DefaultConfig(mediumTopoSeed + 10)
	tc.NFlows = 10000
	if tiny {
		topo = topology.TestGenConfig(mediumTopoSeed)
		tc = traffic.TestConfig(mediumTopoSeed + 10)
		tc.NFlows = 300
	}
	g := topology.Generate(topo, metros)
	w := traffic.Generate(tc, g, metros)
	cfg := netsim.DefaultConfig(simSeed + 20)
	cfg.HorizonHours = wan.Hour(days * 24)
	cfg.OutagesPerLinkYear = 10
	return &env{metros, netsim.New(cfg, g, metros, w), w.Flows}
}

// aggregate simulates hours [from, to) through the pipeline, as one
// tipsyd cycle does, and reports how long the simulation ran.
func (e *env) aggregate(from, to wan.Hour) ([]features.Record, time.Duration) {
	agg := pipeline.NewAggregator(e.sim.GeoIP(), e.sim.DstMetadata)
	t0 := time.Now()
	e.sim.Run(netsim.RunOptions{From: from, To: to, Sink: agg})
	simDur := time.Since(t0)
	return agg.Records(), simDur
}

// ladder is tipsyd's fallback ladder: the trained ensemble, then the
// coarse Hist_A model, then the training-free geographic guess.
type ladder struct {
	hA, hAP, hAL *core.Historical
	rungs        []core.Predictor
}

var rungNames = [...]string{"ensemble", "historical", "geo"}

// trainLadder trains the serving models the way tipsyd's retrain
// does.
func (e *env) trainLadder(recs []features.Record) *ladder {
	l := &ladder{
		hA:  core.TrainHistorical(features.SetA, recs, core.DefaultHistOpts()),
		hAP: core.TrainHistorical(features.SetAP, recs, core.DefaultHistOpts()),
		hAL: core.TrainHistorical(features.SetAL, recs, core.DefaultHistOpts()),
	}
	l.assemble(e)
	return l
}

func (l *ladder) assemble(e *env) {
	l.rungs = []core.Predictor{
		core.NewEnsemble(l.hAP, core.NewGeoCompletion(l.hAL, e.sim, e.metros), l.hA),
		l.hA,
		core.NewGeoNearest(e.sim, e.metros),
	}
}

func (l *ladder) tuples() int {
	return l.hAP.NumTuples() + l.hAL.NumTuples() + l.hA.NumTuples()
}

// predict walks the ladder and names the rung that answered.
func (l *ladder) predict(q core.Query) ([]core.Prediction, string) {
	for i, m := range l.rungs {
		if preds := m.Predict(q); len(preds) > 0 {
			return preds, rungNames[i]
		}
	}
	return nil, "none"
}
