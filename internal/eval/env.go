package eval

import (
	"tipsy/internal/core"
	"tipsy/internal/dataset"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/netsim"
	"tipsy/internal/pipeline"
	"tipsy/internal/serve"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

// EnvConfig parameterizes an experiment environment.
type EnvConfig struct {
	Seed       int64
	TrainDays  int
	TestDays   int
	TopoCfg    topology.GenConfig
	TrafficCfg traffic.Config
	SimCfg     netsim.Config
}

// DefaultEnvConfig is the full-scale environment the experiment
// harness uses: the paper's 3 weeks of training and 1 week of
// testing.
func DefaultEnvConfig(seed int64) EnvConfig {
	cfg := EnvConfig{
		Seed:       seed,
		TrainDays:  21,
		TestDays:   7,
		TopoCfg:    topology.DefaultGenConfig(seed),
		TrafficCfg: traffic.DefaultConfig(seed + 10),
		SimCfg:     netsim.DefaultConfig(seed + 20),
	}
	cfg.SimCfg.HorizonHours = wan.Hour((cfg.TrainDays + cfg.TestDays) * 24)
	return cfg
}

// SmallEnvConfig is a scaled-down environment for unit tests.
func SmallEnvConfig(seed int64) EnvConfig {
	cfg := EnvConfig{
		Seed:       seed,
		TrainDays:  8,
		TestDays:   3,
		TopoCfg:    topology.TestGenConfig(seed),
		TrafficCfg: traffic.TestConfig(seed + 10),
		SimCfg:     netsim.DefaultConfig(seed + 20),
	}
	cfg.TrafficCfg.NFlows = 3000
	cfg.SimCfg.HorizonHours = wan.Hour((cfg.TrainDays + cfg.TestDays) * 24)
	// More outages per link-year so short test windows still contain
	// enough outage events to evaluate against.
	cfg.SimCfg.OutagesPerLinkYear = 10
	return cfg
}

// Env is a fully built experiment environment: the simulated WAN,
// aggregated telemetry, train/test windows, inferred outages, and the
// model generation a daemon would serve after training on the window.
type Env struct {
	Cfg EnvConfig
	Sim *netsim.Sim
	// Dir is the link directory the models rank links in; Build
	// sets it to the simulator.
	Dir      wan.Directory
	Metros   *geo.DB
	Graph    *topology.Graph
	Workload *traffic.Workload

	TrainFrom, TrainTo wan.Hour
	TestFrom, TestTo   wan.Hour
	Train, Test        []features.Record

	TrainOut, TestOut *dataset.OutageIndex
	// Served is serve.Train's generation over Train; every Historical
	// model the tables score is one of its fits.
	Served *serve.Models
	// nb is NBModels' fits over Train, once made; SplitAt clears it.
	nb []core.Predictor
}

// Build generates the topology and workload, simulates the full
// horizon, aggregates the telemetry through the pipeline, and
// prepares the train/test split exactly as §5.1.1 describes.
//
// The aggregator is fed by the simulator's sink, not over the IPFIX
// wire. That cannot change a table: the root package's
// TestReproduction requires the wire's drain to be reflect.DeepEqual
// to the direct drain of the same environment.
func Build(cfg EnvConfig) *Env {
	metros := geo.World()
	g := topology.Generate(cfg.TopoCfg, metros)
	w := traffic.Generate(cfg.TrafficCfg, g, metros)
	sim := netsim.New(cfg.SimCfg, g, metros, w)

	env := &Env{
		Cfg: cfg, Sim: sim, Dir: sim, Metros: metros, Graph: g, Workload: w,
		TrainFrom: 0,
		TrainTo:   wan.Hour(cfg.TrainDays * 24),
		TestFrom:  wan.Hour(cfg.TrainDays * 24),
		TestTo:    wan.Hour((cfg.TrainDays + cfg.TestDays) * 24),
	}
	agg := pipeline.NewAggregator(sim.GeoIP(), sim.DstMetadata)
	sim.Run(netsim.RunOptions{From: env.TrainFrom, To: env.TestTo, Sink: agg})
	all := agg.Records()
	env.SplitAt(all, env.TrainTo)
	return env
}

// SplitAt (re)derives the train/test state from aggregated records
// with the boundary at hour split, and fits the served generation on
// the new training window. It is exposed so the appendix experiments
// (varying training-window lengths, sliding windows) can re-slice one
// simulated horizon many times without re-simulating.
func (e *Env) SplitAt(all []features.Record, split wan.Hour) {
	e.TrainTo, e.TestFrom = split, split
	e.Train = dataset.Window(all, e.TrainFrom, e.TrainTo)
	e.Test = dataset.Window(all, e.TestFrom, e.TestTo)
	opts := dataset.DefaultInferOptions()
	e.TrainOut = dataset.NewOutageIndex(dataset.InferOutages(e.Train, e.TrainFrom, e.TrainTo, opts))
	e.TestOut = dataset.NewOutageIndex(dataset.InferOutages(e.Test, e.TestFrom, e.TestTo, opts))
	e.Served = serve.Train(e.Train, e.TrainTo, e.Dir, e.Metros)
	e.nb = nil
}

// Records re-aggregates by running the simulator over [from, to);
// used by appendix experiments that need horizons beyond the standard
// split. The simulator's state (drift, outages) is deterministic in
// the hour, so re-running different windows is consistent.
func (e *Env) Records(from, to wan.Hour) []features.Record {
	agg := pipeline.NewAggregator(e.Sim.GeoIP(), e.Sim.DstMetadata)
	e.Sim.Run(netsim.RunOptions{From: from, To: to, Sink: agg})
	return agg.Records()
}

// Hist is the served generation's Historical model for the feature
// set; every call returns the same fit.
func (e *Env) Hist(set features.Set) *core.Historical { return e.Served.Hist(set) }

// StandardModels is the Table 2 model set over the served
// generation's fits — Hist_A, Hist_AP, Hist_AL, Hist_AL+G,
// Hist_AP/AL/A, Hist_AL/AP/A — followed by the generation itself,
// fallback rungs included, as the "served" row.
func (e *Env) StandardModels() []core.Predictor {
	hA, hAP, hAL := e.Hist(features.SetA), e.Hist(features.SetAP), e.Hist(features.SetAL)
	return []core.Predictor{
		hA, hAP, hAL,
		core.NewGeoCompletion(hAL, e.Dir, e.Metros),
		core.NewEnsemble(hAP, hAL, hA),
		ensembleALAPA(e.Served),
		e.Served,
	}
}

// ensembleALAPA is Hist_AL/AP/A over a generation's fits, the model
// of Table 2's last row and of Figures 9–11.
func ensembleALAPA(g *serve.Models) core.Predictor {
	return core.NewEnsemble(g.Hist(features.SetAL), g.Hist(features.SetAP), g.Hist(features.SetA))
}

// Oracle is the paper's restricted oracle (§5.1.2): it has perfect
// knowledge of the testing data — exactly which link received how
// many bytes for every flow tuple — but is limited to k predictions
// per flow. It is the accuracy ceiling for a model at a given feature
// granularity: Oracle_A cannot tell apart flows that collide in the A
// projection even with perfect knowledge.
//
// Structurally it is a Historical model trained on the test records
// themselves.
type Oracle struct {
	*core.Historical
}

// NewOracle builds the oracle for a feature set from the testing
// records, e.g. an Env's Test.
func NewOracle(set features.Set, testRecs []features.Record) *Oracle {
	return &Oracle{Historical: core.TrainHistorical(set, testRecs, core.HistOpts{MaxLinksPerTuple: 1 << 20})}
}

// Name implements core.Predictor.
func (o *Oracle) Name() string { return "Oracle_" + o.Set().String() }

// TestExclude is the availability prior for the test window: a link
// is excluded while telemetry says it was down.
func (e *Env) TestExclude(l wan.LinkID, h wan.Hour) bool { return e.TestOut.Down(l, h) }
