package chaos

import (
	"testing"

	"tipsy/internal/eval"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/ipfix"
	"tipsy/internal/netsim"
	"tipsy/internal/pipeline"
	"tipsy/internal/serve"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

// soakResult captures one end-to-end cycle: simulate -> chaos ->
// collect -> aggregate -> train -> evaluate.
type soakResult struct {
	link    Stats
	col     ipfix.CollectorStats
	records int
	acc     map[int]float64
}

// soakRun drives the whole pipeline through fault-injecting links and
// scores the ensemble trained on whatever telemetry survived. Hours
// [0, trainTo) train; [trainTo, evalTo) evaluate.
func soakRun(t *testing.T, seed int64, fault Config, trainTo, evalTo wan.Hour) soakResult {
	t.Helper()
	metros := geo.World()
	g := topology.Generate(topology.TestGenConfig(seed), metros)
	w := traffic.Generate(traffic.TestConfig(seed), g, metros)
	cfg := netsim.DefaultConfig(seed)
	cfg.SamplingInterval = 256 // denser telemetry: more messages for faults to hit
	sim := netsim.New(cfg, g, metros, w)

	col := ipfix.NewCollector()
	agg := pipeline.NewAggregator(sim.GeoIP(), sim.DstMetadata)
	ipfixLink := NewLink(fault.ForKey(1), func(m []byte) {
		// Malformed messages are quarantined by the collector, not fatal.
		_ = col.HandleMessageBatch(m, func(_ uint32, recs []ipfix.FlowRecord) { agg.RecordBatch(recs) })
	})
	exp := ipfix.NewExporter(ipfixLink.Writer(), 1)

	sim.Run(netsim.RunOptions{
		From: 0, To: evalTo,
		Sink: netsim.RecordSinkFunc(func(h wan.Hour, link wan.LinkID, rec *ipfix.FlowRecord) {
			if err := exp.Export(rec, uint32(h)*3600); err != nil {
				t.Error(err)
			}
		}),
	})
	if err := exp.Flush(uint32(evalTo) * 3600); err != nil {
		t.Fatal(err)
	}
	ipfixLink.Flush()

	all := agg.Records()
	var train, evalRecs []features.Record
	for _, r := range all {
		if r.Hour < trainTo {
			train = append(train, r)
		} else {
			evalRecs = append(evalRecs, r)
		}
	}
	if len(train) == 0 || len(evalRecs) == 0 {
		t.Fatalf("soak produced %d train / %d eval records", len(train), len(evalRecs))
	}
	// The daemon's serving ensemble, trained only on what survived the
	// chaos transport.
	model := serve.Train(train, trainTo, sim, metros).Ensemble()
	acc := eval.Accuracy(model, evalRecs, eval.Options{Ks: []int{1, 3}})
	return soakResult{
		link:    ipfixLink.Stats(),
		col:     col.Stats(),
		records: len(all),
		acc:     acc,
	}
}

// TestChaosSoak is the robustness acceptance test: a full simulate ->
// chaos -> pipeline -> train -> predict cycle at several fault rates
// must complete with zero errors, quarantine the malformed telemetry
// it was fed, and land top-1 accuracy within a declared envelope of
// the clean run — degraded telemetry degrades the models gracefully,
// it does not break them.
func TestChaosSoak(t *testing.T) {
	const seed = 99
	trainTo, evalTo := wan.Hour(48), wan.Hour(72)
	if testing.Short() {
		trainTo, evalTo = 24, 36
	}

	clean := soakRun(t, seed, Config{}, trainTo, evalTo)
	if clean.link.Dropped != 0 || clean.col.Quarantined != 0 || clean.col.Lost != 0 {
		t.Fatalf("faultless config injected faults: link %+v col %+v", clean.link, clean.col)
	}
	if clean.acc[1] < 0.2 {
		t.Fatalf("clean baseline implausibly weak: %v", clean.acc)
	}

	cases := []struct {
		name     string
		cfg      Config
		envelope float64 // max tolerated top-1 drop vs clean
	}{
		// The rates the acceptance criteria name, plus enough
		// truncation that quarantines must register.
		{"nominal", Config{Drop: 0.01, Reorder: 0.01, Corrupt: 0.001, Truncate: 0.005}, 0.10},
	}
	if !testing.Short() {
		cases = append(cases, struct {
			name     string
			cfg      Config
			envelope float64
		}{"heavy", Config{Drop: 0.05, Dup: 0.02, Reorder: 0.05, Corrupt: 0.01, Truncate: 0.01, Delay: 0.02}, 0.20})
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed = seed
			r := soakRun(t, seed, cfg, trainTo, evalTo)
			t.Logf("link %+v", r.link)
			t.Logf("collector %+v", r.col)
			t.Logf("records %d acc %v (clean %v)", r.records, r.acc, clean.acc)

			// The transport conserved messages and actually misbehaved.
			if r.link.Delivered != r.link.Sent-r.link.Dropped+r.link.Duplicated {
				t.Errorf("conservation violated: %+v", r.link)
			}
			if r.link.Dropped == 0 || r.link.Reordered == 0 || r.link.Truncated == 0 {
				t.Errorf("fault schedule barely fired: %+v", r.link)
			}
			// The collector saw the faults and counted them instead of
			// dying: corrupt/truncated messages quarantine, drops
			// register as loss, reorders are not miscounted as loss.
			if r.col.Quarantined == 0 {
				t.Error("no quarantined messages despite corruption and truncation")
			}
			if r.col.Lost == 0 {
				t.Error("dropped messages did not register as sequence loss")
			}
			// Degraded, not broken: the surviving telemetry still trains
			// a model inside the accuracy envelope.
			if d := clean.acc[1] - r.acc[1]; d > tc.envelope {
				t.Errorf("top-1 accuracy dropped %.3f (clean %.3f -> %.3f), envelope %.2f",
					d, clean.acc[1], r.acc[1], tc.envelope)
			}
		})
	}
}
