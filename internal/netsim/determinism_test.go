package netsim

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"tipsy/internal/chaos"
	"tipsy/internal/core"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/ipfix"
	"tipsy/internal/pipeline"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

// ingressFingerprint runs hours [0, to) on a fresh simulator built
// from seed and folds every emitted (hour, link, record) tuple — the
// ingress assignments the paper's models learn from — into one hash.
func ingressFingerprint(t *testing.T, seed int64, to wan.Hour) uint64 {
	t.Helper()
	s := testSim(t, seed)
	h := fnv.New64a()
	n := 0
	s.Run(RunOptions{From: 0, To: to, Sink: RecordSinkFunc(
		func(hour wan.Hour, link wan.LinkID, rec *ipfix.FlowRecord) {
			n++
			fmt.Fprintf(h, "%d|%d|%v|%v|%d|%d|%d|%d|%d\n",
				hour, link, rec.SrcAddr, rec.DstAddr,
				rec.Octets, rec.Packets, rec.Ingress, rec.SrcAS, rec.StartSecs)
		})})
	if n == 0 {
		t.Fatal("simulation emitted no flow records")
	}
	return h.Sum64()
}

// TestSameSeedReplaysByteForByte is the behavioural twin of the
// tipsylint determinism rule: two independently constructed runs with
// the same seed must produce identical ingress-assignment streams.
// If this fails, some code path consulted the wall clock, the global
// RNG, or iteration order of a map.
func TestSameSeedReplaysByteForByte(t *testing.T) {
	const seed, hours = 7, 12
	a := ingressFingerprint(t, seed, hours)
	b := ingressFingerprint(t, seed, hours)
	if a != b {
		t.Fatalf("same seed diverged: run1=%x run2=%x", a, b)
	}
	// Sanity-check the fingerprint actually sees the substrate: a
	// different seed must not collide.
	if c := ingressFingerprint(t, seed+1, hours); c == a {
		t.Fatalf("different seed produced an identical stream (%x); fingerprint is blind", c)
	}
}

// chaosRunResult is everything a chaos-fed telemetry run observably
// produces: what the fault transport did, what each receiver counted,
// and a hash of the predictions of a model trained on what survived.
// The struct is comparable, so two runs can be checked with ==.
type chaosRunResult struct {
	link  chaos.Stats
	col   ipfix.CollectorStats
	preds uint64
}

// chaosRun drives a full telemetry cycle through fault-injecting
// link: sim -> IPFIX exporter -> chaos -> collector -> aggregator,
// then trains a Hist_AP on the surviving aggregates and fingerprints
// its predictions.
func chaosRun(t *testing.T, seed int64, to wan.Hour) chaosRunResult {
	t.Helper()
	metros := geo.World()
	g := topology.Generate(topology.TestGenConfig(seed), metros)
	w := traffic.Generate(traffic.TestConfig(seed), g, metros)
	cfg := DefaultConfig(seed)
	cfg.SamplingInterval = 256 // denser records: more messages for faults to hit
	s := New(cfg, g, metros, w)

	fault := chaos.Config{
		Seed: seed,
		Drop: 0.02, Dup: 0.01, Reorder: 0.03,
		Corrupt: 0.005, Truncate: 0.005, Delay: 0.01,
	}

	col := ipfix.NewCollector()
	agg := pipeline.NewAggregator(s.GeoIP(), s.DstMetadata)
	ipfixLink := chaos.NewLink(fault.ForKey(1), func(m []byte) {
		// Quarantinable messages are counted by the collector, not fatal.
		_ = col.HandleMessageBatch(m, func(_ uint32, recs []ipfix.FlowRecord) { agg.RecordBatch(recs) })
	})
	exp := ipfix.NewExporter(ipfixLink.Writer(), 1)

	s.Run(RunOptions{
		From: 0, To: to,
		Sink: RecordSinkFunc(func(h wan.Hour, link wan.LinkID, rec *ipfix.FlowRecord) {
			if err := exp.Export(rec, uint32(h)*3600); err != nil {
				t.Error(err)
			}
		}),
	})
	if err := exp.Flush(uint32(to) * 3600); err != nil {
		t.Fatal(err)
	}
	ipfixLink.Flush()

	recs := agg.Records()
	if len(recs) == 0 {
		t.Fatal("chaos run produced no aggregated records")
	}
	model := core.TrainHistorical(features.SetAP, recs, core.DefaultHistOpts())
	h := fnv.New64a()
	for i := 0; i < len(recs); i += 7 {
		for _, p := range model.Predict(core.Query{Flow: recs[i].Flow, K: 3}) {
			fmt.Fprintf(h, "%d|%d|%g\n", i, p.Link, p.Frac)
		}
	}
	return chaosRunResult{link: ipfixLink.Stats(), col: col.Stats(), preds: h.Sum64()}
}

// TestChaosReplayIsByteIdentical extends the determinism guarantee
// across the fault injector: the same seed and the same chaos config
// must replay the exact same fault schedule, so two runs produce
// byte-identical transport and collector stats — and a model
// trained downstream of the faults makes identical predictions.
func TestChaosReplayIsByteIdentical(t *testing.T) {
	const seed, hours = 11, 8
	a := chaosRun(t, seed, hours)
	b := chaosRun(t, seed, hours)
	if a != b {
		t.Fatalf("same seed + chaos config diverged:\n run1 %+v\n run2 %+v", a, b)
	}
	// The faults must actually have fired, or the test proves nothing.
	if a.link.Dropped == 0 || a.link.Reordered == 0 {
		t.Errorf("fault schedule barely fired: %+v", a.link)
	}
	// A different seed reshuffles both traffic and faults.
	if c := chaosRun(t, seed+1, hours); c == a {
		t.Fatal("different seed replayed identically; chaos schedule is not seed-driven")
	}
}

// TestInflateToUtilizationIsAFunctionOfTheSeed: an engineered
// incident's scale is a sum over the flows via the link, so it is a
// function of the seed only if the flows are summed in one order.
// Fresh same-seed simulators must inflate every link by the same bits.
func TestInflateToUtilizationIsAFunctionOfTheSeed(t *testing.T) {
	scales := func() map[wan.LinkID]uint64 {
		s := testSim(t, 31)
		out := make(map[wan.LinkID]uint64)
		for _, id := range s.Links() {
			out[id] = math.Float64bits(s.InflateToUtilization(id, 4, 0, 24))
		}
		return out
	}
	want := scales()
	for run := 0; run < 4; run++ {
		for id, got := range scales() {
			if got != want[id] {
				t.Fatalf("rebuild %d inflated link %d by %x, the first build by %x", run+1, id, got, want[id])
			}
		}
	}
}
