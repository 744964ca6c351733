package tipsy

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"runtime"
	"testing"

	"tipsy/internal/dataset"
	"tipsy/internal/eval"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/ipfix"
	"tipsy/internal/netsim"
	"tipsy/internal/obsv"
	"tipsy/internal/pipeline"
	"tipsy/internal/serve"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

// reproduction is what one seeded environment leaves behind on the
// product path: the simulator's IPFIX export as bytes, the collector's
// decode into a registry-backed aggregator, its drain split into the
// training and test windows, tipsyd's fit, and the checkpoint bytes.
type reproduction struct {
	flows, links int
	exported     int
	collector    ipfix.CollectorStats
	raw, dropped uint64 // pipeline_records_raw_total, pipeline_records_dropped_total
	// wire is the drain of the aggregator fed from the byte stream,
	// direct that of one fed by the simulator in the same run.
	wire, direct []features.Record
	train, test  []features.Record
	models       *serve.Models
	checkpoint   []byte
}

func reproduce(t *testing.T, cfg eval.EnvConfig) *reproduction {
	t.Helper()
	metros := geo.World()
	g := topology.Generate(cfg.TopoCfg, metros)
	w := traffic.Generate(cfg.TrafficCfg, g, metros)
	sim := netsim.New(cfg.SimCfg, g, metros, w)
	r := &reproduction{flows: len(w.Flows), links: len(sim.Links())}

	var stream bytes.Buffer
	exp := ipfix.NewExporter(&stream, 1)
	direct := pipeline.NewAggregator(sim.GeoIP(), sim.DstMetadata)
	var expErr error
	sim.Run(netsim.RunOptions{
		From: 0, To: cfg.SimCfg.HorizonHours,
		Sink: netsim.RecordSinkFunc(func(h wan.Hour, link wan.LinkID, rec *ipfix.FlowRecord) {
			r.exported++
			if err := exp.Export(rec, uint32(h)*3600); err != nil && expErr == nil {
				expErr = err
			}
			direct.Record(h, link, rec)
		}),
	})
	if err := exp.Flush(uint32(cfg.SimCfg.HorizonHours) * 3600); err != nil && expErr == nil {
		expErr = err
	}
	if expErr != nil {
		t.Fatalf("export: %v", expErr)
	}

	reg := obsv.NewRegistry()
	col := ipfix.NewCollector()
	agg := pipeline.NewAggregatorOn(reg, sim.GeoIP(), sim.DstMetadata)
	if err := col.ReadStreamBatch(&stream, func(_ uint32, recs []ipfix.FlowRecord) { agg.RecordBatch(recs) }); err != nil {
		t.Fatalf("collect: %v", err)
	}
	r.collector = col.Stats()
	r.wire, r.direct = agg.Records(), direct.Records()
	r.raw = reg.Counter("pipeline_records_raw_total").Value()
	r.dropped = reg.Counter("pipeline_records_dropped_total").Value()

	trainTo := wan.Hour(cfg.TrainDays * 24)
	r.train = dataset.Window(r.wire, 0, trainTo)
	r.test = dataset.Window(r.wire, trainTo, cfg.SimCfg.HorizonHours)
	r.models = serve.Train(r.train, trainTo, sim, metros)
	ck := r.models.Checkpoint()
	var buf bytes.Buffer
	if err := ck.Save(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	r.checkpoint = buf.Bytes()
	return r
}

// TestReproduction pins seed 1 of the small environment, run over the
// IPFIX wire, to the values its report recorded in August 2026: the
// shape of the environment, the record counts at every hand-off, and
// the served ensemble's byte-weighted accuracy, all compared with ==;
// the served ladder's accuracy is pinned from its first run.
// The training window's §4.2 encoding must decode back to it; its pair
// count and dictionary sizes are pinned from their first run.
func TestReproduction(t *testing.T) {
	r := reproduce(t, eval.SmallEnvConfig(1))

	if r.flows != 3000 || r.links != 319 {
		t.Errorf("environment: %d flows, %d links; want 3000, 319", r.flows, r.links)
	}
	const records = 788_422
	if r.exported != records || r.collector.Records != records || r.raw != records {
		t.Errorf("records: %d exported, %d decoded, %d raw; want %d each",
			r.exported, r.collector.Records, r.raw, records)
	}
	if r.collector.Lost != 0 || r.collector.Quarantined != 0 || r.dropped != 0 {
		t.Errorf("records lost %d, quarantined %d, dropped %d; want none",
			r.collector.Lost, r.collector.Quarantined, r.dropped)
	}
	if len(r.wire) != 479_412 || !reflect.DeepEqual(r.wire, r.direct) {
		t.Errorf("the wire drained %d aggregates, the simulator's sink %d, want the same 479412",
			len(r.wire), len(r.direct))
	}
	if len(r.train) != 348_174 || len(r.test) != 131_238 {
		t.Errorf("windows: %d train, %d test records; want 348174, 131238", len(r.train), len(r.test))
	}
	enc := pipeline.Encode(r.train)
	if !reflect.DeepEqual(enc.Decode(), r.train) {
		t.Error("the encoded training window does not decode to itself")
	}
	if got, want := [6]int{len(enc.Pairs), enc.AS.Len(), enc.Prefix.Len(), enc.Loc.Len(), enc.Region.Len(), enc.Type.Len()},
		[6]int{3072, 120, 829, 64, 45, 6}; got != want {
		t.Errorf("encoding: pairs and AS, prefix, location, region, type dictionaries %v; want %v", got, want)
	}
	acc := eval.Accuracy(r.models.Ensemble(), r.test, eval.Options{Ks: []int{1, 3}})
	if acc[1] != 0.7730017342917006 || acc[3] != 0.8948565250626218 {
		t.Errorf("ensemble accuracy: top-1 %v, top-3 %v; want 0.7730017342917006, 0.8948565250626218",
			acc[1], acc[3])
	}
	acc = eval.Accuracy(r.models, r.test, eval.Options{Ks: []int{1, 3}})
	if acc[1] != 0.7730017342917006 || acc[3] != 0.8948565250626218 {
		t.Errorf("served accuracy: top-1 %v, top-3 %v; want 0.7730017342917006, 0.8948565250626218",
			acc[1], acc[3])
	}
}

// quickCheckpointSHA256 is the checkpoint of quickConfig's fit.
const quickCheckpointSHA256 = "9e95025ace7189cdd5b7b0fa4f803117fa62b50f5660ad181ebdf31b7800ba8f"

// quickConfig is the small environment cut to 1,000 flows over four
// training days and two test days.
func quickConfig() eval.EnvConfig {
	cfg := eval.SmallEnvConfig(1)
	cfg.TrainDays, cfg.TestDays = 4, 2
	cfg.TrafficCfg.NFlows = 1000
	cfg.SimCfg.HorizonHours = wan.Hour((cfg.TrainDays + cfg.TestDays) * 24)
	return cfg
}

// TestCheckpointSameAtAnyGOMAXPROCS runs the whole path, simulator
// workers to checkpoint bytes, at GOMAXPROCS 1, 2 and 8: the
// checkpoint a day produces is one byte string, pinned.
func TestCheckpointSameAtAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		sum := sha256.Sum256(reproduce(t, quickConfig()).checkpoint)
		if got := hex.EncodeToString(sum[:]); got != quickCheckpointSHA256 {
			t.Errorf("GOMAXPROCS %d: checkpoint sha256 %s, want %s", procs, got, quickCheckpointSHA256)
		}
	}
}
