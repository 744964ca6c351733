package pipeline

import (
	"sync/atomic"
	"testing"

	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/ipfix"
	"tipsy/internal/obsv"
)

type truthCounter struct{ n int }

func (tc *truthCounter) ObserveTruth(features.Record) { tc.n++ }

func spansByName(recs []obsv.SpanRecord) map[string][]obsv.SpanRecord {
	out := make(map[string][]obsv.SpanRecord)
	for _, r := range recs {
		out[r.Name] = append(out[r.Name], r)
	}
	return out
}

func TestAggregatorSpansAttachToTrace(t *testing.T) {
	var tick atomic.Int64
	rec := obsv.NewRecorder(64)
	tr := obsv.NewTracer(rec, func() int64 { return tick.Add(1) })

	g := geo.NewGeoIP(geo.World(), 0, 1)
	a := NewAggregator(g, staticMeta(1, 1))
	tc := &truthCounter{}
	a.SetTruthSink(tc)

	root := tr.StartRoot("cycle")
	a.SetTrace(tr, root.Context())

	recs := []ipfix.FlowRecord{
		{SrcAddr: 0x0b000001, DstAddr: 40 << 24, Octets: 100, Ingress: 3, StartSecs: 3600},
		{SrcAddr: 0x0b000002, DstAddr: 40 << 24, Octets: 200, Ingress: 3, StartSecs: 3600},
	}
	a.RecordBatch(recs)
	out := a.Records()
	root.End()

	// Both flows share a /24, link, and hour, so they aggregate to one.
	if len(out) != 1 || tc.n != 1 {
		t.Fatalf("drained %d records, truth saw %d", len(out), tc.n)
	}
	byName := spansByName(rec.Snapshot())
	for _, name := range []string{"cycle", "aggregate_batch", "drain", "truth_join"} {
		got := byName[name]
		if len(got) != 1 {
			t.Fatalf("span %q: %d records, want 1 (have %v)", name, len(got), byName)
		}
		if got[0].Trace != root.Context().Trace {
			t.Errorf("span %q on trace %v, want the cycle root's %v",
				name, got[0].Trace, root.Context().Trace)
		}
	}
	// aggregate_batch counts raw input records; drain counts output.
	if sp := byName["aggregate_batch"][0]; sp.NAttrs != 1 || sp.Attrs[0].Int != 2 {
		t.Errorf("aggregate_batch attrs %+v", sp.Attrs[:sp.NAttrs])
	}
	if sp := byName["drain"][0]; sp.Attrs[0].Int != int64(len(out)) {
		t.Errorf("drain records attr %d, want %d", sp.Attrs[0].Int, len(out))
	}
	// truth_join is a child of drain, not of the root.
	if tj, dr := byName["truth_join"][0], byName["drain"][0]; tj.Parent != dr.ID {
		t.Errorf("truth_join parented by %d, want drain span %d", tj.Parent, dr.ID)
	}
}

func TestAggregatorUntracedEmitsNoSpans(t *testing.T) {
	rec := obsv.NewRecorder(64)
	tr := obsv.NewTracer(rec, nil)

	g := geo.NewGeoIP(geo.World(), 0, 1)
	a := NewAggregator(g, staticMeta(1, 1))
	// No SetTrace at all, then SetTrace with a zero context: both must
	// stay silent — spans only attach to a live ingest cycle.
	a.RecordBatch([]ipfix.FlowRecord{{SrcAddr: 0x0b000001, DstAddr: 40 << 24, Octets: 1}})
	a.SetTrace(tr, obsv.SpanContext{})
	a.RecordBatch([]ipfix.FlowRecord{{SrcAddr: 0x0b000001, DstAddr: 40 << 24, Octets: 1}})
	a.Records()
	if n := rec.Len(); n != 0 {
		t.Fatalf("untraced aggregator recorded %d spans", n)
	}
}
