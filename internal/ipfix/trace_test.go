package ipfix

import (
	"sync/atomic"
	"testing"

	"tipsy/internal/obsv"
)

func TestCollectorMarksQuarantineOnTrace(t *testing.T) {
	var tick atomic.Int64
	rec := obsv.NewRecorder(64)
	tr := obsv.NewTracer(rec, obsv.TracerOptions{Clock: func() int64 { return tick.Add(1) }})

	col := NewCollector()
	root := tr.StartRoot("ingest")
	col.SetTrace(tr, root.Context())

	fn := func(uint32, []FlowRecord) {}
	if err := col.HandleMessageBatch([]byte{1, 2, 3}, fn); err == nil {
		t.Fatal("short datagram accepted")
	}
	garbage := make([]byte, 64)
	garbage[1] = 0xff // bogus version
	if err := col.HandleMessageBatch(garbage, fn); err == nil {
		t.Fatal("garbage datagram accepted")
	}
	root.End()

	var marks int
	for _, r := range rec.Snapshot() {
		if r.Name != "ipfix_quarantine" {
			continue
		}
		marks++
		if r.Trace != root.Context().Trace {
			t.Errorf("quarantine mark on trace %v, want %v", r.Trace, root.Context().Trace)
		}
		if r.Parent != obsv.SpanID(root.Context().Span) {
			t.Errorf("quarantine mark parented by %d, want ingest root %d",
				r.Parent, root.Context().Span)
		}
	}
	if marks != 2 {
		t.Fatalf("quarantine marks = %d, want 2", marks)
	}
}

func TestCollectorUntracedQuarantineIsSilent(t *testing.T) {
	rec := obsv.NewRecorder(64)
	tr := obsv.NewTracer(rec, obsv.TracerOptions{})

	col := NewCollector()
	col.SetTrace(tr, obsv.SpanContext{}) // zero context: no live cycle
	if err := col.HandleMessageBatch([]byte{1, 2, 3}, func(uint32, []FlowRecord) {}); err == nil {
		t.Fatal("short datagram accepted")
	}
	if n := rec.Len(); n != 0 {
		t.Fatalf("untraced collector recorded %d spans", n)
	}
	if st := col.Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantine still counted in stats: %+v", st)
	}
}
