package obsv

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// counterClock is a monotonically ticking fake clock: every read
// advances by one, so span dumps from a seeded run are byte-stable.
// Atomic because the tracer's clock contract is concurrent use.
type counterClock struct{ n atomic.Int64 }

func (c *counterClock) read() int64 { return c.n.Add(1) }

func newTestTracer(capacity int) (*Tracer, *Recorder, *counterClock) {
	clk := &counterClock{}
	rec := NewRecorder(capacity)
	return NewTracer(rec, clk.read), rec, clk
}

func TestSpanLifecycleDeterministic(t *testing.T) {
	tr, rec, _ := newTestTracer(64)
	root := tr.StartRoot("cycle")
	root.SetInt("day", 3)
	child := tr.StartChild(root, "ingest")
	child.Event("checkpoint_write")
	child.SetStr("rung", "ensemble")
	childNs := child.End()
	rootNs := root.End()

	recs := rec.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	r0, r1 := recs[0], recs[1] // sorted by start: root first
	if r0.Name != "cycle" || r1.Name != "ingest" {
		t.Fatalf("names %q, %q", r0.Name, r1.Name)
	}
	if r0.Parent != 0 {
		t.Errorf("root parent = %d, want 0", r0.Parent)
	}
	if r1.Parent != r0.ID {
		t.Errorf("child parent = %d, want %d", r1.Parent, r0.ID)
	}
	if r1.Trace != r0.Trace {
		t.Errorf("child trace %v != root trace %v", r1.Trace, r0.Trace)
	}
	// The first clock read is the root's start; trace IDs derive from
	// clock + sequence, so the whole dump is reproducible.
	if r0.Start != 1 || (r0.Trace != TraceID{Hi: 1, Lo: 1}) {
		t.Errorf("root start %d trace %v; want start 1, trace {1 1}", r0.Start, r0.Trace)
	}
	if r1.NEvents != 1 || r1.Events[0].Name != "checkpoint_write" {
		t.Errorf("child events %v", r1.Events[:r1.NEvents])
	}
	if r1.NAttrs != 1 || !r1.Attrs[0].IsStr || r1.Attrs[0].Str != "ensemble" {
		t.Errorf("child attrs %v", r1.Attrs[:r1.NAttrs])
	}
	if r0.End <= r0.Start || r1.End <= r1.Start {
		t.Errorf("non-positive durations: root %d..%d child %d..%d", r0.Start, r0.End, r1.Start, r1.End)
	}
	// End returns the duration it recorded.
	if rootNs != r0.End-r0.Start || childNs != r1.End-r1.Start {
		t.Errorf("End returned root %d child %d; records say %d and %d", rootNs, childNs, r0.End-r0.Start, r1.End-r1.Start)
	}
}

func TestSpanStatusError(t *testing.T) {
	tr, rec, _ := newTestTracer(8)
	sp := tr.StartRoot("retrain")
	sp.Error("checkpoint write failed")
	sp.End()
	recs := rec.Snapshot()
	if recs[0].Status != StatusError || recs[0].Note != "checkpoint write failed" {
		t.Fatalf("status %v note %q", recs[0].Status, recs[0].Note)
	}
}

func TestStartFromNeverInventsRoot(t *testing.T) {
	tr, _, _ := newTestTracer(8)
	if sp := tr.StartFrom(SpanContext{}, "x"); sp != nil {
		t.Fatal("StartFrom(zero) made a span")
	}
	sc := SpanContext{Trace: TraceID{Hi: 1, Lo: 2}, Span: 3}
	sp := tr.StartFrom(sc, "x")
	if sp == nil {
		t.Fatal("StartFrom(nonzero) returned nil")
	}
	if got := sp.Context().Trace; got != sc.Trace {
		t.Fatalf("trace %v, want %v", got, sc.Trace)
	}
	rm := tr.StartRemote(sc, "y")
	rm.End()
	sp.End()
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRoot("x")
	if sp != nil {
		t.Fatal("nil tracer made a span")
	}
	// Every method on a nil span is a no-op.
	sp.SetInt("k", 1)
	sp.SetStr("k", "v")
	sp.Event("e")
	sp.Error("boom")
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span End = %d, want 0", d)
	}
	if sc := sp.Context(); sc != (SpanContext{}) {
		t.Fatalf("nil span context %+v not zero", sc)
	}
	if tr.StartChild(nil, "c") != nil || tr.StartFrom(SpanContext{}, "f") != nil {
		t.Fatal("nil tracer starts must return nil")
	}
}

func TestAttrEventOverflowDrops(t *testing.T) {
	tr, rec, _ := newTestTracer(8)
	sp := tr.StartRoot("overflow")
	for i := 0; i < maxSpanAttrs+2; i++ {
		sp.SetInt("k", int64(i))
	}
	for i := 0; i < maxSpanEvents+3; i++ {
		sp.Event("e")
	}
	sp.End()
	r := rec.Snapshot()[0]
	if r.NAttrs != maxSpanAttrs || r.NEvents != maxSpanEvents {
		t.Fatalf("nattrs %d nevents %d", r.NAttrs, r.NEvents)
	}
	if r.Dropped != 5 {
		t.Fatalf("dropped %d, want 5", r.Dropped)
	}
}

// TestUnsampledPathZeroAlloc pins the off switch's performance
// contract: with tracing disabled (nil tracer), the whole span API
// costs zero allocations.
func TestUnsampledPathZeroAlloc(t *testing.T) {
	var off *Tracer
	if n := testing.AllocsPerRun(200, func() {
		sp := off.StartRoot("x")
		sp.SetInt("k", 1)
		c := off.StartChild(sp, "c")
		c.Event("e")
		c.End()
		sp.End()
	}); n != 0 {
		t.Fatalf("disabled tracer: %v allocs/op, want 0", n)
	}
}

// TestSampledSteadyStateZeroAlloc proves the pool works: after warmup
// the recording path recycles spans instead of allocating.
func TestSampledSteadyStateZeroAlloc(t *testing.T) {
	tr, _, _ := newTestTracer(64)
	for i := 0; i < 100; i++ {
		tr.StartRoot("warm").End()
	}
	if n := testing.AllocsPerRun(500, func() {
		sp := tr.StartRoot("x")
		sp.SetInt("k", 1)
		sp.End()
	}); n != 0 {
		t.Fatalf("recording steady state: %v allocs/op, want 0", n)
	}
}

// BenchmarkSpanLifecycle times one span — start, one int attribute,
// end — against a recording tracer on the wall clock and against a nil
// one. The disabled number is what every instrumented hot path pays
// when tracing is off: a few nil checks.
func BenchmarkSpanLifecycle(b *testing.B) {
	for _, c := range []struct {
		name string
		tr   *Tracer
	}{
		{"sampled", NewTracer(NewRecorder(1024), nil)},
		{"disabled", nil},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sp := c.tr.StartRoot("bench")
				sp.SetInt("i", int64(i))
				sp.End()
			}
		})
	}
}

func TestRecorderEvictionAtCapacityBoundary(t *testing.T) {
	rec := NewRecorder(recShardCount) // exactly one slot per shard
	if rec.Cap() != recShardCount {
		t.Fatalf("cap %d, want %d", rec.Cap(), recShardCount)
	}
	// IDs 1..8 round-robin one record into each shard: full, nothing
	// evicted yet.
	for id := 1; id <= recShardCount; id++ {
		rec.add(&SpanRecord{ID: SpanID(id), Name: "first", Start: int64(id)})
	}
	if rec.Len() != recShardCount || rec.Evicted() != 0 {
		t.Fatalf("at boundary: len %d evicted %d", rec.Len(), rec.Evicted())
	}
	// One more record into shard 1 overwrites its only slot.
	rec.add(&SpanRecord{ID: SpanID(recShardCount + 1), Name: "second", Start: 100})
	if rec.Len() != recShardCount {
		t.Fatalf("after wrap: len %d, want %d", rec.Len(), recShardCount)
	}
	if rec.Evicted() != 1 {
		t.Fatalf("evicted %d, want 1", rec.Evicted())
	}
	var names []string
	for _, r := range rec.Snapshot() {
		if r.ID == SpanID(1) {
			t.Errorf("evicted record %d still present", r.ID)
		}
		names = append(names, r.Name)
	}
	if strings.Count(strings.Join(names, ","), "second") != 1 {
		t.Errorf("overwriting record missing: %v", names)
	}
}

func TestRecorderMinimumCapacity(t *testing.T) {
	rec := NewRecorder(0)
	if rec.Cap() != recShardCount {
		t.Fatalf("cap %d, want one slot per shard", rec.Cap())
	}
}

func TestRecorderConcurrent(t *testing.T) {
	tr, rec, _ := newTestTracer(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.StartRoot("g")
				c := tr.StartChild(sp, "c")
				c.End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := rec.Len(); got != rec.Cap() {
		t.Fatalf("len %d, want full ring %d", got, rec.Cap())
	}
	if rec.Evicted() == 0 {
		t.Fatal("expected evictions after 3200 spans through a 128-slot ring")
	}
	recs := rec.Snapshot()
	for i := 1; i < len(recs); i++ {
		if recs[i].Start < recs[i-1].Start {
			t.Fatal("snapshot not sorted by start")
		}
	}
}

func TestTraceSpansFilters(t *testing.T) {
	tr, rec, _ := newTestTracer(64)
	a := tr.StartRoot("a")
	ac := tr.StartChild(a, "a_child")
	b := tr.StartRoot("b")
	ac.End()
	a.End()
	b.End()
	trace := a.Context() // safe: Context was read before End in real code
	_ = trace
	all := rec.Snapshot()
	var aTrace TraceID
	for _, r := range all {
		if r.Name == "a" {
			aTrace = r.Trace
		}
	}
	got := rec.TraceSpans(aTrace)
	if len(got) != 2 {
		t.Fatalf("trace filter returned %d spans, want 2", len(got))
	}
	for _, r := range got {
		if r.Trace != aTrace {
			t.Fatalf("foreign trace %v in filter", r.Trace)
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: TraceID{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}, Span: 0x1a2b3c4d5e6f7081}
	wire := sc.Traceparent()
	want := "00-0123456789abcdeffedcba9876543210-1a2b3c4d5e6f7081-01"
	if wire != want {
		t.Fatalf("wire %q, want %q", wire, want)
	}
	back, ok := ParseTraceparent(wire)
	if !ok || back != sc {
		t.Fatalf("round trip: %+v ok=%v", back, ok)
	}
	// An unsampled caller's context parses to the same context: the
	// flag does not decide recording.
	back, ok = ParseTraceparent(want[:len(want)-2] + "00")
	if !ok || back != sc {
		t.Fatalf("unsampled parse: %+v ok=%v", back, ok)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := "00-0123456789abcdeffedcba9876543210-1a2b3c4d5e6f7081-01"
	bad := []string{
		"",
		valid[:54],             // short
		valid + "0",            // long
		strings.ToUpper(valid), // uppercase hex is invalid per spec
		"ff" + valid[2:],       // reserved version
		"00-00000000000000000000000000000000-1a2b3c4d5e6f7081-01", // zero trace
		"00-0123456789abcdeffedcba9876543210-0000000000000000-01", // zero span
		strings.Replace(valid, "-", "_", 1),                       // wrong separator
		strings.Replace(valid, "a", "g", 1),                       // non-hex digit
		valid[:53] + "0g",                                         // non-hex flags
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("accepted %q", s)
		}
	}
}

func TestParseTraceID(t *testing.T) {
	id, ok := ParseTraceID("0123456789abcdeffedcba9876543210")
	if !ok || (id != TraceID{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}) {
		t.Fatalf("got %v ok=%v", id, ok)
	}
	for _, s := range []string{"", "123", strings.Repeat("g", 32), strings.Repeat("A", 32)} {
		if _, ok := ParseTraceID(s); ok {
			t.Errorf("accepted %q", s)
		}
	}
}

func TestInjectExtractHeader(t *testing.T) {
	h := make(map[string][]string)
	InjectTraceparent(h, SpanContext{}) // zero context: no header
	if len(h) != 0 {
		t.Fatal("zero context wrote a header")
	}
	sc := SpanContext{Trace: TraceID{Hi: 1, Lo: 2}, Span: 3}
	InjectTraceparent(h, sc)
	got, ok := ExtractTraceparent(h)
	if !ok || got != sc {
		t.Fatalf("extract: %+v ok=%v", got, ok)
	}
}

// TestSpanDumpGolden pins the JSON span-dump format for a seeded
// two-span trace: deterministic clock, deterministic IDs, byte-stable
// output.
func TestSpanDumpGolden(t *testing.T) {
	tr, rec, _ := newTestTracer(16)
	root := tr.StartRoot("predict")
	root.SetInt("flows", 2)
	child := tr.StartChild(root, "feature_encode")
	child.Event("demote_ensemble")
	child.Error("bad address")
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteSpansJSON(&buf, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `[
  {
    "trace": "00000000000000010000000000000001",
    "span": "0000000000000001",
    "name": "predict",
    "start_ns": 1,
    "dur_ns": 4,
    "status": "ok",
    "attrs": {
      "flows": 2
    }
  },
  {
    "trace": "00000000000000010000000000000001",
    "span": "0000000000000002",
    "parent": "0000000000000001",
    "name": "feature_encode",
    "start_ns": 2,
    "dur_ns": 2,
    "status": "error",
    "note": "bad address",
    "events": [
      {
        "name": "demote_ensemble",
        "at_ns": 3
      }
    ]
  }
]
`
	if got := buf.String(); got != want {
		t.Errorf("span dump mismatch:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestRecorderConcurrentCapAndAdds hammers add from several
// goroutines while polling the read-side accessors: Cap once read
// shard 0's buffer length without its lock, and this pins the locked
// read under the race detector.
func TestRecorderConcurrentCapAndAdds(t *testing.T) {
	r := NewRecorder(32)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				rec := SpanRecord{ID: SpanID(uint64(w*500 + i)), Start: int64(i)}
				r.add(&rec)
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		if got := r.Cap(); got != 32 {
			t.Fatalf("Cap = %d, want 32", got)
		}
		_ = r.Len()
		_ = r.Evicted()
		_ = r.Snapshot()
	}
	wg.Wait()
	if got := r.Len(); got != 32 {
		t.Fatalf("Len after fill = %d, want 32", got)
	}
	if got := r.Cap(); got != 32 {
		t.Fatalf("Cap after fill = %d, want 32", got)
	}
}
