package obsv

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the span half of the tracing subsystem: real
// parent/child spans with trace IDs, attributes, events, and status,
// recorded into the flight recorder (recorder.go) and propagated
// across process boundaries as W3C traceparent (propagate.go).
//
// Two properties shape every line here:
//
//   - Determinism. IDs come from an injectable clock plus a
//     per-process sequence, so a seeded run with a fake clock produces
//     byte-identical span dumps (goldenable).
//   - Zero-alloc off switch. A nil *Tracer or a nil *Span makes every
//     method a nil-check-and-return. A non-nil tracer records every
//     span; spans are pooled. The tracing calls sit inside functions
//     whose allocations per call are pinned with testing.AllocsPerRun
//     (ipfix, pipeline, serve, tipsyd), so nothing in this file may
//     box, convert strings, or allocate in a loop.

// TraceID identifies one end-to-end trace (a request, an ingest
// cycle). The zero value means "no trace".
type TraceID struct {
	Hi, Lo uint64
}

// IsZero reports whether t is the absent trace ID.
func (t TraceID) IsZero() bool { return t.Hi == 0 && t.Lo == 0 }

// String renders the ID as 32 lowercase hex digits — the traceparent
// wire form.
func (t TraceID) String() string {
	var b [32]byte
	hex64(t.Hi, b[:16])
	hex64(t.Lo, b[16:])
	return string(b[:])
}

// SpanID identifies one span within the process. IDs are a process
// sequence, so span 0 never exists and parent==0 marks a root.
type SpanID uint64

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string {
	var b [16]byte
	hex64(uint64(id), b[:])
	return string(b[:])
}

const hexDigits = "0123456789abcdef"

func hex64(v uint64, dst []byte) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = hexDigits[v&0xF]
		v >>= 4
	}
}

// SpanContext is the propagatable slice of a span: enough to parent a
// child in another goroutine, subsystem, or process. The zero value
// parents nothing — StartFrom on it returns nil.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// SpanStatus is the terminal status of a span.
type SpanStatus uint8

const (
	StatusOK SpanStatus = iota
	StatusError
)

func (s SpanStatus) String() string {
	if s == StatusError {
		return "error"
	}
	return "ok"
}

// Attr is one span attribute: a key with either a string or an int64
// value. Fixed-shape (no interface) so attaching one never boxes.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsStr bool
}

// SpanEvent is a point-in-time marker inside a span (quarantine,
// rung demotion, checkpoint write).
type SpanEvent struct {
	Name string
	At   int64 // clock nanoseconds
}

// Capacity of the inline attribute/event arrays. Overflow increments
// Dropped instead of allocating — spans on hot paths must stay flat.
const (
	maxSpanAttrs  = 4
	maxSpanEvents = 6
)

// SpanRecord is the flat, copyable record of one finished span. This
// is what the flight recorder stores: fixed size, no pointers beyond
// the interned strings, safe to memcpy into a ring slot.
type SpanRecord struct {
	Trace   TraceID
	ID      SpanID
	Parent  SpanID
	Name    string
	Start   int64 // clock nanoseconds
	End     int64
	Status  SpanStatus
	Note    string // status detail, set by Error
	Remote  bool   // parented by a traceparent from another process
	NAttrs  uint8
	NEvents uint8
	Dropped uint8 // attrs+events discarded after the inline arrays filled
	Attrs   [maxSpanAttrs]Attr
	Events  [maxSpanEvents]SpanEvent
}

// Span is a live span. A nil *Span is the universal "not recording"
// value — every method nil-checks, so call sites never branch on
// whether tracing is on.
type Span struct {
	t   *Tracer
	rec SpanRecord
}

// Tracer mints spans and hands finished records to a Recorder. A nil
// *Tracer is fully disabled: every Start* returns nil at the cost of
// one comparison, with zero allocations.
type Tracer struct {
	clock func() int64
	rec   *Recorder
	seq   atomic.Uint64 // span ID sequence, process-wide per tracer
	pool  sync.Pool     // *Span, so spans recycle instead of allocating
}

// wallNanos is the default span clock.
//
//tipsy:clocksource
func wallNanos() int64 { return time.Now().UnixNano() }

// NewTracer builds a tracer recording every span into rec (which may
// be nil: spans then run their lifecycle but records go nowhere —
// mainly useful in benchmarks). clock supplies nanosecond timestamps
// for every span start, end, and event; nil means the wall clock, and
// tests and tipsyd inject their own so dumps are deterministic.
func NewTracer(rec *Recorder, clock func() int64) *Tracer {
	if clock == nil {
		clock = wallNanos
	}
	t := &Tracer{clock: clock, rec: rec}
	t.pool.New = func() any { return new(Span) }
	return t
}

// StartRoot begins a new trace.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(name, TraceID{}, 0, false)
}

// StartChild begins a span under parent. A nil parent yields a nil
// span — an untraced caller stays untraced all the way down.
func (t *Tracer) StartChild(parent *Span, name string) *Span {
	if t == nil || parent == nil {
		return nil
	}
	return t.start(name, parent.rec.Trace, parent.rec.ID, false)
}

// StartFrom begins a span under a propagated context — how subsystems
// that only hold a SpanContext (the aggregator, the collector) attach
// their work to the caller's trace. A zero context yields nil;
// StartFrom never invents a new root.
func (t *Tracer) StartFrom(sc SpanContext, name string) *Span {
	if t == nil || sc.Trace.IsZero() {
		return nil
	}
	return t.start(name, sc.Trace, sc.Span, false)
}

// StartRemote is StartFrom for contexts that crossed a process
// boundary (extracted from a traceparent header): the span is marked
// Remote so dumps show where the trace entered this process. The
// caller's sampled flag does not decide recording: a tracer records
// every span, so durations read off spans count every request.
func (t *Tracer) StartRemote(sc SpanContext, name string) *Span {
	if t == nil || sc.Trace.IsZero() {
		return nil
	}
	return t.start(name, sc.Trace, sc.Span, true)
}

func (t *Tracer) start(name string, trace TraceID, parent SpanID, remote bool) *Span {
	s := t.pool.Get().(*Span)
	id := SpanID(t.seq.Add(1))
	now := t.clock()
	if trace.IsZero() {
		// Root: derive the trace ID from the clock and the span
		// sequence — unique per process, reproducible under a fake
		// clock.
		trace = TraceID{Hi: uint64(now), Lo: uint64(id)}
	}
	s.t = t
	s.rec = SpanRecord{Trace: trace, ID: id, Parent: parent, Name: name, Start: now, Remote: remote}
	return s
}

// Context returns the span's propagatable context; nil spans return
// the zero context, so propagation composes without branches.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.rec.Trace, Span: s.rec.ID}
}

// SetInt attaches an integer attribute. Past maxSpanAttrs the
// attribute is dropped (counted), never allocated.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	if s.rec.NAttrs == maxSpanAttrs {
		s.rec.Dropped++
		return
	}
	s.rec.Attrs[s.rec.NAttrs] = Attr{Key: key, Int: v}
	s.rec.NAttrs++
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	if s.rec.NAttrs == maxSpanAttrs {
		s.rec.Dropped++
		return
	}
	s.rec.Attrs[s.rec.NAttrs] = Attr{Key: key, Str: v, IsStr: true}
	s.rec.NAttrs++
}

// Event records a point-in-time marker at the current clock.
func (s *Span) Event(name string) {
	if s == nil {
		return
	}
	if s.rec.NEvents == maxSpanEvents {
		s.rec.Dropped++
		return
	}
	s.rec.Events[s.rec.NEvents] = SpanEvent{Name: name, At: s.t.clock()}
	s.rec.NEvents++
}

// Error marks the span failed with a short note.
func (s *Span) Error(note string) {
	if s == nil {
		return
	}
	s.rec.Status = StatusError
	s.rec.Note = note
}

// End stamps the end time, hands the record to the flight recorder,
// recycles the span, and returns its duration in clock nanoseconds —
// 0 for a nil span — so a caller can time a stage off its span. The
// span must not be used after End.
func (s *Span) End() int64 {
	if s == nil {
		return 0
	}
	t := s.t
	s.rec.End = t.clock()
	d := s.rec.End - s.rec.Start
	t.rec.add(&s.rec)
	s.t = nil
	t.pool.Put(s)
	return d
}
