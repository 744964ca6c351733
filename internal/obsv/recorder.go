package obsv

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Recorder is the flight recorder: a fixed-size, lock-sharded ring of
// finished SpanRecords. It always holds the most recent spans; when a
// shard's ring is full the oldest record in that shard is overwritten
// (counted in Evicted). Add is O(1) with one short critical section;
// Snapshot copies everything out under the shard locks and sorts, so
// it is for dumps and debugging, not hot paths.
type Recorder struct {
	shards  [recShardCount]recShard
	evicted atomic.Uint64
}

const recShardCount = 8

type recShard struct {
	mu sync.Mutex
	// guarded by mu
	buf []SpanRecord
	// guarded by mu
	n uint64 // spans ever added to this shard; n % len(buf) is the write slot
}

// NewRecorder builds a recorder holding roughly capacity records
// (rounded up to a multiple of the shard count, minimum one slot per
// shard).
func NewRecorder(capacity int) *Recorder {
	per := (capacity + recShardCount - 1) / recShardCount
	if per < 1 {
		per = 1
	}
	r := &Recorder{}
	for i := range r.shards {
		r.shards[i].buf = make([]SpanRecord, per)
	}
	return r
}

// Cap returns the total record capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	sh := &r.shards[0]
	sh.mu.Lock()
	per := len(sh.buf)
	sh.mu.Unlock()
	return recShardCount * per
}

// add files one finished record. Span IDs are a process sequence, so
// id % shards round-robins writers across the locks.
func (r *Recorder) add(rec *SpanRecord) {
	if r == nil {
		return
	}
	sh := &r.shards[uint64(rec.ID)%recShardCount]
	sh.mu.Lock()
	if sh.n >= uint64(len(sh.buf)) {
		r.evicted.Add(1)
	}
	sh.buf[sh.n%uint64(len(sh.buf))] = *rec
	sh.n++
	sh.mu.Unlock()
}

// Len returns how many records are currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		if sh.n < uint64(len(sh.buf)) {
			n += int(sh.n)
		} else {
			n += len(sh.buf)
		}
		sh.mu.Unlock()
	}
	return n
}

// Evicted returns how many records have been overwritten since start.
func (r *Recorder) Evicted() uint64 {
	if r == nil {
		return 0
	}
	return r.evicted.Load()
}

// Snapshot copies out every held record, sorted by (Start, Trace, ID)
// so dumps of a deterministic run are byte-stable regardless of shard
// interleaving.
func (r *Recorder) Snapshot() []SpanRecord {
	if r == nil {
		return nil
	}
	out := make([]SpanRecord, 0, r.Cap())
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n := uint64(len(sh.buf))
		if sh.n < n {
			n = sh.n
		}
		out = append(out, sh.buf[:n]...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Trace != b.Trace {
			if a.Trace.Hi != b.Trace.Hi {
				return a.Trace.Hi < b.Trace.Hi
			}
			return a.Trace.Lo < b.Trace.Lo
		}
		return a.ID < b.ID
	})
	return out
}

// TraceSpans returns the held records belonging to one trace, in
// Snapshot order.
func (r *Recorder) TraceSpans(id TraceID) []SpanRecord {
	all := r.Snapshot()
	out := all[:0]
	for _, rec := range all {
		if rec.Trace == id {
			out = append(out, rec)
		}
	}
	return out
}
