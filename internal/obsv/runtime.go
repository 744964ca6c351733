package obsv

import (
	"math"
	"runtime/metrics"
	"sync"
)

// RuntimeBridge samples the Go runtime's own metrics into a Registry:
// heap and goroutine gauges, the GC cycle count, and the GC pause and
// scheduler latency distributions as registry histograms. The runtime
// exposes the distributions as cumulative float64 histograms, so each
// Sample observes the per-bucket count delta since the previous
// Sample at the bucket's upper bound (in nanoseconds) — cheap, and
// accurate to within a bucket width, which is all a log-scale
// histogram preserves anyway.
//
// Sample is pull-driven: tipsyd calls it on each /metrics scrape and
// before writing a diagnostic bundle, so idle processes pay nothing.
type RuntimeBridge struct {
	mu sync.Mutex
	//tipsy:guardedby mu
	samples []metrics.Sample

	heapBytes  *Gauge
	goroutines *Gauge
	gcCycles   *Gauge
	gcPause    *Histogram
	schedLat   *Histogram

	//tipsy:guardedby mu
	prevPause []uint64
	//tipsy:guardedby mu
	prevSched []uint64
}

const (
	sampleHeapBytes  = "/memory/classes/heap/objects:bytes"
	sampleGoroutines = "/sched/goroutines:goroutines"
	sampleGCCycles   = "/gc/cycles/total:gc-cycles"
	sampleGCPause    = "/gc/pauses:seconds"
	sampleSchedLat   = "/sched/latencies:seconds"
)

// NewRuntimeBridge registers the runtime metrics in reg and returns
// the bridge. Call Sample to refresh the values.
func NewRuntimeBridge(reg *Registry) *RuntimeBridge {
	return &RuntimeBridge{
		samples: []metrics.Sample{
			{Name: sampleHeapBytes},
			{Name: sampleGoroutines},
			{Name: sampleGCCycles},
			{Name: sampleGCPause},
			{Name: sampleSchedLat},
		},
		heapBytes:  reg.Gauge("runtime_heap_bytes"),
		goroutines: reg.Gauge("runtime_goroutines"),
		gcCycles:   reg.Gauge("runtime_gc_cycles"),
		gcPause:    reg.Histogram("runtime_gc_pause_ns"),
		schedLat:   reg.Histogram("runtime_sched_latency_ns"),
	}
}

// Sample reads the runtime metrics and updates the registry.
func (b *RuntimeBridge) Sample() {
	b.mu.Lock()
	defer b.mu.Unlock()
	metrics.Read(b.samples)
	for i := range b.samples {
		s := &b.samples[i]
		switch s.Name {
		case sampleHeapBytes:
			if s.Value.Kind() == metrics.KindUint64 {
				b.heapBytes.Set(int64(s.Value.Uint64()))
			}
		case sampleGoroutines:
			if s.Value.Kind() == metrics.KindUint64 {
				b.goroutines.Set(int64(s.Value.Uint64()))
			}
		case sampleGCCycles:
			if s.Value.Kind() == metrics.KindUint64 {
				b.gcCycles.Set(int64(s.Value.Uint64()))
			}
		case sampleGCPause:
			b.prevPause = observeHistDelta(b.gcPause, s, b.prevPause)
		case sampleSchedLat:
			b.prevSched = observeHistDelta(b.schedLat, s, b.prevSched)
		}
	}
}

// observeHistDelta replays the growth of a cumulative runtime
// histogram into h, observing each bucket's new count at the bucket's
// finite bound in nanoseconds. Returns the updated previous-counts
// slice.
func observeHistDelta(h *Histogram, s *metrics.Sample, prev []uint64) []uint64 {
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return prev
	}
	fh := s.Value.Float64Histogram()
	if fh == nil || len(fh.Buckets) != len(fh.Counts)+1 {
		return prev
	}
	if len(prev) != len(fh.Counts) {
		prev = make([]uint64, len(fh.Counts))
	}
	for i, c := range fh.Counts {
		d := c - prev[i]
		prev[i] = c
		if d == 0 {
			continue
		}
		// Prefer the bucket's upper bound; the +Inf tail falls back to
		// its lower bound, and a -Inf lower bound clamps to zero.
		sec := fh.Buckets[i+1]
		if math.IsInf(sec, 1) {
			sec = fh.Buckets[i]
		}
		if math.IsInf(sec, -1) || sec < 0 {
			sec = 0
		}
		h.ObserveN(int64(sec*1e9), d)
	}
	return prev
}
