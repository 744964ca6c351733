// Package obsv is TIPSY's observability substrate: a dependency-free
// metrics registry (counters, gauges, histograms with fixed log-scale
// buckets) and a lightweight prediction-path tracer. Every layer of
// the system — ingest, pipeline, serving — registers its counters
// here instead of keeping ad-hoc struct fields, so one snapshot shows
// the whole system and one /metrics endpoint exports it.
//
// Design constraints, in order:
//
//   - Race-safe: hot paths (the collector, the aggregator) bump
//     counters under concurrent load, so every metric is atomic and a
//     snapshot never blocks writers for long.
//   - Deterministic: snapshots and the text exposition iterate metrics
//     in sorted name order, so seeded runs produce goldenable output.
//   - Dependency-free: stdlib only, usable from any package without
//     import cycles.
//
// Metric names follow <subsystem>_<what>[_<unit>][_total] in snake
// case: counters end in _total, histograms carry their unit (_ns,
// _bytes), gauges are bare. Names are label-free; a variant belongs
// in the name (tipsyd_fallback_geo_total), keeping the registry flat
// and the text format trivially diffable.
package obsv

import (
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// HistBuckets is the fixed number of histogram buckets. Bucket i
// counts observations v with 2^(i-1) <= v < 2^i (bucket 0 counts
// v <= 0 and v = 1 lands in bucket 1), so the buckets cover the full
// useful range of nanosecond timings and byte sizes: 2^47 ns is about
// 39 hours.
const HistBuckets = 48

// Histogram counts observations into fixed base-2 log-scale buckets.
// The fixed layout keeps Observe allocation-free and snapshots
// goldenable: two histograms are always bucket-compatible.
type Histogram struct {
	counts [HistBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
}

// bucketIndex maps an observation to its bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= HistBuckets {
		return HistBuckets - 1
	}
	return i
}

// Observe records one value (e.g. nanoseconds or bytes).
func (h *Histogram) Observe(v int64) {
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveN records n observations of the same value in one shot —
// how the runtime/metrics bridge replays bucket-count deltas without
// n separate atomic round trips.
func (h *Histogram) ObserveN(v int64, n uint64) {
	if n == 0 {
		return
	}
	h.counts[bucketIndex(v)].Add(n)
	h.count.Add(n)
	h.sum.Add(v * int64(n))
}

// Count returns how many observations the histogram holds.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// HistogramSnapshot is a consistent-enough copy of a histogram: each
// field is read atomically, so concurrent Observes may skew count vs
// buckets by in-flight observations but never corrupt either.
type HistogramSnapshot struct {
	Count   uint64
	Sum     int64
	Buckets [HistBuckets]uint64
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. Get-or-create lookups (Counter, Gauge, Histogram) are
// cheap enough for setup paths but hot paths should hold on to the
// returned pointer.
type Registry struct {
	mu sync.RWMutex
	//tipsy:guardedby mu
	counters map[string]*Counter
	//tipsy:guardedby mu
	gauges map[string]*Gauge
	//tipsy:guardedby mu
	histograms map[string]*Histogram
	//tipsy:guardedby mu
	infos map[string]string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		infos:      make(map[string]string),
	}
}

// Counter returns the named counter, creating it on first use. A name
// already registered as a different metric kind panics: that is a
// programming error, not an operational condition.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c
	}
	r.checkFreeLocked(name, "counter")
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.gauges[name]; g != nil {
		return g
	}
	r.checkFreeLocked(name, "gauge")
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.histograms[name]; h != nil {
		return h
	}
	r.checkFreeLocked(name, "histogram")
	h = &Histogram{}
	r.histograms[name] = h
	return h
}

// checkFreeLocked panics if name is already registered as another
// metric kind. Callers hold r.mu.
func (r *Registry) checkFreeLocked(name, kind string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("obsv: %q already registered as a counter, requested as %s", name, kind))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obsv: %q already registered as a gauge, requested as %s", name, kind))
	}
	if _, ok := r.histograms[name]; ok {
		panic(fmt.Sprintf("obsv: %q already registered as a histogram, requested as %s", name, kind))
	}
	// Concatenation, not Sprintf: this function sits in the hot-path
	// closure (via Registry.Histogram) and Sprintf args would grow the
	// allocation budget's boxing count.
	if _, ok := r.infos[name]; ok {
		panic("obsv: " + name + " already registered as an info, requested as " + kind)
	}
}

// SetInfo registers a build-info-style metric: a constant-1 gauge
// whose payload is its label string (e.g. `version="v3",seed="17"`),
// the Prometheus idiom for exposing versions on /metrics. Infos
// appear only in the text exposition — Snapshot excludes them, so
// label churn (toolchain upgrades) never shows up in a comparison of
// two seeded runs' snapshots. Re-setting an info replaces its labels.
func (r *Registry) SetInfo(name, labels string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.infos[name]; !ok {
		r.checkFreeLocked(name, "info")
	}
	r.infos[name] = labels
}

// NamedValue is one scalar metric in a snapshot.
type NamedValue struct {
	Name  string
	Value int64
}

// NamedHistogram is one histogram in a snapshot.
type NamedHistogram struct {
	Name string
	Hist HistogramSnapshot
}

// Snapshot is a point-in-time copy of every registered metric, each
// section sorted by name. Counters are reported as int64 for JSON
// friendliness; they are far from overflowing in practice.
type Snapshot struct {
	Counters   []NamedValue
	Gauges     []NamedValue
	Histograms []NamedHistogram
}

// Snapshot copies every metric. Iteration order is deterministic
// (sorted by name), so snapshots of seeded runs are goldenable.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var s Snapshot
	for name, c := range r.counters {
		s.Counters = append(s.Counters, NamedValue{name, int64(c.Value())})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, NamedValue{name, g.Value()})
	}
	for name, h := range r.histograms {
		s.Histograms = append(s.Histograms, NamedHistogram{name, h.Snapshot()})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteText writes the Prometheus-style text exposition of the whole
// registry: deterministic order, counters and gauges one line each,
// histograms as cumulative le-labelled buckets (empty leading and
// trailing buckets elided) plus _sum and _count.
func (r *Registry) WriteText(w io.Writer) {
	s := r.Snapshot()
	for _, c := range s.Counters {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", c.Name, c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", g.Name, g.Name, g.Value)
	}
	r.mu.RLock()
	infoNames := make([]string, 0, len(r.infos))
	for name := range r.infos {
		infoNames = append(infoNames, name)
	}
	sort.Strings(infoNames)
	for _, name := range infoNames {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s{%s} 1\n", name, name, r.infos[name])
	}
	r.mu.RUnlock()
	for _, nh := range s.Histograms {
		fmt.Fprintf(w, "# TYPE %s histogram\n", nh.Name)
		lo, hi := 0, HistBuckets
		for lo < hi && nh.Hist.Buckets[lo] == 0 {
			lo++
		}
		for hi > lo && nh.Hist.Buckets[hi-1] == 0 {
			hi--
		}
		var cum uint64
		for i := lo; i < hi; i++ {
			cum += nh.Hist.Buckets[i]
			// Bucket i's inclusive upper bound is 2^i - 1.
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", nh.Name, uint64(1)<<uint(i)-1, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", nh.Name, nh.Hist.Count)
		fmt.Fprintf(w, "%s_sum %d\n", nh.Name, nh.Hist.Sum)
		fmt.Fprintf(w, "%s_count %d\n", nh.Name, nh.Hist.Count)
	}
}

// Handler serves the text exposition — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}
