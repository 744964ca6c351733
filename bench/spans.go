package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary. Spans of one
// operation share its root; id and parent index into tracer.spans
// (offset by one, so 0 means none).
type span struct {
	name       string
	parent     int
	lane       int // client or stream, the Chrome trace's thread
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0 time.Time
	mu sync.Mutex
	//tipsy:guardedby mu
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent and returns its id.
func (t *tracer) start(name string, parent, lane int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, lane: lane, start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = now
}

// add records a finished span of length dur that began at began. It
// carries time summed over many short calls (one callback per IPFIX
// message) as one child span.
func (t *tracer) add(name string, parent, lane int, began time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	s := began.Sub(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, lane: lane, start: s, end: s + dur})
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerRow is one line of the layer table.
type layerRow struct {
	name  string
	calls int
	// raw sums the spans' own durations; self sums their self time
	// attributed to the op's wall clock (see layerTable).
	raw, self time.Duration
}

// layerTable turns spans into per-layer self times that sum to the
// total duration of the root "op" spans by construction.
//
// A span's self time is its duration minus the part of it that its
// children cover. Where children run in parallel (the two streams of
// ingest_wire) every instant of wall clock is split evenly among the
// children active in it, so parallel layers share the wall clock
// instead of each claiming all of it; a child's own breakdown is
// scaled to the share it was given. Spans outside any op are in the
// trace file but not in the table.
func layerTable(spans []span) (rows []layerRow, ops int, total time.Duration) {
	children := make([][]int, len(spans)+1)
	for i, s := range spans {
		if s.parent != 0 || s.name == "op" {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	byName := map[string]*layerRow{}
	var walk func(i int, scale float64)
	walk = func(i int, scale float64) {
		s := spans[i]
		kids := children[i+1]
		// Clip the children to the parent and cut the parent's interval
		// at every child boundary.
		lo, hi := make([]time.Duration, len(kids)), make([]time.Duration, len(kids))
		var cuts []time.Duration
		for j, k := range kids {
			lo[j], hi[j] = max(spans[k].start, s.start), min(spans[k].end, s.end)
			if hi[j] > lo[j] {
				cuts = append(cuts, lo[j], hi[j])
			}
		}
		sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
		share := make([]float64, len(kids))
		var covered time.Duration
		for c := 0; c+1 < len(cuts); c++ {
			var active []int
			for j := range kids {
				if lo[j] <= cuts[c] && hi[j] >= cuts[c+1] && hi[j] > lo[j] {
					active = append(active, j)
				}
			}
			if seg := cuts[c+1] - cuts[c]; seg > 0 && len(active) > 0 {
				covered += seg
				for _, j := range active {
					share[j] += float64(seg) / float64(len(active))
				}
			}
		}
		row := byName[s.name]
		if row == nil {
			row = &layerRow{name: s.name}
			byName[s.name] = row
		}
		row.calls++
		row.raw += s.end - s.start
		row.self += time.Duration(float64(s.end-s.start-covered) * scale)
		for j, k := range kids {
			if dur := spans[k].end - spans[k].start; dur > 0 {
				walk(k, scale*share[j]/float64(dur))
			}
		}
	}
	for _, i := range children[0] {
		ops++
		total += spans[i].end - spans[i].start
		walk(i, 1)
	}
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	return rows, ops, total
}

// printLayerTable prints mean self time per op and layer. The rows
// sum to the mean op time.
func printLayerTable(w io.Writer, rows []layerRow, ops int, total time.Duration) {
	if ops == 0 {
		return
	}
	fmt.Fprintf(w, "layer table: %d traced ops, mean op %.4f ms\n", ops, ms(total)/float64(ops))
	fmt.Fprintf(w, "  %-28s %10s %14s %8s\n", "layer", "calls/op", "self ms/op", "share")
	var sum time.Duration
	for _, r := range rows {
		sum += r.self
		fmt.Fprintf(w, "  %-28s %10.2f %14.4f %7.1f%%\n", r.name,
			float64(r.calls)/float64(ops), ms(r.self)/float64(ops), 100*float64(r.self)/float64(total))
	}
	fmt.Fprintf(w, "  %-28s %10s %14.4f %7.1f%%\n", "sum", "", ms(sum)/float64(ops), 100*float64(sum)/float64(total))
}

// writeChromeTrace writes the spans as a Chrome trace_event array,
// loadable in about:tracing and Perfetto.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Args struct {
			ID     int `json:"id"`
			Parent int `json:"parent"`
			Op     int `json:"op"`
		} `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		e := event{Name: s.name, Cat: "bench", Ph: "X", PID: 1, TID: s.lane,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3}
		// A parent is recorded before its children, so its op id (the
		// id of the root span) is already known.
		e.Args.ID, e.Args.Parent, e.Args.Op = i+1, s.parent, i+1
		if s.parent != 0 {
			e.Args.Op = events[s.parent-1].Args.Op
		}
		events[i] = e
	}
	return json.NewEncoder(w).Encode(events)
}
