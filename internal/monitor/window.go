package monitor

import (
	"sort"

	"tipsy/internal/geo"
	"tipsy/internal/wan"
)

// cell accumulates joined quality over some slice of traffic: how
// many (hour, flow) groups joined, the actual bytes they carried, and
// the bytes credited to the served predictions at top-1 and top-3.
type cell struct {
	groups int64
	bytes  uint64
	cred1  float64
	cred3  float64
}

func (c *cell) add(o cell) {
	c.groups += o.groups
	c.bytes += o.bytes
	c.cred1 += o.cred1
	c.cred3 += o.cred3
}

// top1 and top3 are byte-weighted accuracy — the same ratio
// eval.Accuracy reports offline.
func (c cell) top1() float64 {
	if c.bytes == 0 {
		return 0
	}
	return c.cred1 / float64(c.bytes)
}

func (c cell) top3() float64 {
	if c.bytes == 0 {
		return 0
	}
	return c.cred3 / float64(c.bytes)
}

// totals is joined quality overall and sliced three ways: one hour's
// bucket, the sum of a window's live buckets, or a frozen snapshot of
// one used as the drift baseline.
type totals struct {
	overall cell
	byMetro map[geo.MetroID]cell
	byKind  map[string]cell
	byRung  map[string]cell
}

func (t *totals) add(o *totals) {
	t.overall.add(o.overall)
	mergeSlices(&t.byMetro, o.byMetro)
	mergeSlices(&t.byKind, o.byKind)
	mergeSlices(&t.byRung, o.byRung)
}

// bucket is one simulated hour of joined quality. Buckets live in a
// ring indexed by hour modulo the window length; writing a new hour
// into a slot evicts the hour WindowHours earlier.
type bucket struct {
	hour wan.Hour // -1 while the slot has never been written
	totals
}

func (b *bucket) reset(h wan.Hour) { *b = bucket{hour: h} }

// windowTotals sums the buckets covering hours (h-WindowHours, h].
// Slots still holding older hours (not yet overwritten) are skipped,
// so eviction is by hour arithmetic, not by slot reuse.
func (m *Monitor) windowTotals(h wan.Hour) totals {
	var t totals
	lo := h - wan.Hour(m.cfg.WindowHours)
	for i := range m.ring {
		b := &m.ring[i]
		if b.hour < 0 || b.hour <= lo || b.hour > h {
			continue
		}
		t.add(&b.totals)
	}
	return t
}

// SliceQuality is one slice's joined accuracy in a report.
type SliceQuality struct {
	Key    string  `json:"key"`
	Groups int64   `json:"groups"`
	Bytes  uint64  `json:"bytes"`
	Top1   float64 `json:"top1"`
	Top3   float64 `json:"top3"`
}

func sliceReport[K comparable](cells map[K]cell, keyOf func(K) string) []SliceQuality {
	out := make([]SliceQuality, 0, len(cells))
	for k, c := range cells {
		out = append(out, SliceQuality{
			Key: keyOf(k), Groups: c.groups, Bytes: c.bytes,
			Top1: c.top1(), Top3: c.top3(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
