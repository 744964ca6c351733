// Package dataset prepares aggregated telemetry for training and
// evaluation: time-windowing (the paper's 3-week training / 1-week
// testing split, Appendix B), outage inference from IPFIX data
// (§5.1.1: a peering link that received no bytes in a one-hour window
// is considered down — IPFIX is "the ground truth about the operating
// state of the network"), and the seen/unseen outage classification
// behind Tables 6 and 7.
package dataset

import (
	"slices"
	"sort"

	"tipsy/internal/features"
	"tipsy/internal/wan"
)

// Window returns the records with From <= Hour < To, preserving
// order. recs must be in hour order, as a drain, DailyRows and a
// loaded bundle are: the window is then one run of recs, found by two
// binary searches. It is a view of recs, not a copy, with its capacity
// clipped to its length, so an append to it reallocates instead of
// writing into recs. A caller that edits a window in place edits recs
// and must copy it first.
func Window(recs []features.Record, from, to wan.Hour) []features.Record {
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].Hour >= from })
	hi := lo + sort.Search(len(recs)-lo, func(i int) bool { return recs[lo+i].Hour >= to })
	return recs[lo:hi:hi]
}

// DailyRows sums hourly records into one row per (day, flow, link),
// days counted in 24-hour steps from start (hours before start fall in
// negative days). A row's Bytes is the day's total, added in input
// order, and its Hour is the pair's first hour that day. Records with
// !(Bytes > 0) are dropped, as core.TrainHistorical drops them. The
// rows come out strictly increasing under features.Record.Compare.
//
// A Historical fit over the rows equals the fit over the records bit
// for bit while every row's day total stays below 2^53: float64 adds
// the day's integer byte counts exactly, and the fit adds the rows as
// uint64. Sorting the rows keeps each flow's first sighting at the
// hour, and in the order, the records had it. A window cut at start
// plus a multiple of 24 hours never splits a row's day.
func DailyRows(recs []features.Record, start wan.Hour) []features.Record {
	dayOf := func(h wan.Hour) int64 {
		d := int64(h) - int64(start)
		if d < 0 {
			d -= 23
		}
		return d / 24
	}
	// Pairs intern to dense ids; each pair chains its rows newest
	// first, so drain-ordered input finds its row at the chain's head.
	pairs := features.NewIndex(1 << 10)
	var head []int32 // by pair: its newest row
	var prev []int32 // by row: the pair's row before it
	var rows []features.Record
	for i := range recs {
		r := &recs[i]
		if !(r.Bytes > 0) {
			continue
		}
		k := r.Flow.Key(r.Link)
		p, ok := pairs.Find(k)
		if !ok {
			p, _ = pairs.Intern(k, int32(len(head)))
			head = append(head, -1)
		}
		day := dayOf(r.Hour)
		j := head[p]
		for j >= 0 && dayOf(rows[j].Hour) != day {
			j = prev[j]
		}
		if j < 0 {
			prev = append(prev, head[p])
			head[p] = int32(len(rows))
			rows = append(rows, *r)
			continue
		}
		rows[j].Bytes += r.Bytes
		rows[j].Hour = min(rows[j].Hour, r.Hour)
	}
	slices.SortFunc(rows, features.Record.Compare)
	return rows
}

// InferredOutage is one outage event reconstructed from telemetry.
type InferredOutage struct {
	Link  wan.LinkID
	Start wan.Hour // inclusive
	End   wan.Hour // exclusive
}

// Duration returns the event length in hours.
func (o InferredOutage) Duration() wan.Hour { return o.End - o.Start }

// InferOptions tunes outage inference.
type InferOptions struct {
	// MinDuration/MaxDuration band outage durations; the paper uses 1
	// to 24 hours — longer gaps tend to be decommissionings or
	// disasters, and sub-hour events are invisible at hourly
	// aggregation.
	MinDuration, MaxDuration wan.Hour
	// MinActiveFraction is how often a link must carry traffic inside
	// the window to be considered monitored at all; silent-by-nature
	// links would otherwise read as permanently down. Sampling can
	// also blank a quiet link's hour, which this filter plus the
	// duration band keeps from registering as churn.
	MinActiveFraction float64
}

// DefaultInferOptions matches the paper's evaluation band.
func DefaultInferOptions() InferOptions {
	return InferOptions{MinDuration: 1, MaxDuration: 24, MinActiveFraction: 0.33}
}

// InferOutages reconstructs outage events inside [from, to) from
// aggregated records: for every monitored link, maximal runs of hours
// with zero bytes whose length falls inside the duration band.
func InferOutages(recs []features.Record, from, to wan.Hour, opts InferOptions) []InferredOutage {
	if to <= from {
		return nil
	}
	n := int(to - from)
	active := make(map[wan.LinkID][]bool)
	for _, r := range recs {
		if r.Hour < from || r.Hour >= to || r.Bytes <= 0 {
			continue
		}
		row := active[r.Link]
		if row == nil {
			row = make([]bool, n)
			active[r.Link] = row
		}
		row[r.Hour-from] = true
	}
	var out []InferredOutage
	links := make([]wan.LinkID, 0, len(active))
	for l := range active {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	for _, l := range links {
		row := active[l]
		activeHours := 0
		for _, a := range row {
			if a {
				activeHours++
			}
		}
		if float64(activeHours)/float64(n) < opts.MinActiveFraction {
			continue
		}
		for i := 0; i < n; {
			if row[i] {
				i++
				continue
			}
			j := i
			for j < n && !row[j] {
				j++
			}
			// Gaps touching the window edges are censored: their
			// true extent is unknown.
			if i > 0 && j < n {
				d := wan.Hour(j - i)
				if d >= opts.MinDuration && d <= opts.MaxDuration {
					out = append(out, InferredOutage{Link: l, Start: from + wan.Hour(i), End: from + wan.Hour(j)})
				}
			}
			i = j
		}
	}
	return out
}

// OutageIndex answers "was link l down at hour h" over a set of
// inferred outages.
type OutageIndex struct {
	byLink map[wan.LinkID][]InferredOutage
}

// NewOutageIndex indexes the events.
func NewOutageIndex(events []InferredOutage) *OutageIndex {
	idx := &OutageIndex{byLink: make(map[wan.LinkID][]InferredOutage)}
	for _, e := range events {
		idx.byLink[e.Link] = append(idx.byLink[e.Link], e)
	}
	for l := range idx.byLink {
		evs := idx.byLink[l]
		sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
	}
	return idx
}

// Down reports whether link was inferred down at hour h.
func (idx *OutageIndex) Down(link wan.LinkID, h wan.Hour) bool {
	evs := idx.byLink[link]
	i := sort.Search(len(evs), func(i int) bool { return evs[i].Start > h })
	return i > 0 && h < evs[i-1].End
}

// HasOutage reports whether link has any inferred outage.
func (idx *OutageIndex) HasOutage(link wan.LinkID) bool {
	return len(idx.byLink[link]) > 0
}

// Events returns the indexed outages of one link in start order.
func (idx *OutageIndex) Events(link wan.LinkID) []InferredOutage { return idx.byLink[link] }

// Links returns every link with at least one event, ascending.
func (idx *OutageIndex) Links() []wan.LinkID {
	out := make([]wan.LinkID, 0, len(idx.byLink))
	for l := range idx.byLink {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
