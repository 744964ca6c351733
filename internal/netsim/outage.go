package netsim

import (
	"math"
	"math/rand"
	"sort"

	"tipsy/internal/wan"
)

// Outage is one contiguous down period of a peering link.
type Outage struct {
	Link  wan.LinkID
	Start wan.Hour // inclusive
	End   wan.Hour // exclusive
}

// Duration returns the outage length in hours.
func (o Outage) Duration() wan.Hour { return o.End - o.Start }

// OutageSchedule is a precomputed set of link outages over the
// simulation horizon. Outages on a link never overlap.
type OutageSchedule struct {
	byLink [][]Outage // index = LinkID-1, sorted by start
}

// GenOutages draws a Poisson outage process per link. ratePerYear is
// calibrated so that, matching Figure 6 of the paper, roughly 80% of
// links see at least one outage over a year. Durations are mostly in
// the 1–24h band the evaluation uses, with a small tail of multi-day
// events (decommissionings, disasters) that the evaluation excludes.
func GenOutages(nLinks int, horizon wan.Hour, ratePerYear float64, seed int64) *OutageSchedule {
	sched := &OutageSchedule{byLink: make([][]Outage, nLinks)}
	if ratePerYear <= 0 {
		return sched
	}
	hoursPerYear := 365.0 * 24
	for li := 0; li < nLinks; li++ {
		// Per-link substreams keep a link's outage history stable when
		// the horizon or link count changes.
		rng := rand.New(rand.NewSource(seed ^ int64(li+1)*0x9e3779b9))
		link := wan.LinkID(li + 1)
		// Failure rates are heterogeneous: most links fail rarely, a
		// minority are flap-prone. This is what makes a sizable share
		// of outage-affected bytes "seen" — their link also failed
		// within the recent training window (the paper measures 43%
		// seen / 57% unseen) — even though the average link fails
		// less than twice a year.
		mult := 1.0
		switch u := rng.Float64(); {
		case u < 0.55:
			mult = 1.0
		case u < 0.85:
			mult = 2.5
		default:
			mult = 14.0
		}
		rate := ratePerYear * mult
		// Poisson arrivals via exponential gaps.
		t := 0.0
		for {
			gap := rng.ExpFloat64() / (rate / hoursPerYear)
			t += gap
			if wan.Hour(t) >= horizon {
				break
			}
			start := wan.Hour(t)
			dur := drawDuration(rng)
			end := start + dur
			if end > horizon {
				end = horizon
			}
			if end > start {
				sched.byLink[li] = append(sched.byLink[li], Outage{link, start, end})
			}
			t = float64(end) + 1 // links stay up at least an hour between outages
		}
		sort.Slice(sched.byLink[li], func(a, b int) bool {
			return sched.byLink[li][a].Start < sched.byLink[li][b].Start
		})
	}
	return sched
}

// drawDuration draws an outage duration: log-uniform over 1–20h for
// 93% of events, 28–96h for the rest.
func drawDuration(rng *rand.Rand) wan.Hour {
	if rng.Float64() < 0.07 {
		return wan.Hour(28 + rng.Intn(69))
	}
	// Log-uniform between 1 and 20 hours: most outages are short.
	d := math.Exp(rng.Float64() * math.Log(20))
	return wan.Hour(math.Max(1, math.Round(d)))
}

// Down reports whether link is in outage during hour h.
func (o *OutageSchedule) Down(link wan.LinkID, h wan.Hour) bool {
	if link == 0 || int(link) > len(o.byLink) {
		return false
	}
	outs := o.byLink[link-1]
	// Binary search for the last outage starting at or before h.
	i := sort.Search(len(outs), func(i int) bool { return outs[i].Start > h })
	if i == 0 {
		return false
	}
	return h < outs[i-1].End
}

// downAt fills down, a bitset over links (bit LinkID-1), with the
// links in outage during hour h.
func (o *OutageSchedule) downAt(h wan.Hour, down []uint64) {
	clear(down)
	for i := range o.byLink {
		if o.Down(wan.LinkID(i+1), h) {
			down[i/64] |= 1 << (i % 64)
		}
	}
}

// ForLink returns the outages of one link, sorted by start. Callers
// must not modify the returned slice.
func (o *OutageSchedule) ForLink(link wan.LinkID) []Outage {
	if link == 0 || int(link) > len(o.byLink) {
		return nil
	}
	return o.byLink[link-1]
}

// All returns every outage, ordered by (start, link).
func (o *OutageSchedule) All() []Outage {
	var out []Outage
	for _, outs := range o.byLink {
		out = append(out, outs...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Link < out[j].Link
	})
	return out
}
