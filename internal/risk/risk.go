// Package risk implements Appendix C of the paper: using TIPSY to
// identify peering links at risk of overload should some other
// peering link fail (Algorithm 1). Operators use this for capacity
// planning — provisioning link B before the outage of link A pushes
// it over the edge takes weeks of lead time.
package risk

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"tipsy/internal/core"
	"tipsy/internal/features"
	"tipsy/internal/wan"
)

// Options tunes the at-risk analysis.
type Options struct {
	// UtilThreshold is the average hourly utilization considered
	// "exceedingly high" — the paper uses 70%, because bursty traffic
	// at 70% hourly average already queues and drops.
	UtilThreshold float64
}

// DefaultOptions matches the paper's Algorithm 1 parameters.
func DefaultOptions() Options { return Options{UtilThreshold: 0.70} }

// Row is one finding: if Affecting fails, Link spends PredictedHours
// additional hours above the utilization threshold during the
// analysis window, versus TypicalHours normally.
type Row struct {
	Link           wan.LinkID
	Affecting      wan.LinkID
	TypicalHours   int
	PredictedHours int
}

// AtRisk runs Algorithm 1 over a window of aggregated test records:
// for every hour and every link A carrying traffic, predict — with
// the given model — where each flow that ingressed on A would arrive
// if A were down, add the shifted bytes to the other links' actual
// loads, and report (link, affecting-link) pairs whose predicted
// utilization crosses the threshold in hours where it otherwise would
// not. recs must be in drain order (features.Record.Compare: hour,
// flow, link), as a drain and a dataset.Window of one are: each hour
// is then one run, and a link's flows in it come in flow order.
func AtRisk(dir wan.Directory, model core.Predictor, recs []features.Record, opts Options) []Row {
	if opts.UtilThreshold <= 0 {
		opts.UtilThreshold = DefaultOptions().UtilThreshold
	}
	hot := func(l wan.LinkID, bytes float64) bool {
		link, ok := dir.Link(l)
		return ok && link.Utilization(bytes, 3600) >= opts.UtilThreshold
	}
	typical := make(map[wan.LinkID]int)
	extra := make(map[[2]wan.LinkID]int) // [affected, affecting] -> hours
	load := make(map[wan.LinkID]float64)
	shifted := make(map[wan.LinkID]float64)
	var byLink []features.Record
	for len(recs) > 0 {
		n := 1
		for n < len(recs) && recs[n].Hour == recs[0].Hour {
			n++
		}
		clear(load)
		for _, r := range recs[:n] {
			load[r.Link] += r.Bytes
		}
		for l, b := range load {
			if hot(l, b) {
				typical[l]++
			}
		}
		// Each hypothetical outage of A shifts exactly A's flows.
		byLink = append(byLink[:0], recs[:n]...)
		recs = recs[n:]
		slices.SortStableFunc(byLink, func(x, y features.Record) int { return cmp.Compare(x.Link, y.Link) })
		for i := 0; i < len(byLink); {
			a := byLink[i].Link
			exclude := func(l wan.LinkID) bool { return l == a }
			clear(shifted)
			for ; i < len(byLink) && byLink[i].Link == a; i++ {
				if moved := byLink[i].Bytes; moved > 0 {
					for _, p := range model.Predict(core.Query{Flow: byLink[i].Flow, K: 3, Exclude: exclude}) {
						shifted[p.Link] += moved * p.Frac
					}
				}
			}
			for b, add := range shifted {
				if b != a && !hot(b, load[b]) && hot(b, load[b]+add) {
					extra[[2]wan.LinkID{b, a}]++
				}
			}
		}
	}

	rows := make([]Row, 0, len(extra))
	for k, n := range extra {
		rows = append(rows, Row{Link: k[0], Affecting: k[1], TypicalHours: typical[k[0]], PredictedHours: n})
	}
	// Sort by impact: most additional hot hours first, then fewest
	// typical hours (the operationally surprising cases).
	slices.SortFunc(rows, func(x, y Row) int {
		return cmp.Or(cmp.Compare(y.PredictedHours, x.PredictedHours), cmp.Compare(x.TypicalHours, y.TypicalHours),
			cmp.Compare(x.Link, y.Link), cmp.Compare(x.Affecting, y.Affecting))
	})
	return rows
}

// Format renders findings in the layout of the paper's Table 12.
func Format(rows []Row, dir wan.Directory, limit int) string {
	var b strings.Builder
	b.WriteString("Table 12: peering links at risk of overload on individual link outage\n")
	fmt.Fprintf(&b, "%-14s %-9s %6s %8s %10s | %-14s %-9s %6s\n",
		"Router", "Peer", "BW", ">70%typ", ">70%pred", "Affecting", "Peer", "BW")
	n := 0
	for _, r := range rows {
		if limit > 0 && n >= limit {
			break
		}
		l, ok1 := dir.Link(r.Link)
		a, ok2 := dir.Link(r.Affecting)
		if !ok1 || !ok2 {
			continue
		}
		fmt.Fprintf(&b, "%-14s %-9v %5.0fG %8d %10d | %-14s %-9v %5.0fG\n",
			l.Router, l.PeerAS, l.Capacity/1e9, r.TypicalHours, r.PredictedHours,
			a.Router, a.PeerAS, a.Capacity/1e9)
		n++
	}
	if n == 0 {
		b.WriteString("(no links at risk in this window)\n")
	}
	return b.String()
}
