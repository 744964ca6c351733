// Package risk implements Appendix C of the paper: using TIPSY to
// identify peering links at risk of overload should some other
// peering link fail (Algorithm 1). Operators use this for capacity
// planning — provisioning link B before the outage of link A pushes
// it over the edge takes weeks of lead time.
package risk

import (
	"fmt"
	"sort"
	"strings"

	"tipsy/internal/core"
	"tipsy/internal/eval"
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
// not.
func AtRisk(dir wan.Directory, model core.Predictor, recs []features.Record, opts Options) []Row {
	if opts.UtilThreshold <= 0 {
		opts.UtilThreshold = DefaultOptions().UtilThreshold
	}
	groups := eval.GroupByFlowHour(recs)

	// Actual per-link per-hour loads.
	type hourLoad map[wan.LinkID]float64
	actual := make(map[wan.Hour]hourLoad)
	hoursSet := make(map[wan.Hour]bool)
	for gi := range groups {
		g := &groups[gi]
		hl := actual[g.Hour]
		if hl == nil {
			hl = make(hourLoad)
			actual[g.Hour] = hl
		}
		for l, b := range g.Links {
			hl[l] += b
		}
		hoursSet[g.Hour] = true
	}
	var hours []wan.Hour
	for h := range hoursSet {
		hours = append(hours, h)
	}
	sort.Slice(hours, func(i, j int) bool { return hours[i] < hours[j] })

	util := func(l wan.LinkID, bytes float64) float64 {
		link, ok := dir.Link(l)
		if !ok {
			return 0
		}
		return link.Utilization(bytes, 3600)
	}

	typical := make(map[wan.LinkID]int)
	for _, h := range hours {
		for l, b := range actual[h] {
			if util(l, b) >= opts.UtilThreshold {
				typical[l]++
			}
		}
	}

	// Group flows per hour by the link they ingressed on so each
	// hypothetical outage of A shifts exactly A's flows.
	byHourLink := make(map[wan.Hour]map[wan.LinkID][]*eval.Group)
	for gi := range groups {
		g := &groups[gi]
		m := byHourLink[g.Hour]
		if m == nil {
			m = make(map[wan.LinkID][]*eval.Group)
			byHourLink[g.Hour] = m
		}
		for l := range g.Links {
			m[l] = append(m[l], g)
		}
	}

	extra := make(map[[2]wan.LinkID]int) // [affected, affecting] -> hours
	for _, h := range hours {
		perLink := byHourLink[h]
		var as []wan.LinkID
		for a := range perLink {
			as = append(as, a)
		}
		sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
		for _, a := range as {
			shifted := make(map[wan.LinkID]float64)
			for _, g := range perLink[a] {
				moved := g.Links[a]
				if moved <= 0 {
					continue
				}
				preds := model.Predict(core.Query{
					Flow: g.Flow, K: 3,
					Exclude: func(l wan.LinkID) bool { return l == a },
				})
				for _, p := range preds {
					shifted[p.Link] += moved * p.Frac
				}
			}
			for b, add := range shifted {
				if b == a {
					continue
				}
				base := actual[h][b]
				if util(b, base) < opts.UtilThreshold && util(b, base+add) >= opts.UtilThreshold {
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
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].PredictedHours != rows[j].PredictedHours {
			return rows[i].PredictedHours > rows[j].PredictedHours
		}
		if rows[i].TypicalHours != rows[j].TypicalHours {
			return rows[i].TypicalHours < rows[j].TypicalHours
		}
		if rows[i].Link != rows[j].Link {
			return rows[i].Link < rows[j].Link
		}
		return rows[i].Affecting < rows[j].Affecting
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
