// Package eval implements TIPSY's evaluation methodology (§5 of the
// paper): the byte-weighted top-k prediction accuracy metric, the
// train/test environment builder over the simulated WAN, and one
// harness per table and figure of the paper's evaluation.
package eval

import (
	"cmp"
	"slices"

	"tipsy/internal/core"
	"tipsy/internal/features"
	"tipsy/internal/wan"
)

// Group is one evaluation unit: a flow aggregate with its actual
// per-link byte distribution over the selected hours, sorted by link.
// Only an exclusion prior reads which hours those were, so hours is
// built only when Options.Exclude is set and is nil otherwise.
type Group struct {
	Flow  features.FlowFeatures
	Links []LinkBytes
	Total uint64
	hours []wan.Hour // ascending, distinct; nil unless Options.Exclude
}

// LinkBytes is the bytes one link carried for a group.
type LinkBytes struct {
	Link  wan.LinkID
	Bytes uint64
}

// Options controls an accuracy computation.
type Options struct {
	// Ks are the top-k values to report; 0 means unrestricted.
	Ks []int
	// Exclude marks links unavailable at an hour — the prior the
	// paper gives models during outage evaluation. A link is excluded
	// from a flow's prediction when it is down for the majority of
	// the flow's selected hours.
	Exclude func(l wan.LinkID, h wan.Hour) bool
	// Select restricts which flow-hours count, e.g. "only hours when
	// the flow's top trained link was down". Nil selects everything.
	Select func(f features.FlowFeatures, h wan.Hour) bool
	// GroupBy optionally coarsens the evaluation unit. The paper
	// evaluates each oracle at its own tuple granularity ("we
	// calculate the accuracy of the oracle for each of the three
	// definitions of tuples"), while trained models are scored at
	// full flow granularity. Nil means full granularity.
	GroupBy func(features.FlowFeatures) features.FlowFeatures
}

// BuildGroups buckets records into evaluation units under the given
// options, ordered by flow (features.FlowFeatures.Compare).
//
// Each record costs one features.Index lookup of its (unit, link)
// pair; only a pair not seen before looks its unit up. The scan
// touches small per-pair and per-unit slices; the groups' links are
// cut from one array at the end. Under an exclusion prior it also
// appends a unit's hour when it changes, and the groups' hours are cut
// from a second array.
func BuildGroups(recs []features.Record, opts Options) []Group {
	type unit struct {
		total uint64
		last  wan.Hour // the hour of the unit's latest record
		links int32    // the unit's pairs
	}
	type unitPair struct {
		unit  int32
		link  wan.LinkID
		bytes uint64
	}
	keepHours := opts.Exclude != nil
	unitIndex, pairIndex := features.NewIndex(1<<8), features.NewIndex(1<<10)
	var keys []features.Key // by unit, link zero
	var units []unit
	var pairs []unitPair
	var hours []unitHour
	for i := range recs {
		r := &recs[i]
		if opts.Select != nil && !opts.Select(r.Flow, r.Hour) {
			continue
		}
		key := r.Flow
		if opts.GroupBy != nil {
			key = opts.GroupBy(r.Flow)
		}
		k := key.Key(r.Link)
		p, ok := pairIndex.Find(k)
		if !ok {
			p, _ = pairIndex.Intern(k, int32(len(pairs)))
			k.C = 0
			u, had := unitIndex.Intern(k, int32(len(units)))
			if !had {
				keys = append(keys, k)
				units = append(units, unit{last: r.Hour})
				if keepHours {
					hours = append(hours, unitHour{u, r.Hour})
				}
			}
			units[u].links++
			pairs = append(pairs, unitPair{unit: u, link: r.Link})
		}
		pp := &pairs[p]
		pp.bytes += uint64(r.Bytes)
		u := &units[pp.unit]
		u.total += uint64(r.Bytes)
		if keepHours && r.Hour != u.last {
			u.last = r.Hour
			hours = append(hours, unitHour{pp.unit, r.Hour})
		}
	}

	// The packed keys order like the flows.
	order := make([]int32, len(units))
	for u := range order {
		order[u] = int32(u)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if keys[a].A != keys[b].A {
			return cmp.Compare(keys[a].A, keys[b].A)
		}
		return cmp.Compare(keys[a].B, keys[b].B)
	})
	out := make([]Group, len(units))
	rank := make([]int32, len(units)) // unit → position in out
	links := make([]LinkBytes, len(pairs))
	for i, u := range order {
		out[i] = Group{Flow: features.KeyFlow(keys[u]), Links: links[:0:units[u].links], Total: units[u].total}
		links = links[units[u].links:]
		rank[u] = int32(i)
	}
	for _, p := range pairs {
		g := &out[rank[p.unit]]
		g.Links = append(g.Links, LinkBytes{p.link, p.bytes})
	}
	for i := range out {
		slices.SortFunc(out[i].Links, byLink)
	}
	if keepHours {
		cutHours(out, rank, hours)
	}
	return out
}

// unitHour is one hour of one unit's records, the unit numbered in
// first-seen order.
type unitHour struct {
	unit int32
	hour wan.Hour
}

// cutHours gives each group its distinct hours, ascending, cut from one
// array; rank maps a unit to its group. In drain order a unit's hours
// arrive increasing, and the sort is for other callers.
func cutHours(out []Group, rank []int32, hours []unitHour) {
	at := make([]int32, len(out)+1)
	for _, h := range hours {
		at[rank[h.unit]+1]++
	}
	for i := range out {
		at[i+1] += at[i]
	}
	all := make([]wan.Hour, len(hours))
	next := slices.Clone(at[:len(out)])
	for _, h := range hours {
		g := rank[h.unit]
		all[next[g]] = h.hour
		next[g]++
	}
	for i := range out {
		hs := all[at[i]:at[i+1]:at[i+1]]
		if !slices.IsSorted(hs) {
			slices.Sort(hs)
		}
		hs = slices.Compact(hs)
		out[i].hours = hs[:len(hs):len(hs)]
	}
}

// Accuracy computes the paper's §5.1.2 metric over aggregated test
// records: for each flow aggregate the model predicts up to k links
// with byte fractions; the credited bytes are Σ min(predicted bytes,
// actual bytes) over the predicted links, and accuracy is total
// credited over total actual. To score 100% a model must name
// exactly the links that received traffic and the bytes each received
// — three correct guesses alone are not enough.
func Accuracy(model core.Predictor, recs []features.Record, opts Options) map[int]float64 {
	groups := BuildGroups(recs, opts)
	maxK := 0
	unrestricted := false
	for _, k := range opts.Ks {
		if k == 0 {
			unrestricted = true
		}
		if k > maxK {
			maxK = k
		}
	}
	credited := make(map[int]float64, len(opts.Ks))
	var total uint64
	for gi := range groups {
		g := &groups[gi]
		total += g.Total
		q := core.Query{Flow: g.Flow}
		if !unrestricted {
			q.K = maxK
		}
		if opts.Exclude != nil {
			q.Exclude = majorityDown(opts.Exclude, g.hours)
		}
		preds := model.Predict(q)
		if len(preds) == 0 {
			continue
		}
		for _, k := range opts.Ks {
			credited[k] += CreditBytes(preds, k, g.Links, g.Total)
		}
	}
	out := make(map[int]float64, len(opts.Ks))
	for _, k := range opts.Ks {
		if total > 0 {
			out[k] = credited[k] / float64(total)
		}
	}
	return out
}

// majorityDown adapts an hourly exclusion to a flow aggregate: a link
// is unavailable for the aggregate when it is down in the majority of
// the aggregate's selected hours. Results are memoized per link.
func majorityDown(exclude func(wan.LinkID, wan.Hour) bool, hours []wan.Hour) func(wan.LinkID) bool {
	memo := make(map[wan.LinkID]bool, 4)
	return func(l wan.LinkID) bool {
		if v, ok := memo[l]; ok {
			return v
		}
		down := 0
		for _, h := range hours {
			if exclude(l, h) {
				down++
			}
		}
		v := down*2 > len(hours)
		memo[l] = v
		return v
	}
}

// CreditBytes is the §5.1.2 credit of one group at one k, shared by
// this harness and the online quality monitor (tipsyd's
// TestMonitorGradesLikeEval holds the two equal): Σ min(predicted
// bytes, actual bytes) over the first k predictions, where links are
// the group's actual bytes sorted by link; a link not among them
// credits 0. Fractions are taken as the model stated them — a model
// that says "60% of this flow arrives on L1" earns at most 60% of the
// flow on L1 even when queried at k=1 — which keeps accuracy monotone
// in k.
func CreditBytes(preds []core.Prediction, k int, links []LinkBytes, total uint64) float64 {
	n := len(preds)
	if k > 0 && n > k {
		n = k
	}
	var c float64
	for _, p := range preds[:n] {
		if i, ok := slices.BinarySearchFunc(links, LinkBytes{Link: p.Link}, byLink); ok {
			c += min(p.Frac*float64(total), float64(links[i].Bytes))
		}
	}
	return c
}

func byLink(a, b LinkBytes) int { return cmp.Compare(a.Link, b.Link) }
