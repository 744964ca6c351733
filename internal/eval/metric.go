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
// per-link byte distribution over the selected hours.
type Group struct {
	Flow  features.FlowFeatures
	Hour  wan.Hour // earliest selected hour (informational)
	Links map[wan.LinkID]float64
	Total float64
	hours []wan.Hour
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
// touches small per-pair and per-unit slices and appends a unit's hour
// when it changes; the groups, their Links maps and hour lists are
// built once at the end.
func BuildGroups(recs []features.Record, opts Options) []Group {
	type unit struct {
		total float64
		last  wan.Hour // the hour of the unit's latest record
		links int32    // the unit's pairs
	}
	type unitPair struct {
		unit  int32
		link  wan.LinkID
		bytes float64
	}
	type unitHour struct {
		unit int32
		hour wan.Hour
	}
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
				hours = append(hours, unitHour{u, r.Hour})
			}
			units[u].links++
			pairs = append(pairs, unitPair{unit: u, link: r.Link})
		}
		pp := &pairs[p]
		pp.bytes += r.Bytes
		u := &units[pp.unit]
		u.total += r.Bytes
		if r.Hour != u.last {
			u.last = r.Hour
			hours = append(hours, unitHour{pp.unit, r.Hour})
		}
	}

	// Each unit's hours, cut from one array: in drain order they arrive
	// increasing, and the sort is for other callers.
	at := make([]int32, len(units)+1)
	for _, h := range hours {
		at[h.unit+1]++
	}
	for u := range units {
		at[u+1] += at[u]
	}
	all := make([]wan.Hour, len(hours))
	next := slices.Clone(at[:len(units)])
	for _, h := range hours {
		all[next[h.unit]] = h.hour
		next[h.unit]++
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
	rank := next // reused: unit → position in out
	for i, u := range order {
		hs := all[at[u]:at[u+1]:at[u+1]]
		if !slices.IsSorted(hs) {
			slices.Sort(hs)
		}
		hs = slices.Compact(hs)
		out[i] = Group{Flow: features.KeyFlow(keys[u]), Hour: hs[0], Links: make(map[wan.LinkID]float64, units[u].links),
			Total: units[u].total, hours: hs[:len(hs):len(hs)]}
		rank[u] = int32(i)
	}
	for _, p := range pairs {
		out[rank[p.unit]].Links[p.link] = p.bytes
	}
	return out
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
	var total float64
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
			credited[k] += credit(preds, k, g)
		}
	}
	out := make(map[int]float64, len(opts.Ks))
	for _, k := range opts.Ks {
		if total > 0 {
			out[k] = credited[k] / total
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

// credit scores one group at one k: the prediction list is truncated
// to k and the overlap with the actual byte distribution credited.
// Fractions are taken as the model stated them — a model that says
// "60% of this flow arrives on L1" earns at most 60% of the flow on
// L1 even when queried at k=1 — which keeps accuracy monotone in k.
func credit(preds []core.Prediction, k int, g *Group) float64 {
	return CreditBytes(preds, k, g.Links, g.Total)
}

// CreditBytes is the §5.1.2 credit computation shared by this offline
// harness and the online quality monitor: given a prediction list, a
// top-k cutoff, and the actual per-link byte distribution of the
// group (with its byte total), it returns the credited bytes
// Σ min(predicted bytes, actual bytes) over the first k predictions.
// Accuracy is credited bytes over total actual bytes; keeping this as
// the single implementation guarantees offline and online accuracy
// agree by construction.
func CreditBytes(preds []core.Prediction, k int, links map[wan.LinkID]float64, total float64) float64 {
	n := len(preds)
	if k > 0 && n > k {
		n = k
	}
	var c float64
	for _, p := range preds[:n] {
		c += minF(p.Frac*total, links[p.Link])
	}
	return c
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
