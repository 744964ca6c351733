package core

import (
	"cmp"
	"fmt"
	"slices"

	"tipsy/internal/features"
	"tipsy/internal/wan"
)

// HistOpts tunes Historical training.
type HistOpts struct {
	// MaxLinksPerTuple caps how many ranked links are retained per
	// flow tuple (§5.1.2); the default keeps 16, above the paper's
	// k=3 target. It is not only a size limit: TopK renormalises a
	// tuple's fractions over its stored, surviving links, so the cap
	// moves predictions. At full scale keep-1 reads 83.95 top-1
	// against the default's 80.89 (EXPERIMENTS.md, Ablations).
	MaxLinksPerTuple int
}

// DefaultHistOpts returns the standard training options.
func DefaultHistOpts() HistOpts { return HistOpts{MaxLinksPerTuple: 16} }

// Historical is the paper's Historical model (§3.3.1): for each flow
// tuple it remembers which ingress links carried the tuple's bytes in
// training and with what byte fractions — p(l|f) = B(f,l)/B(f) — and
// predicts the top-k links by that probability. There is deliberately
// no transfer learning between tuples: a link never seen for a tuple
// is never predicted for it.
type Historical struct {
	set features.Set
	// tuples are the trained tuples in ascending order (Tuple.Compare).
	// Tuple i's links are preds[ends[i-1]:ends[i]] (from 0 for the
	// first), by Frac descending, then Link: the checkpoint's columns.
	tuples []features.Tuple
	ends   []int32
	preds  []Prediction
	// index maps a tuple's key (FlowFeatures.Key with link 0) to its
	// position in tuples.
	index features.Index
}

// newHistorical wraps the columns in a model and indexes its tuples.
func newHistorical(set features.Set, tuples []features.Tuple, ends []int32, preds []Prediction) *Historical {
	h := &Historical{set: set, tuples: tuples, ends: ends, preds: preds, index: features.NewIndex(len(tuples))}
	for i, t := range tuples {
		h.index.Intern(features.FlowFeatures(t).Key(0), int32(i))
	}
	return h
}

// histSlot is one (tuple, link) pair of the fit, keyed by Set.Key,
// and its bytes.
type histSlot struct {
	key   features.Key
	bytes uint64
}

// TrainHistorical builds a Historical model over the given feature
// set in one pass: sum bytes per (tuple, link), rank links per tuple
// by byte volume, keep the top MaxLinksPerTuple. Training samples are
// weighted by traffic volume, which makes large flows dominate their
// aggregate, suppresses stray packets, and yields per-link byte
// fractions directly.
//
// Each record costs one features.Index lookup of its (tuple, link)
// key, which holds the pair's slot; the key is the flow's with the
// fields outside the set masked (Set.Key). Bytes add as integers, so
// the model does not depend on the record order.
func TrainHistorical(set features.Set, recs []features.Record, opts HistOpts) *Historical {
	if opts.MaxLinksPerTuple <= 0 {
		opts.MaxLinksPerTuple = DefaultHistOpts().MaxLinksPerTuple
	}
	index := features.NewIndex(1 << 10)
	var slots []histSlot
	var sums []uint64 // by slot, apart from the keys: the loop touches only these
	for i := range recs {
		r := &recs[i]
		if !(r.Bytes > 0) {
			continue
		}
		k := set.Key(r.Flow, r.Link)
		s, ok := index.Find(k)
		if !ok {
			s, _ = index.Intern(k, int32(len(slots)))
			slots = append(slots, histSlot{key: k})
			sums = append(sums, 0)
		}
		sums[s] += uint64(r.Bytes)
	}
	for i := range slots {
		slots[i].bytes = sums[i]
	}
	// The packed keys order like the tuples (Tuple.Compare), so one
	// sort brings each tuple's slots together, ranked.
	slices.SortFunc(slots, func(a, b histSlot) int {
		switch {
		case a.key.A != b.key.A:
			return cmp.Compare(a.key.A, b.key.A)
		case a.key.B != b.key.B:
			return cmp.Compare(a.key.B, b.key.B)
		case a.bytes != b.bytes:
			return cmp.Compare(b.bytes, a.bytes)
		}
		return cmp.Compare(a.key.C, b.key.C)
	})
	var tuples []features.Tuple
	var ends []int32
	preds := make([]Prediction, 0, len(slots))
	for lo, hi := 0, 0; lo < len(slots); lo = hi {
		var total uint64
		for hi = lo; hi < len(slots) && slots[hi].key.A == slots[lo].key.A && slots[hi].key.B == slots[lo].key.B; hi++ {
			total += slots[hi].bytes
		}
		for _, s := range slots[lo:min(hi, lo+opts.MaxLinksPerTuple)] {
			preds = append(preds, Prediction{Link: wan.LinkID(s.key.C), Frac: float64(s.bytes) / float64(total)})
		}
		tuples = append(tuples, features.Tuple(features.KeyFlow(slots[lo].key)))
		ends = append(ends, int32(len(preds)))
	}
	return newHistorical(set, tuples, ends, preds)
}

// Name implements Predictor.
func (h *Historical) Name() string { return "Hist_" + h.set.String() }

// Set returns the feature set the model was trained over.
func (h *Historical) Set() features.Set { return h.set }

// links returns the stored links of the flow's tuple, capacity
// clipped, and whether the tuple was trained.
func (h *Historical) links(f features.FlowFeatures) ([]Prediction, bool) {
	i, ok := h.index.Find(h.set.Key(f, 0))
	if !ok {
		return nil, false
	}
	var start int32
	if i > 0 {
		start = h.ends[i-1]
	}
	return h.preds[start:h.ends[i]:h.ends[i]], true
}

// TopLink returns the link that carried the most of the flow's
// tuple's training bytes — its first stored link — and whether the
// tuple was trained.
func (h *Historical) TopLink(f features.FlowFeatures) (wan.LinkID, bool) {
	stored, ok := h.links(f)
	if !ok || len(stored) == 0 {
		return 0, false
	}
	return stored[0].Link, true
}

// Predict implements Predictor: a table lookup followed by exclusion
// filtering and top-k truncation. Lookup is O(1) in the number of
// training points (Table 3).
func (h *Historical) Predict(q Query) []Prediction { return h.AppendPredict(nil, q) }

// AppendPredict implements AppendPredictor.
func (h *Historical) AppendPredict(dst []Prediction, q Query) []Prediction {
	stored, ok := h.links(q.Flow)
	if !ok {
		return dst
	}
	n := len(dst)
	return topKFrom(appendSurviving(dst, stored, &q), n, q.K)
}

// appendSurviving appends the links of stored that q does not
// exclude, keeping their trained fractions p(l|f) = B(f,l)/B(f). It
// grows dst at most once.
func appendSurviving(dst, stored []Prediction, q *Query) []Prediction {
	dst = grow(dst, len(stored))
	for _, p := range stored {
		if !q.excluded(p.Link) {
			dst = append(dst, p)
		}
	}
	return dst
}

// LinkBound is one past the largest link the model can predict, and
// 0 for a model that holds no links.
func (h *Historical) LinkBound() int {
	bound := 0
	for _, p := range h.preds {
		bound = max(bound, int(p.Link)+1)
	}
	return bound
}

// NumTuples reports how many distinct flow tuples the model holds;
// model size is linear in this count (Table 3).
func (h *Historical) NumTuples() int { return len(h.tuples) }

// NumEntries reports the total number of (tuple, link) entries.
func (h *Historical) NumEntries() int { return len(h.preds) }

// String summarizes the model.
func (h *Historical) String() string {
	return fmt.Sprintf("%s{tuples: %d, entries: %d}", h.Name(), h.NumTuples(), h.NumEntries())
}
