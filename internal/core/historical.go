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
	// flow tuple. Training beyond the operationally useful rank is
	// "computationally inefficient and unnecessary" (§5.1.2); the
	// default keeps 16, comfortably above the paper's k=3 target.
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
	// table holds each tuple's links by Frac descending, then Link. A
	// trained model's lists are cut from one backing array with their
	// capacity clipped, so none can grow into its neighbour.
	table map[features.Tuple][]Prediction
}

// slotKey names one accumulator of the fit.
type slotKey struct {
	tuple features.Tuple
	link  wan.LinkID
}

// histSlot accumulates the bytes of one (tuple, link) pair.
type histSlot struct {
	slotKey
	bytes float64
}

// TrainHistorical builds a Historical model over the given feature
// set in one pass: sum bytes per (tuple, link), rank links per tuple
// by byte volume, keep the top MaxLinksPerTuple. Training samples are
// weighted by traffic volume, which makes large flows dominate their
// aggregate, suppresses stray packets, and yields per-link byte
// fractions directly.
//
// Records in drain order (features.Record.Compare) train fastest: a
// record whose flow and link also occur in the preceding hour adds to
// that record's slot without hashing anything. The model does not
// depend on the order beyond float summation: each slot sums its
// records in slice order, each tuple's total its slots in rank order.
func TrainHistorical(set features.Set, recs []features.Record, opts HistOpts) *Historical {
	if opts.MaxLinksPerTuple <= 0 {
		opts.MaxLinksPerTuple = DefaultHistOpts().MaxLinksPerTuple
	}
	index := make(map[slotKey]int32)
	var slots []histSlot
	// prev and cur hold the slot of every record of the preceding and
	// the current run, -1 for a record that carries no bytes.
	var prev, cur []int32
	runs := features.NewRunCursor(recs)
	for i := range recs {
		r := &recs[i]
		j := runs.Match(i)
		if runs.Start == i {
			prev, cur = cur, prev[:0]
		}
		at := int32(-1)
		if r.Bytes > 0 {
			if j >= 0 {
				at = prev[j-runs.Prev]
			}
			if at < 0 {
				k := slotKey{set.Project(r.Flow), r.Link}
				var ok bool
				if at, ok = index[k]; !ok {
					at = int32(len(slots))
					index[k] = at
					slots = append(slots, histSlot{slotKey: k})
				}
			}
			slots[at].bytes += r.Bytes
		}
		cur = append(cur, at)
	}
	// Any order of the tuples brings a tuple's slots together; the flow
	// order is the one at hand.
	slices.SortFunc(slots, func(a, b histSlot) int {
		return cmp.Or(a.tuple.Compare(b.tuple), cmp.Compare(b.bytes, a.bytes), cmp.Compare(a.link, b.link))
	})
	h := &Historical{set: set, table: make(map[features.Tuple][]Prediction)}
	flat := make([]Prediction, 0, len(slots))
	for lo, hi := 0, 0; lo < len(slots); lo = hi {
		var total float64
		for hi = lo; hi < len(slots) && slots[hi].tuple == slots[lo].tuple; hi++ {
			total += slots[hi].bytes
		}
		first := len(flat)
		for _, s := range slots[lo:min(hi, lo+opts.MaxLinksPerTuple)] {
			flat = append(flat, Prediction{Link: s.link, Frac: s.bytes / total})
		}
		h.table[slots[lo].tuple] = flat[first:len(flat):len(flat)]
	}
	return h
}

// Name implements Predictor.
func (h *Historical) Name() string { return "Hist_" + h.set.String() }

// Set returns the feature set the model was trained over.
func (h *Historical) Set() features.Set { return h.set }

// Predict implements Predictor: a table lookup followed by exclusion
// filtering and top-k truncation. Lookup is O(1) in the number of
// training points (Table 3).
func (h *Historical) Predict(q Query) []Prediction {
	stored, ok := h.table[h.set.Project(q.Flow)]
	if !ok {
		return nil
	}
	preds := make([]Prediction, 0, len(stored))
	for _, p := range stored {
		if q.excluded(p.Link) {
			continue
		}
		preds = append(preds, p)
	}
	return topK(preds, q.K)
}

// PredictRaw is Predict without top-k truncation or renormalization:
// the surviving (non-excluded) links keep their trained byte
// fractions p(l|f) = B(f,l)/B(f). The sum of the returned fractions
// is the share of the tuple's training bytes still routable — a
// confidence signal the geographic completion uses to decide how much
// probability mass to spend on alternates.
func (h *Historical) PredictRaw(q Query) []Prediction {
	stored, ok := h.table[h.set.Project(q.Flow)]
	if !ok {
		return nil
	}
	preds := make([]Prediction, 0, len(stored))
	for _, p := range stored {
		if q.excluded(p.Link) {
			continue
		}
		preds = append(preds, p)
	}
	return preds
}

// NumTuples reports how many distinct flow tuples the model holds;
// model size is linear in this count (Table 3).
func (h *Historical) NumTuples() int { return len(h.table) }

// NumEntries reports the total number of (tuple, link) entries.
func (h *Historical) NumEntries() int {
	n := 0
	for _, preds := range h.table {
		n += len(preds)
	}
	return n
}

// String summarizes the model.
func (h *Historical) String() string {
	return fmt.Sprintf("%s{tuples: %d, entries: %d}", h.Name(), h.NumTuples(), h.NumEntries())
}
