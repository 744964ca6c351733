// Package core implements the models TIPSY ships (§3.3 of the
// paper): the Historical models Hist_A, Hist_AP and Hist_AL, their
// sequential ensembles, and the geographic-distance completion
// Hist_AL+G and nearest-link rung of the serving ladder. All models
// support byte-weighted training, top-k prediction, and exclusion of
// unavailable links (the prior the evaluation passes for links in
// outage or prefixes under withdrawal). Appendix A's Naïve Bayes, the
// rejected MLP baseline and the restricted oracle live in package
// eval, beside the experiments that use them.
package core

import (
	"slices"

	"tipsy/internal/features"
	"tipsy/internal/wan"
)

// Prediction is one predicted ingress link with the fraction of the
// flow's bytes expected to arrive on it. Fractions in a prediction
// list sum to 1.
type Prediction struct {
	Link wan.LinkID
	Frac float64
}

// Query is one prediction request: which links will this flow's bytes
// ingress on, excluding links the caller knows to be unavailable?
type Query struct {
	Flow features.FlowFeatures
	// K caps how many links to return (the paper's k knob; the
	// headline metric uses k=3). K <= 0 means unrestricted.
	K int
	// Exclude, if non-nil, marks links that cannot be predicted:
	// links in outage, or links the queried prefix was withdrawn
	// from. Models answer with the next most likely links.
	Exclude func(wan.LinkID) bool
}

func (q *Query) excluded(l wan.LinkID) bool {
	return q.Exclude != nil && q.Exclude(l)
}

// Predictor is a trained ingress prediction model.
type Predictor interface {
	// Name identifies the model in tables, e.g. "Hist_AL+G".
	Name() string
	// Predict returns up to q.K predicted links ordered by predicted
	// byte fraction, fractions renormalized to sum to 1. An empty
	// result means the model has no prediction for this flow.
	Predict(q Query) []Prediction
}

// AppendPredictor is a Predictor that can append its answer to a
// caller's slice, so a caller answering many queries holds every
// answer in one array. The serving ladder's rungs are
// AppendPredictors.
type AppendPredictor interface {
	Predictor
	// AppendPredict appends Predict(q) to dst and returns the extended
	// slice. It leaves dst[:len(dst)] as it was, and may write to
	// dst's spare capacity past what it returns.
	AppendPredict(dst []Prediction, q Query) []Prediction
}

// TopK normalizes the fractions over the whole surviving prediction
// list (the flow's bytes must land somewhere among the links the
// model still considers possible) and then truncates to k WITHOUT
// renormalizing: each retained entry keeps its meaning of "this
// fraction of the flow's bytes arrives here", so accuracy is
// monotone in k. k <= 0 keeps everything. Every model ends its
// prediction here, so k means the same for all of them.
func TopK(preds []Prediction, k int) []Prediction {
	var sum float64
	for _, p := range preds {
		sum += p.Frac
	}
	if sum > 0 {
		for i := range preds {
			preds[i].Frac /= sum
		}
	}
	if k > 0 && len(preds) > k {
		preds = preds[:k]
	}
	return preds
}

// grow returns dst with room for n more predictions. A nil dst, which
// Predict passes, becomes a slice of exactly that room: make costs
// less than growing nil.
func grow(dst []Prediction, n int) []Prediction {
	if dst == nil {
		return make([]Prediction, 0, n)
	}
	return slices.Grow(dst, n)
}

// topKFrom applies TopK to the predictions dst holds past its first n.
func topKFrom(dst []Prediction, n, k int) []Prediction {
	return dst[:n+len(TopK(dst[n:], k))]
}
