package eval

import (
	"math"
	"math/rand"
	"sort"

	"tipsy/internal/core"
	"tipsy/internal/features"
	"tipsy/internal/wan"
)

// MLP is the neural-network baseline the paper evaluated and rejected
// (§3.3: "after testing several techniques including DNNs (of
// different depths and widths), we converged on two types of simple
// statistical classification models"). It is a feed-forward network
// over hashed categorical features with a softmax over peering links,
// trained with byte-weighted SGD. It exists so the model-selection
// claim is reproducible: compare its accuracy, training cost, and
// prediction cost against the Historical models (see
// BenchmarkBaselineMLP).
type MLP struct {
	set     features.Set
	opts    MLPOpts
	links   []wan.LinkID
	linkIdx map[wan.LinkID]int

	// w1 is [nDims*buckets][hidden] stored flat; each sample
	// activates exactly one bucket per feature dimension, so the
	// forward pass is sparse.
	w1 []float64
	b1 []float64
	// w2 is [hidden][classes] stored flat.
	w2    []float64
	b2    []float64
	nDims int
}

// MLPOpts tunes the baseline.
type MLPOpts struct {
	Hidden      int
	Epochs      int
	LearnRate   float64
	HashBuckets int // per feature dimension
	Seed        int64
}

// DefaultMLPOpts returns a small configuration that trains in
// reasonable time on one core.
func DefaultMLPOpts() MLPOpts {
	return MLPOpts{Hidden: 48, Epochs: 3, LearnRate: 0.005, HashBuckets: 512, Seed: 1}
}

// TrainMLP fits the baseline on the records.
func TrainMLP(set features.Set, recs []features.Record, opts MLPOpts) *MLP {
	if opts.Hidden <= 0 {
		opts = DefaultMLPOpts()
	}
	dims := dimsFor(set)
	m := &MLP{
		set: set, opts: opts, nDims: len(dims),
		linkIdx: make(map[wan.LinkID]int),
	}
	for _, r := range recs {
		if _, ok := m.linkIdx[r.Link]; !ok {
			m.linkIdx[r.Link] = len(m.links)
			m.links = append(m.links, r.Link)
		}
	}
	classes := len(m.links)
	if classes == 0 {
		return m
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	in := m.nDims * opts.HashBuckets
	m.w1 = make([]float64, in*opts.Hidden)
	m.b1 = make([]float64, opts.Hidden)
	m.w2 = make([]float64, opts.Hidden*classes)
	m.b2 = make([]float64, classes)
	scale1 := math.Sqrt(2 / float64(m.nDims))
	scale2 := math.Sqrt(2 / float64(opts.Hidden))
	for i := range m.w1 {
		m.w1[i] = rng.NormFloat64() * scale1
	}
	for i := range m.w2 {
		m.w2[i] = rng.NormFloat64() * scale2
	}

	// Byte weighting: heavy-tailed volumes would give most samples a
	// near-zero weight and elephants a destabilizing one, so weights
	// are square-rooted relative to the mean and clipped.
	var totalBytes float64
	for _, r := range recs {
		totalBytes += r.Bytes
	}
	meanBytes := totalBytes / float64(len(recs))

	order := rng.Perm(len(recs))
	hidden := make([]float64, opts.Hidden)
	probs := make([]float64, classes)
	buckets := make([]int, m.nDims)
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		lr := opts.LearnRate / (1 + float64(epoch))
		for _, idx := range order {
			r := &recs[idx]
			y := m.linkIdx[r.Link]
			wgt := math.Sqrt(r.Bytes / meanBytes)
			if wgt > 2 {
				wgt = 2
			}
			if wgt < 0.05 {
				wgt = 0.05
			}
			m.buckets(r.Flow, buckets)
			m.forward(buckets, hidden, probs)
			// Backprop: softmax cross-entropy.
			for c := 0; c < classes; c++ {
				delta := probs[c]
				if c == y {
					delta -= 1
				}
				delta *= wgt * lr
				if delta == 0 {
					continue
				}
				m.b2[c] -= delta
				for h := 0; h < opts.Hidden; h++ {
					if hidden[h] > 0 {
						m.w2[h*classes+c] -= delta * hidden[h]
					}
				}
			}
			// Hidden layer gradient.
			for h := 0; h < opts.Hidden; h++ {
				if hidden[h] <= 0 { // ReLU gate
					continue
				}
				var g float64
				for c := 0; c < classes; c++ {
					delta := probs[c]
					if c == y {
						delta -= 1
					}
					g += delta * m.w2[h*classes+c]
				}
				g *= wgt * lr
				if g == 0 {
					continue
				}
				m.b1[h] -= g
				for d, bkt := range buckets {
					m.w1[(d*opts.HashBuckets+bkt)*opts.Hidden+h] -= g
				}
			}
		}
	}
	return m
}

// buckets hashes the flow's feature values into per-dimension
// buckets.
func (m *MLP) buckets(f features.FlowFeatures, out []int) {
	for i, d := range dimsFor(m.set) {
		v := dimValue(d, f)
		h := v * 0x9e3779b97f4a7c15
		h ^= h >> 29
		out[i] = int(h % uint64(m.opts.HashBuckets))
	}
}

// forward computes hidden activations and softmax probabilities.
func (m *MLP) forward(buckets []int, hidden, probs []float64) {
	classes := len(m.links)
	copy(hidden, m.b1)
	for d, bkt := range buckets {
		base := (d*m.opts.HashBuckets + bkt) * m.opts.Hidden
		for h := 0; h < m.opts.Hidden; h++ {
			hidden[h] += m.w1[base+h]
		}
	}
	for h := range hidden {
		if hidden[h] < 0 {
			hidden[h] = 0
		}
	}
	copy(probs, m.b2)
	for h := 0; h < m.opts.Hidden; h++ {
		if hidden[h] == 0 {
			continue
		}
		a := hidden[h]
		row := m.w2[h*classes : (h+1)*classes]
		for c := 0; c < classes; c++ {
			probs[c] += a * row[c]
		}
	}
	// Softmax in place.
	maxV := math.Inf(-1)
	for _, v := range probs {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for c := range probs {
		probs[c] = math.Exp(probs[c] - maxV)
		sum += probs[c]
	}
	for c := range probs {
		probs[c] /= sum
	}
}

// Name implements core.Predictor.
func (m *MLP) Name() string { return "MLP_" + m.set.String() }

// Predict implements core.Predictor.
func (m *MLP) Predict(q core.Query) []core.Prediction {
	classes := len(m.links)
	if classes == 0 {
		return nil
	}
	buckets := make([]int, m.nDims)
	hidden := make([]float64, m.opts.Hidden)
	probs := make([]float64, classes)
	m.buckets(q.Flow, buckets)
	m.forward(buckets, hidden, probs)
	preds := make([]core.Prediction, 0, classes)
	for c, p := range probs {
		l := m.links[c]
		if q.Exclude != nil && q.Exclude(l) {
			continue
		}
		preds = append(preds, core.Prediction{Link: l, Frac: p})
	}
	sort.Slice(preds, func(i, j int) bool {
		if preds[i].Frac != preds[j].Frac {
			return preds[i].Frac > preds[j].Frac
		}
		return preds[i].Link < preds[j].Link
	})
	return core.TopK(preds, q.K)
}

// NumParameters reports the network size.
func (m *MLP) NumParameters() int {
	return len(m.w1) + len(m.b1) + len(m.w2) + len(m.b2)
}
