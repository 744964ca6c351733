package eval

import (
	"math"
	"slices"
	"sort"

	"tipsy/internal/core"
	"tipsy/internal/features"
	"tipsy/internal/wan"
)

// NBOpts tunes Naïve Bayes training.
type NBOpts struct {
	// Alpha is the additive (Laplace) smoothing weight.
	Alpha float64
	// CandidateCap bounds how many top-scoring links a prediction
	// considers when converting log-scores to fractions.
	CandidateCap int
}

// DefaultNBOpts returns the standard options.
func DefaultNBOpts() NBOpts { return NBOpts{Alpha: 1, CandidateCap: 16} }

// nbDim identifies one feature dimension of the classifier.
type nbDim uint8

const (
	dimAS nbDim = iota
	dimPrefix
	dimLoc
	dimRegion
	dimType
)

func dimsFor(set features.Set) []nbDim {
	switch set {
	case features.SetAP:
		return []nbDim{dimAS, dimPrefix, dimRegion, dimType}
	case features.SetAL:
		return []nbDim{dimAS, dimLoc, dimRegion, dimType}
	default:
		return []nbDim{dimAS, dimRegion, dimType}
	}
}

func dimValue(d nbDim, f features.FlowFeatures) uint64 {
	switch d {
	case dimAS:
		return uint64(f.AS)
	case dimPrefix:
		return uint64(f.Prefix)
	case dimLoc:
		return uint64(f.Loc)
	case dimRegion:
		return uint64(f.Region)
	default:
		return uint64(f.Type)
	}
}

// NaiveBayes is the Appendix A classifier: p(l|f) ∝ p(l)·Π p(f_i|l)
// with byte-weighted counts and Laplace smoothing. Unlike the
// Historical model it can predict for tuples never seen in training,
// as long as the individual feature values were seen — its transfer
// learning advantage, paid for with a score for every link per
// prediction and a much larger model (Table 11).
type NaiveBayes struct {
	set   features.Set
	opts  NBOpts
	dims  []nbDim
	links []wan.LinkID // classes, ascending

	logPrior map[wan.LinkID]float64
	// cond[d][value][link] = bytes of feature value seen on link.
	cond map[nbDim]map[uint64]map[wan.LinkID]uint64
	// byLink[d][link] = total bytes on link (denominator per dim).
	byLink map[wan.LinkID]uint64
	// vocab[d] = number of distinct values of dimension d.
	vocab map[nbDim]int
}

// TrainNaiveBayes builds the classifier in one pass over the records.
func TrainNaiveBayes(set features.Set, recs []features.Record, opts NBOpts) *NaiveBayes {
	if opts.Alpha <= 0 {
		opts.Alpha = DefaultNBOpts().Alpha
	}
	if opts.CandidateCap <= 0 {
		opts.CandidateCap = DefaultNBOpts().CandidateCap
	}
	nb := &NaiveBayes{
		set:      set,
		opts:     opts,
		dims:     dimsFor(set),
		logPrior: make(map[wan.LinkID]float64),
		cond:     make(map[nbDim]map[uint64]map[wan.LinkID]uint64),
		byLink:   make(map[wan.LinkID]uint64),
		vocab:    make(map[nbDim]int),
	}
	for _, d := range nb.dims {
		nb.cond[d] = make(map[uint64]map[wan.LinkID]uint64)
	}
	var total uint64
	for i := range recs {
		r := &recs[i]
		if r.Bytes <= 0 {
			continue
		}
		total += uint64(r.Bytes)
		nb.byLink[r.Link] += uint64(r.Bytes)
		for _, d := range nb.dims {
			v := dimValue(d, r.Flow)
			m := nb.cond[d][v]
			if m == nil {
				m = make(map[wan.LinkID]uint64, 2)
				nb.cond[d][v] = m
			}
			m[r.Link] += uint64(r.Bytes)
		}
	}
	for l, b := range nb.byLink {
		nb.links = append(nb.links, l)
		nb.logPrior[l] = math.Log(float64(b) / float64(total))
	}
	sort.Slice(nb.links, func(i, j int) bool { return nb.links[i] < nb.links[j] })
	for _, d := range nb.dims {
		nb.vocab[d] = len(nb.cond[d])
	}
	return nb
}

// Name implements core.Predictor.
func (nb *NaiveBayes) Name() string { return "NB_" + nb.set.String() }

// Predict implements core.Predictor: score every class (link), rank,
// and exp-normalize the top scores into byte fractions.
func (nb *NaiveBayes) Predict(q core.Query) []core.Prediction { return nb.AppendPredict(nil, q) }

// AppendPredict implements core.AppendPredictor, so an NB model can be
// an ensemble component (Hist_AL/NB_AL). It looks each dimension's
// counts for the query's value up once, scores every class against
// them, and keeps the CandidateCap best by insertion, higher score
// first and lower link on a tie.
func (nb *NaiveBayes) AppendPredict(dst []core.Prediction, q core.Query) []core.Prediction {
	var (
		conds  [dimType + 1]map[wan.LinkID]uint64 // per nb.dims
		vocabs [dimType + 1]float64
	)
	for i, d := range nb.dims {
		if nb.vocab[d] == 0 { // no class has a usable score
			return dst
		}
		conds[i], vocabs[i] = nb.cond[d][dimValue(d, q.Flow)], float64(nb.vocab[d])
	}
	var room [16]nbScored
	top := room[:0]
	for _, l := range nb.links {
		if q.Exclude != nil && q.Exclude(l) {
			continue
		}
		c := nbScored{link: l, score: nb.logPrior[l]}
		denomBase := float64(nb.byLink[l])
		for i := range nb.dims {
			num := nb.opts.Alpha
			if conds[i] != nil {
				num += float64(conds[i][l])
			}
			c.score += math.Log(num / (denomBase + nb.opts.Alpha*vocabs[i]))
		}
		top = c.insert(top, nb.opts.CandidateCap)
	}
	if len(top) == 0 {
		return dst
	}
	// Softmax over the retained scores gives the predicted fractions.
	n := len(dst)
	dst = slices.Grow(dst, len(top))
	maxS := top[0].score
	var sum float64
	for _, c := range top {
		w := math.Exp(c.score - maxS)
		dst = append(dst, core.Prediction{Link: c.link, Frac: w})
		sum += w
	}
	preds := dst[n:]
	for i := range preds {
		preds[i].Frac /= sum
	}
	return dst[:n+len(core.TopK(preds, q.K))]
}

// nbScored is one class's log-score.
type nbScored struct {
	link  wan.LinkID
	score float64
}

// before reports whether c ranks ahead of o: a higher score, or the
// same score and a lower link.
func (c nbScored) before(o nbScored) bool {
	if c.score != o.score {
		return c.score > o.score
	}
	return c.link < o.link
}

// insert places c in top, which holds at most keep classes in rank
// order, and drops the last if that makes keep+1.
func (c nbScored) insert(top []nbScored, keep int) []nbScored {
	if len(top) == keep {
		if !c.before(top[keep-1]) {
			return top
		}
		top = top[:keep-1]
	}
	top = append(top, c)
	for i := len(top) - 1; i > 0 && top[i].before(top[i-1]); i-- {
		top[i], top[i-1] = top[i-1], top[i]
	}
	return top
}

// NumClasses reports how many links (classes) the model scores.
func (nb *NaiveBayes) NumClasses() int { return len(nb.links) }

// NumParameters reports the total conditional-table entries, the
// dominant term of the Table 11 size analysis.
func (nb *NaiveBayes) NumParameters() int {
	n := 0
	for _, d := range nb.dims {
		for _, m := range nb.cond[d] {
			n += len(m)
		}
	}
	return n
}
