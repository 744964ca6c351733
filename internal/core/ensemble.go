package core

import "strings"

// Ensemble is the paper's sequential model composition (§3.3.1,
// "A/B means sequential composition"): the first component that has
// any prediction for a flow answers, so the most specific model wins
// and less specific models contribute transfer learning for tuples
// the specific ones never saw.
type Ensemble struct {
	models []AppendPredictor
}

// NewEnsemble composes models in fallback order, most specific first
// — e.g. Hist_AP, Hist_AL, Hist_A for the paper's Hist_AP/AL/A.
func NewEnsemble(models ...AppendPredictor) *Ensemble {
	return &Ensemble{models: models}
}

// Name implements Predictor, deriving the paper's slash notation from
// the components: Historical components contribute their feature-set
// suffix, anything else its full name.
func (e *Ensemble) Name() string {
	parts := make([]string, 0, len(e.models))
	allHist := true
	for _, m := range e.models {
		name := m.Name()
		if suffix, ok := strings.CutPrefix(name, "Hist_"); ok {
			parts = append(parts, suffix)
		} else {
			parts = append(parts, name)
			allHist = false
		}
	}
	if allHist {
		return "Hist_" + strings.Join(parts, "/")
	}
	return strings.Join(parts, "/")
}

// Predict implements Predictor: the first component with a non-empty
// answer wins.
func (e *Ensemble) Predict(q Query) []Prediction { return e.AppendPredict(nil, q) }

// AppendPredict implements AppendPredictor.
func (e *Ensemble) AppendPredict(dst []Prediction, q Query) []Prediction {
	for _, m := range e.models {
		if out := m.AppendPredict(dst, q); len(out) > len(dst) {
			return out
		}
	}
	return dst
}
