// Package serve is TIPSY's serving path (§4.4 of the paper), kept
// free of HTTP so it can be tested and benchmarked as plain
// functions. It owns the one decision every server of predictions
// must share: how three Historical fits become the serving ensemble,
// in which order the rungs fall back, and what the rungs are called.
//
// A Models value is one immutable model generation. A daemon holds
// the current one in an atomic.Pointer, swaps it whole on retrain or
// checkpoint recovery, and loads it once per request, so every answer
// inside one request comes from one generation.
package serve

import (
	"fmt"

	"tipsy/internal/core"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/wan"
)

// Rung identifies a step of the fallback ladder, in walk order.
type Rung uint8

const (
	// Ensemble is the trained Hist_AP / Hist_AL+G / Hist_A ensemble.
	// It ends in the coarse source-AS model Hist_A, so no Historical
	// rung behind it could answer a flow it did not.
	Ensemble Rung = iota
	// Geo is the training-free geographic guess.
	Geo
	// None means no rung produced a prediction.
	None
)

var rungNames = [...]string{"ensemble", "geo", "none"}

// String is the rung's name on the wire, in metric names and in
// monitor slices.
func (r Rung) String() string { return rungNames[r] }

// Models is one immutable model generation.
type Models struct {
	// hAP, hAL and hA are retained for checkpointing; nil before the
	// first training.
	hAP, hAL, hA *core.Historical
	// rungs holds the ladder in walk order; a nil rung is skipped.
	rungs [None]core.AppendPredictor
	// linkBound is one past the largest link any rung can answer
	// with: Respond's per-link state covers the links below it.
	linkBound int
	trainedAt wan.Hour
	recovered bool
}

// Untrained is the generation a daemon serves before its first
// training: only the geographic rung answers.
func Untrained(dir wan.Directory, metros *geo.DB) *Models {
	return &Models{
		rungs:     [None]core.AppendPredictor{Geo: core.NewGeoNearest(dir, metros)},
		linkBound: dirBound(dir),
	}
}

// dirBound is one past the directory's largest link.
func dirBound(dir wan.Directory) int {
	links := dir.Links() // ascending
	if len(links) == 0 {
		return 0
	}
	return int(links[len(links)-1]) + 1
}

// Train fits the serving models on recs, the sliding window that ends
// at hour at — the paper's daily retraining.
func Train(recs []features.Record, at wan.Hour, dir wan.Directory, metros *geo.DB) *Models {
	opts := core.DefaultHistOpts()
	return assemble(
		core.TrainHistorical(features.SetAP, recs, opts),
		core.TrainHistorical(features.SetAL, recs, opts),
		core.TrainHistorical(features.SetA, recs, opts),
		at, dir, metros)
}

// assemble builds the ladder around three trained models: most
// specific model first inside the ensemble, then the geographic guess.
func assemble(hAP, hAL, hA *core.Historical, at wan.Hour, dir wan.Directory, metros *geo.DB) *Models {
	return &Models{
		hAP: hAP, hAL: hAL, hA: hA,
		rungs: [None]core.AppendPredictor{
			Ensemble: core.NewEnsemble(hAP, core.NewGeoCompletion(hAL, dir, metros), hA),
			Geo:      core.NewGeoNearest(dir, metros),
		},
		linkBound: max(dirBound(dir), hAP.LinkBound(), hAL.LinkBound(), hA.LinkBound()),
		trainedAt: at,
	}
}

// FromCheckpoint rebuilds the generation a checkpoint was taken from.
// It fails if the checkpoint lacks any of the three models, or if a
// model names a link past the directory's last one: such a checkpoint
// was taken on another WAN.
func FromCheckpoint(ck *core.Checkpoint, dir wan.Directory, metros *geo.DB) (*Models, error) {
	var hAP, hAL, hA *core.Historical
	for _, h := range ck.Models {
		switch h.Set() {
		case features.SetAP:
			hAP = h
		case features.SetAL:
			hAL = h
		case features.SetA:
			hA = h
		}
	}
	if hAP == nil || hAL == nil || hA == nil {
		return nil, fmt.Errorf("checkpoint incomplete: %d models", len(ck.Models))
	}
	bound := dirBound(dir)
	for _, h := range []*core.Historical{hAP, hAL, hA} {
		if b := h.LinkBound(); b > bound {
			return nil, fmt.Errorf("checkpoint's %s names link %d, past the WAN's last link", h.Name(), b-1)
		}
	}
	m := assemble(hAP, hAL, hA, ck.TrainedAt, dir, metros)
	m.recovered = true
	return m, nil
}

// Checkpoint is the generation's restartable state. An untrained
// generation has no models to save.
func (m *Models) Checkpoint() core.Checkpoint {
	ck := core.Checkpoint{TrainedAt: m.trainedAt}
	if m.Trained() {
		ck.Models = []*core.Historical{m.hAP, m.hAL, m.hA}
	}
	return ck
}

// Trained reports whether a trained ensemble is serving.
func (m *Models) Trained() bool { return m.hAP != nil }

// Recovered reports whether the models came from a checkpoint rather
// than from training in this process.
func (m *Models) Recovered() bool { return m.recovered }

// TrainedAt is the hour the training window ended at.
func (m *Models) TrainedAt() wan.Hour { return m.trainedAt }

// Tuples is the number of distinct tuples across the trained models.
func (m *Models) Tuples() int {
	if !m.Trained() {
		return 0
	}
	return m.hAP.NumTuples() + m.hAL.NumTuples() + m.hA.NumTuples()
}

// Ensemble is the first rung as a plain predictor, for callers that
// evaluate or plan with the trained model and want no fallback. It is
// nil before training.
func (m *Models) Ensemble() core.Predictor { return m.rungs[Ensemble] }

// Hist is the generation's fit for a feature set, nil before training
// or for a set the ladder does not use.
func (m *Models) Hist(set features.Set) *core.Historical {
	switch set {
	case features.SetAP:
		return m.hAP
	case features.SetAL:
		return m.hAL
	case features.SetA:
		return m.hA
	}
	return nil
}

// Name is the whole ladder's name in accuracy tables.
func (m *Models) Name() string { return "served" }

// Predict is the whole ladder as one core.Predictor: the answer a
// client of the daemon gets, fallback rungs included.
func (m *Models) Predict(q core.Query) []core.Prediction {
	_, a := m.Walk(nil, q, noClock)
	return a.Preds
}

// noClock is the clock of a walk whose timings nobody reads.
func noClock() int64 { return 0 }

// Answer is the outcome of one ladder walk.
type Answer struct {
	// Preds is the answering rung's predictions, nil if none answered.
	Preds []core.Prediction
	// Rung is the rung that answered, or None.
	Rung Rung
	// Tried marks the rungs that ran — every present rung up to the
	// answering one — and Ns how long each took.
	Tried [None]bool
	Ns    [None]int64
}

// Walk asks each rung in order until one appends predictions to dst,
// timing every attempt on clock, and returns the extended dst. The
// Answer's Preds are what the walk appended, capacity clipped, so a
// later walk into the same array leaves them as they are. Walk records
// nothing: a caller that counts rungs or latencies does so from the
// Answer.
func (m *Models) Walk(dst []core.Prediction, q core.Query, clock func() int64) ([]core.Prediction, Answer) {
	a := Answer{Rung: None}
	for r, model := range m.rungs {
		if model == nil {
			continue
		}
		start := clock()
		out := model.AppendPredict(dst, q)
		a.Ns[r] = clock() - start
		a.Tried[r] = true
		if len(out) > len(dst) {
			a.Preds, a.Rung = out[len(dst):len(out):len(out)], Rung(r)
			return out, a
		}
	}
	return dst, a
}
