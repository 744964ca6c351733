package eval

import (
	"testing"

	"tipsy/internal/core"
	"tipsy/internal/features"
	"tipsy/internal/wan"
)

// mlpTrainSet builds a cleanly separable mapping: flows from AS i go
// to link i.
func mlpTrainSet(n int) []features.Record {
	var recs []features.Record
	for i := 0; i < n; i++ {
		f := flow(uint32(100+i), uint32(0x0b000000+i*256), uint16(1+i%8), uint16(1+i%4), uint8(1+i%3))
		for rep := 0; rep < 20; rep++ {
			recs = append(recs, rec(f, wan.LinkID(i+1), 1000))
		}
	}
	return recs
}

func TestMLPLearnsSeparableMapping(t *testing.T) {
	recs := mlpTrainSet(6)
	m := TrainMLP(features.SetAP, recs, DefaultMLPOpts())
	if m.Name() != "MLP_AP" {
		t.Errorf("Name = %q", m.Name())
	}
	correct := 0
	for i := 0; i < 6; i++ {
		f := flow(uint32(100+i), uint32(0x0b000000+i*256), uint16(1+i%8), uint16(1+i%4), uint8(1+i%3))
		preds := m.Predict(core.Query{Flow: f, K: 1})
		if len(preds) == 1 && preds[0].Link == wan.LinkID(i+1) {
			correct++
		}
	}
	if correct < 5 {
		t.Errorf("MLP learned only %d/6 separable mappings", correct)
	}
}

func TestMLPPredictionsNormalized(t *testing.T) {
	m := TrainMLP(features.SetAP, mlpTrainSet(4), DefaultMLPOpts())
	f := flow(100, 0x0b000000, 1, 1, 1)
	preds := m.Predict(core.Query{Flow: f, K: 3})
	checkNormalized(t, preds)
	if len(preds) != 3 {
		t.Fatalf("want 3 predictions, got %d", len(preds))
	}
}

func TestMLPExclusion(t *testing.T) {
	m := TrainMLP(features.SetAP, mlpTrainSet(4), DefaultMLPOpts())
	f := flow(100, 0x0b000000, 1, 1, 1)
	preds := m.Predict(core.Query{Flow: f, K: 4, Exclude: func(l wan.LinkID) bool { return l == 1 }})
	for _, p := range preds {
		if p.Link == 1 {
			t.Fatal("excluded link predicted")
		}
	}
}

func TestMLPDeterministic(t *testing.T) {
	recs := mlpTrainSet(4)
	a := TrainMLP(features.SetAP, recs, DefaultMLPOpts())
	b := TrainMLP(features.SetAP, recs, DefaultMLPOpts())
	f := flow(101, 0x0b000100, 2, 2, 2)
	pa := a.Predict(core.Query{Flow: f, K: 4})
	pb := b.Predict(core.Query{Flow: f, K: 4})
	if len(pa) != len(pb) {
		t.Fatal("prediction counts differ")
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed produced different networks")
		}
	}
}

func TestMLPEmptyTraining(t *testing.T) {
	m := TrainMLP(features.SetA, nil, DefaultMLPOpts())
	if preds := m.Predict(core.Query{Flow: flow(1, 0, 1, 1, 1), K: 3}); preds != nil {
		t.Errorf("untrained MLP should predict nothing, got %+v", preds)
	}
}

func TestMLPParameterCount(t *testing.T) {
	opts := DefaultMLPOpts()
	m := TrainMLP(features.SetA, mlpTrainSet(3), opts)
	// 3 dims (A set has AS, region, type) x buckets x hidden + hidden
	// + hidden x 3 classes + 3.
	want := 3*opts.HashBuckets*opts.Hidden + opts.Hidden + opts.Hidden*3 + 3
	if got := m.NumParameters(); got != want {
		t.Errorf("NumParameters = %d, want %d", got, want)
	}
}
