package eval

import (
	"math"
	"testing"

	"tipsy/internal/bgp"
	"tipsy/internal/core"
	"tipsy/internal/dataset"
	"tipsy/internal/features"
	"tipsy/internal/wan"
)

func ff(as uint32, prefix uint32, loc uint16) features.FlowFeatures {
	return features.FlowFeatures{AS: bgp.ASN(as), Prefix: prefix, Loc: wan.Region(loc), Region: 1, Type: 1}
}

func mkRecs() []features.Record {
	f1 := ff(1, 100, 1)
	f2 := ff(2, 200, 2)
	return []features.Record{
		{Hour: 0, Flow: f1, Link: 1, Bytes: 600},
		{Hour: 1, Flow: f1, Link: 2, Bytes: 400},
		{Hour: 0, Flow: f2, Link: 3, Bytes: 1000},
	}
}

func TestOraclePerfectUnrestricted(t *testing.T) {
	f := flow(1, 100, 1, 1, 1)
	recs := []features.Record{rec(f, 1, 600), rec(f, 2, 400)}
	o := NewOracle(features.SetAP, recs)
	if o.Name() != "Oracle_AP" {
		t.Errorf("Name = %q", o.Name())
	}
	preds := o.Predict(core.Query{Flow: f})
	if len(preds) != 2 || math.Abs(preds[0].Frac-0.6) > 1e-9 {
		t.Errorf("oracle should reproduce the test distribution exactly: %+v", preds)
	}
}

func TestOracleIsPerfectUnrestricted(t *testing.T) {
	recs := mkRecs()
	o := NewOracle(features.SetAP, recs)
	acc := Accuracy(o, recs, Options{Ks: []int{0}})
	if math.Abs(acc[0]-1) > 1e-9 {
		t.Errorf("unrestricted oracle accuracy = %f, want 1", acc[0])
	}
}

func TestOracleTopKIsTopLinkMass(t *testing.T) {
	recs := mkRecs()
	o := NewOracle(features.SetAP, recs)
	acc := Accuracy(o, recs, Options{Ks: []int{1}})
	// f1: top link carries 600 of 1000; f2: 1000 of 1000.
	want := (600.0 + 1000.0) / 2000.0
	if math.Abs(acc[1]-want) > 1e-9 {
		t.Errorf("top-1 oracle accuracy = %f, want %f", acc[1], want)
	}
}

func TestAccuracyMonotoneInK(t *testing.T) {
	recs := mkRecs()
	models := []core.Predictor{
		NewOracle(features.SetAP, recs),
		core.TrainHistorical(features.SetA, recs, core.DefaultHistOpts()),
	}
	for _, m := range models {
		acc := Accuracy(m, recs, Options{Ks: []int{1, 2, 3, 0}})
		if acc[2] < acc[1]-1e-12 || acc[3] < acc[2]-1e-12 || acc[0] < acc[3]-1e-12 {
			t.Errorf("%s: accuracy not monotone in k: %v", m.Name(), acc)
		}
	}
}

func TestAccuracyCreditCappedByPrediction(t *testing.T) {
	// Model trained 50/50 across two links; reality is 100/0. Credit
	// at k=1 must be limited to the predicted 50%, not inflated by
	// renormalization.
	f := ff(1, 100, 1)
	train := []features.Record{
		{Hour: 0, Flow: f, Link: 1, Bytes: 500},
		{Hour: 0, Flow: f, Link: 2, Bytes: 500},
	}
	test := []features.Record{{Hour: 10, Flow: f, Link: 1, Bytes: 1000}}
	m := core.TrainHistorical(features.SetAP, train, core.DefaultHistOpts())
	acc := Accuracy(m, test, Options{Ks: []int{1}})
	if math.Abs(acc[1]-0.5) > 1e-9 {
		t.Errorf("top-1 accuracy = %f, want 0.5 (the stated fraction)", acc[1])
	}
}

func TestAccuracySelect(t *testing.T) {
	recs := mkRecs()
	// An oracle must be built from the records it is scored on: the
	// paper's outage oracles have perfect knowledge of exactly the
	// selected traffic.
	var hour0 []features.Record
	for _, r := range recs {
		if r.Hour == 0 {
			hour0 = append(hour0, r)
		}
	}
	o := NewOracle(features.SetAP, hour0)
	acc := Accuracy(o, recs, Options{
		Ks:     []int{0},
		Select: func(f features.FlowFeatures, h wan.Hour) bool { return h == 0 },
	})
	if math.Abs(acc[0]-1) > 1e-9 {
		t.Errorf("selected oracle accuracy = %f", acc[0])
	}
	// A whole-window oracle scored on a selection is no longer exact.
	whole := NewOracle(features.SetAP, recs)
	acc = Accuracy(whole, recs, Options{
		Ks:     []int{0},
		Select: func(f features.FlowFeatures, h wan.Hour) bool { return h == 0 },
	})
	if acc[0] >= 1 {
		t.Error("whole-window oracle should not be exact on a selection")
	}
	// Nothing selected: accuracy map returns zero values.
	acc = Accuracy(whole, recs, Options{
		Ks:     []int{1},
		Select: func(features.FlowFeatures, wan.Hour) bool { return false },
	})
	if acc[1] != 0 {
		t.Errorf("empty selection should yield 0, got %f", acc[1])
	}
}

func TestAccuracyExcludeMajority(t *testing.T) {
	f := ff(1, 100, 1)
	train := []features.Record{
		{Hour: 0, Flow: f, Link: 1, Bytes: 900},
		{Hour: 0, Flow: f, Link: 2, Bytes: 100},
	}
	// Test traffic arrives on link 2 while link 1 is down.
	test := []features.Record{{Hour: 5, Flow: f, Link: 2, Bytes: 100}}
	m := core.TrainHistorical(features.SetAP, train, core.DefaultHistOpts())
	// Without the exclusion prior the model bets on link 1 first.
	noPrior := Accuracy(m, test, Options{Ks: []int{1}})
	// With it, link 1 is excluded and the surviving link 2 is
	// renormalized to full confidence.
	withPrior := Accuracy(m, test, Options{
		Ks:      []int{1},
		Exclude: func(l wan.LinkID, h wan.Hour) bool { return l == 1 },
	})
	if noPrior[1] >= withPrior[1] {
		t.Errorf("exclusion prior should help: %f vs %f", noPrior[1], withPrior[1])
	}
	if math.Abs(withPrior[1]-1) > 1e-9 {
		t.Errorf("with prior, accuracy = %f, want 1", withPrior[1])
	}
}

func TestGroupByCoarsensUnits(t *testing.T) {
	f1 := ff(1, 100, 1)
	f2 := ff(1, 200, 1) // same A-projection, different prefix
	recs := []features.Record{
		{Hour: 0, Flow: f1, Link: 1, Bytes: 500},
		{Hour: 0, Flow: f2, Link: 2, Bytes: 500},
	}
	fine := BuildGroups(recs, Options{})
	coarse := BuildGroups(recs, Options{GroupBy: GroupBySet(features.SetA)})
	if len(fine) != 2 || len(coarse) != 1 {
		t.Fatalf("groups: fine=%d coarse=%d", len(fine), len(coarse))
	}
	if coarse[0].Total != 1000 || len(coarse[0].Links) != 2 {
		t.Errorf("coarse group wrong: %+v", coarse[0])
	}
	// Oracle_A at its own granularity is perfect unrestricted.
	o := NewOracle(features.SetA, recs)
	acc := Accuracy(o, recs, Options{Ks: []int{0}, GroupBy: GroupBySet(features.SetA)})
	if math.Abs(acc[0]-1) > 1e-9 {
		t.Errorf("coarse oracle accuracy = %f", acc[0])
	}
}

func TestGroupsDeterministic(t *testing.T) {
	recs := mkRecs()
	a := BuildGroups(recs, Options{})
	b := BuildGroups(recs, Options{})
	if len(a) != len(b) {
		t.Fatal("group counts differ")
	}
	for i := range a {
		if a[i].Flow != b[i].Flow || a[i].Total != b[i].Total {
			t.Fatal("group order not deterministic")
		}
	}
}

// TestCreditBytesShared pins the exported credit computation the
// online monitor reuses: Σ min(predicted bytes, actual bytes) over
// the first k predictions.
func TestCreditBytesShared(t *testing.T) {
	links := []LinkBytes{{1, 600}, {2, 300}, {3, 100}}
	preds := []core.Prediction{
		{Link: 1, Frac: 0.5}, // min(500, 600) = 500
		{Link: 3, Frac: 0.3}, // min(300, 100) = 100
		{Link: 9, Frac: 0.2}, // absent from truth: 0
	}
	if got := CreditBytes(preds, 1, links, 1000); got != 500 {
		t.Errorf("k=1 credit = %v, want 500", got)
	}
	if got := CreditBytes(preds, 3, links, 1000); got != 600 {
		t.Errorf("k=3 credit = %v, want 600", got)
	}
	// k=0 means no truncation; empty predictions earn nothing.
	if got := CreditBytes(preds, 0, links, 1000); got != 600 {
		t.Errorf("k=0 credit = %v, want 600", got)
	}
	if got := CreditBytes(nil, 3, links, 1000); got != 0 {
		t.Errorf("empty predictions credit = %v, want 0", got)
	}
}

// unitAccuracy is top-1 and top-3 accuracy with each flow grouped
// over spans of span hours from the first test hour: the test window,
// a day or an hour.
func unitAccuracy(e *Env, m core.Predictor, span wan.Hour) (top1, top3 float64) {
	var c1, c3 float64
	var total uint64
	for from := e.TestFrom; from < e.TestTo; from += span {
		for _, g := range BuildGroups(dataset.Window(e.Test, from, from+span), Options{}) {
			preds := m.Predict(core.Query{Flow: g.Flow, K: 3})
			c1 += CreditBytes(preds, 1, g.Links, g.Total)
			c3 += CreditBytes(preds, 3, g.Links, g.Total)
			total += g.Total
		}
	}
	return c1 / float64(total), c3 / float64(total)
}

// TestCoarserUnitNeverScoresLower: with the same predictions,
// min(a+b, c+d) ≥ min(a, c) + min(b, d), so merging a flow's hours
// into a day, or its days into the test window, can only raise its
// credit. The window unit is Accuracy's.
func TestCoarserUnitNeverScoresLower(t *testing.T) {
	const slack = 1e-12 // summation order
	e := sharedEnv(t)
	for _, m := range []core.Predictor{e.Hist(features.SetAP), e.Served} {
		acc := Accuracy(m, e.Test, Options{Ks: []int{1, 3}})
		window1, window3 := unitAccuracy(e, m, e.TestTo-e.TestFrom)
		day1, day3 := unitAccuracy(e, m, 24)
		hour1, hour3 := unitAccuracy(e, m, 1)
		if math.Abs(window1-acc[1]) > slack || math.Abs(window3-acc[3]) > slack {
			t.Errorf("%s: window unit reads %v/%v, Accuracy %v/%v", m.Name(), window1, window3, acc[1], acc[3])
		}
		if window1+slack < day1 || day1+slack < hour1 || window3+slack < day3 || day3+slack < hour3 {
			t.Errorf("%s: top-1 %v/%v/%v, top-3 %v/%v/%v at window/day/hour: a finer unit scores higher",
				m.Name(), window1, day1, hour1, window3, day3, hour3)
		}
		if hour3 >= window3 {
			t.Errorf("%s: hour unit top-3 %v not below the window's %v", m.Name(), hour3, window3)
		}
	}
}
