package eval

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"

	"tipsy/internal/core"
	"tipsy/internal/features"
)

var (
	envOnce sync.Once
	testEnv *Env
)

// sharedEnv builds the small environment once; the environment build
// is the expensive part of every experiment test.
func sharedEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() { testEnv = Build(SmallEnvConfig(1)) })
	if testEnv == nil {
		t.Fatal("environment build failed")
	}
	return testEnv
}

func TestEnvWellFormed(t *testing.T) {
	e := sharedEnv(t)
	if len(e.Train) == 0 || len(e.Test) == 0 {
		t.Fatal("empty train or test window")
	}
	for _, r := range e.Train {
		if r.Hour >= e.TrainTo {
			t.Fatal("train window leaked into test hours")
		}
	}
	for _, r := range e.Test {
		if r.Hour < e.TestFrom {
			t.Fatal("test window leaked into training hours")
		}
	}
	if len(e.TopTrain) == 0 {
		t.Fatal("no top training links computed")
	}
}

func TestTable1Shape(t *testing.T) {
	e := sharedEnv(t)
	c := Table1(e)
	// Table 1 of the paper: A tuples < AL tuples < AP tuples, because
	// prefix is the highest-cardinality feature and location the
	// coarser stand-in.
	if !(c.TuplesA < c.TuplesAL && c.TuplesAL < c.TuplesAP) {
		t.Errorf("tuple cardinality ordering violated: %+v", c)
	}
	if c.Prefix <= c.AS || c.Loc >= c.Prefix {
		t.Errorf("feature cardinality ordering violated: %+v", c)
	}
}

func TestFig2Shape(t *testing.T) {
	e := sharedEnv(t)
	pts := Fig2(e, e.Train)
	if len(pts) < 2 {
		t.Fatalf("need at least 2 distances: %+v", pts)
	}
	last := 0.0
	for _, p := range pts {
		if p.CumFrac < last {
			t.Error("CDF not monotone")
		}
		last = p.CumFrac
	}
	if last < 0.999 {
		t.Errorf("CDF ends at %f, want 1", last)
	}
	if pts[0].Dist != 1 || pts[0].CumFrac < 0.40 {
		t.Errorf("flat-Internet property violated: direct peers carry %f of bytes", pts[0].CumFrac)
	}
}

func TestFig3Shape(t *testing.T) {
	e := sharedEnv(t)
	rows := Fig3(e, e.Train)
	if len(rows) < 2 {
		t.Fatalf("need at least 2 distance groups: %+v", rows)
	}
	// Figure 3's surprising finding: the closer the source AS, the
	// MORE links its traffic spreads over.
	if rows[0].Dist != 1 {
		t.Fatal("first row should be 1-hop ASes")
	}
	if rows[0].P90 < rows[len(rows)-1].P90 {
		t.Errorf("1-hop ASes should spray over at least as many links as the farthest: %+v", rows)
	}
	if rows[0].MaxLinks < 3 {
		t.Errorf("1-hop ASes spread over only %d links", rows[0].MaxLinks)
	}
}

func TestFig5Shape(t *testing.T) {
	e := sharedEnv(t)
	pts := Fig5(e, []int{1, 2, 3, 10, 0})
	for _, name := range []string{"Oracle_A", "Oracle_AP", "Oracle_AL"} {
		last := -1.0
		for _, p := range pts {
			v := p.Acc[name]
			if v < last-1e-9 {
				t.Errorf("%s: accuracy not monotone in k", name)
			}
			last = v
		}
		if final := pts[len(pts)-1].Acc[name]; final < 99.99 {
			t.Errorf("%s unrestricted = %f, want 100", name, final)
		}
	}
	// Top-1 must leave meaningful mass on other links (the paper sees
	// 65-85%).
	if top1 := pts[0].Acc["Oracle_AP"]; top1 < 55 || top1 > 97 {
		t.Errorf("Oracle_AP top-1 = %f, implausible", top1)
	}
}

func TestTable4Shape(t *testing.T) {
	e := sharedEnv(t)
	rows := Table4(e)
	byName := map[string]AccuracyRow{}
	for _, r := range rows {
		byName[r.Model] = r
	}
	// Oracles bound their models.
	for _, set := range []string{"A", "AP", "AL"} {
		o, h := byName["Oracle_"+set], byName["Hist_"+set]
		if h.Top3 > o.Top3+1e-9 {
			t.Errorf("Hist_%s (%.2f) beats its oracle (%.2f) at top-3", set, h.Top3, o.Top3)
		}
	}
	// Feature-rich models beat the AS-only model.
	if byName["Hist_AP"].Top3 <= byName["Hist_A"].Top3 {
		t.Error("Hist_AP should beat Hist_A overall")
	}
	// The ensemble is at least as good as its best component here.
	if byName["Hist_AP/AL/A"].Top3 < byName["Hist_AP"].Top3-1e-9 {
		t.Error("ensemble should not lose to its first component")
	}
	// AL+G must not hurt normal traffic (Table 4 of the paper).
	if byName["Hist_AL+G"].Top3 < byName["Hist_AL"].Top3-1.0 {
		t.Errorf("AL+G (%.2f) materially worse than AL (%.2f) overall",
			byName["Hist_AL+G"].Top3, byName["Hist_AL"].Top3)
	}
	// Sanity on absolute levels: historical models work well overall.
	if byName["Hist_AP"].Top3 < 70 {
		t.Errorf("Hist_AP top-3 = %.2f, implausibly low", byName["Hist_AP"].Top3)
	}
}

// TestTable4Pinned pins every row of seed 1's small-environment Table
// 4 with ==, so a change to how the models are fitted or assembled
// cannot move a number unnoticed. The rows above "served" were taken
// while eval still fitted its own models, before it read them off the
// served generation.
func TestTable4Pinned(t *testing.T) {
	want := []AccuracyRow{
		{Model: "Oracle_A", Top1: 68.29566049241703, Top2: 86.35901559826556, Top3: 91.8349682967853, Oracle: true},
		{Model: "Hist_A", Top1: 54.85641324677848, Top2: 65.00812470620298, Top3: 66.71081969733616},
		{Model: "Oracle_AP", Top1: 85.08288874032293, Top2: 98.5386032595724, Top3: 99.87534583766, Oracle: true},
		{Model: "Hist_AP", Top1: 77.30017342917006, Top2: 88.77637978649481, Top3: 89.48565250626218},
		{Model: "Oracle_AL", Top1: 83.00129694761398, Top2: 97.79046273860786, Top3: 99.60543063831264, Oracle: true},
		{Model: "Hist_AL", Top1: 73.9647897221882, Top2: 85.29673385626259, Top3: 86.12587197456432},
		{Model: "Hist_AL+G", Top1: 73.9647897221882, Top2: 85.29673385626259, Top3: 86.12587197456432},
		{Model: "Hist_AP/AL/A", Top1: 77.30017342917006, Top2: 88.77637978649481, Top3: 89.48565250626218},
		{Model: "Hist_AL/AP/A", Top1: 73.9647897221882, Top2: 85.29673385626259, Top3: 86.12587197456432},
		{Model: "served", Top1: 77.30017342917006, Top2: 88.77637978649481, Top3: 89.48565250626218},
	}
	got := Table4(sharedEnv(t))
	if len(got) != len(want) {
		t.Fatalf("Table 4 has %d rows, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestHistIsTheServedFit: Env.Hist hands out the served generation's
// fit, one pointer per set, and that fit is the one TrainHistorical
// makes of the training window, byte for byte.
func TestHistIsTheServedFit(t *testing.T) {
	e := sharedEnv(t)
	for _, set := range []features.Set{features.SetA, features.SetAP, features.SetAL} {
		h := e.Hist(set)
		if h == nil || h != e.Hist(set) || h.Set() != set {
			t.Fatalf("%v: Hist returned %p then %p", set, h, e.Hist(set))
		}
		if got, want := checkpointBytes(t, h), checkpointBytes(t, core.TrainHistorical(set, e.Train, core.DefaultHistOpts())); !bytes.Equal(got, want) {
			t.Errorf("%v: the served fit's checkpoint differs from a fresh fit's", set)
		}
	}
}

func checkpointBytes(t *testing.T, h *core.Historical) []byte {
	t.Helper()
	var buf bytes.Buffer
	ck := core.Checkpoint{Models: []*core.Historical{h}}
	if err := ck.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestOutageTablesShape(t *testing.T) {
	e := sharedEnv(t)
	overall := Table4(e)
	all := TableOutages(e, AllOutages)
	if len(all) == 0 {
		t.Skip("no outage-affected traffic in this window")
	}
	get := func(rows []AccuracyRow, name string) AccuracyRow {
		for _, r := range rows {
			if r.Model == name {
				return r
			}
		}
		t.Fatalf("row %s missing", name)
		return AccuracyRow{}
	}
	// Outage-time prediction is harder than normal operation (Table 5
	// vs Table 4 of the paper). Individual small-environment windows
	// can buck the trend when one well-covered event dominates, so
	// the bound is loose.
	if get(all, "Hist_AP").Top3 > get(overall, "Hist_AP").Top3+10 {
		t.Errorf("outage accuracy (%.1f) implausibly above overall (%.1f) for Hist_AP",
			get(all, "Hist_AP").Top3, get(overall, "Hist_AP").Top3)
	}
	// The oracle bound holds unconditionally.
	if get(all, "Hist_AP").Top3 > get(all, "Oracle_AP").Top3+1e-9 {
		t.Error("Hist_AP beats its oracle on outage traffic")
	}
	seen, unseen := OutageBytesSplit(e)
	if seen+unseen == 0 {
		t.Skip("no outage bytes")
	}
	if seen > 0 && unseen > 0 {
		seenRows := TableOutages(e, SeenOutages)
		unseenRows := TableOutages(e, UnseenOutages)
		// Seen outages are far more predictable than unseen ones for
		// the prefix-specific model (Tables 6 vs 7).
		if get(seenRows, "Hist_AP").Top3 <= get(unseenRows, "Hist_AP").Top3 {
			t.Errorf("seen (%.1f) should beat unseen (%.1f) for Hist_AP",
				get(seenRows, "Hist_AP").Top3, get(unseenRows, "Hist_AP").Top3)
		}
	}
}

// TestAblationsShape checks DESIGN §4's ablation claims: training on
// bytes beats counting records (§3.3), the /24 source prefix beats /16
// and /20 for more tuples (§3.2), and one stored link per tuple loses
// to three or sixteen for fewer stored entries (§5.1.2). Keep-3 and
// keep-16 are left unordered: top-3 fractions renormalise over the
// links a tuple stores, so keep-3 can read higher (91.31 against
// 91.19 at full scale).
func TestAblationsShape(t *testing.T) {
	type scored struct {
		top3 float64
		n    int
	}
	var got []scored
	for _, a := range Ablations(sharedEnv(t)) {
		for _, r := range a.Rows {
			_, count, ok := strings.Cut(r.Model, " n=")
			n, err := strconv.Atoi(count)
			if !ok || err != nil {
				t.Fatalf("%s: row %q does not end in its size", a.Title, r.Model)
			}
			got = append(got, scored{r.Top3, n})
		}
	}
	if len(got) != 8 {
		t.Fatalf("%d ablation rows, want 2 weighting + 3 prefix + 3 stored-links: %+v", len(got), got)
	}
	weighted, unweighted := got[0], got[1]
	p16, p20, p24 := got[2], got[3], got[4]
	keep1, keep3, keep16 := got[5], got[6], got[7]
	if weighted.top3 <= unweighted.top3 {
		t.Errorf("weighted %.2f does not beat unweighted %.2f top-3", weighted.top3, unweighted.top3)
	}
	for _, coarse := range []scored{p16, p20} {
		if p24.top3 <= coarse.top3 || p24.n <= coarse.n {
			t.Errorf("/24 (%.2f, %d tuples) is not above a coarser prefix (%.2f, %d tuples)", p24.top3, p24.n, coarse.top3, coarse.n)
		}
	}
	for _, more := range []scored{keep3, keep16} {
		if keep1.top3 >= more.top3 || keep1.n >= more.n {
			t.Errorf("keep 1 (%.2f, %d entries) is not below keeping more (%.2f, %d entries)", keep1.top3, keep1.n, more.top3, more.n)
		}
	}
}

func TestFig6Fig7Shape(t *testing.T) {
	pts6 := Fig6(800, 1.6, 3, 30)
	if len(pts6) == 0 {
		t.Fatal("no Fig6 points")
	}
	last := 0.0
	for _, p := range pts6 {
		if p.CumFrac < last {
			t.Error("Fig6 CDF not monotone")
		}
		last = p.CumFrac
	}
	// Figure 6: most links experience an outage within the year.
	if last < 0.6 || last > 1.0 {
		t.Errorf("%.0f%% of links had an outage in a year; want a large majority", last*100)
	}
	pts7 := Fig7(800, 1.6, 3, 30)
	if len(pts7) == 0 {
		t.Fatal("no Fig7 points")
	}
	// Figure 7: a sizable fraction of links failed recently (within
	// ~50 days).
	var at60 float64
	for _, p := range pts7 {
		if p.DaysAgo == 60 {
			at60 = p.CumFrac
		}
	}
	if at60 < 0.15 {
		t.Errorf("only %.0f%% of links failed within 60 days", at60*100)
	}
}

func TestFig9Fig10Run(t *testing.T) {
	e := sharedEnv(t)
	pts := Fig9(e, []int{2, 4}, 1, 2)
	if len(pts) == 0 {
		t.Fatal("Fig9 produced nothing")
	}
	for _, p := range pts {
		if p.MeanTop3 <= 0 || p.MeanTop3 > 100 {
			t.Errorf("implausible accuracy %f at %d train days", p.MeanTop3, p.TrainDays)
		}
		if p.MinTop3 > p.MeanTop3+1e-9 || p.MaxTop3 < p.MeanTop3-1e-9 {
			t.Errorf("min/mean/max inconsistent: %+v", p)
		}
	}
	pts10 := Fig10(e, 2)
	if len(pts10) == 0 {
		t.Fatal("Fig10 produced nothing")
	}
	for _, p := range pts10 {
		if p.Top3 <= 0 || p.Top3 > 100 {
			t.Errorf("implausible accuracy %f on day %d", p.Top3, p.DayAfter)
		}
	}
}

func TestFig11Run(t *testing.T) {
	e := sharedEnv(t)
	stats := Fig11(e, 2)
	if len(stats) == 0 {
		t.Fatal("Fig11 produced nothing")
	}
	for _, s := range stats {
		if s.Min > s.Q1+1e-9 || s.Q1 > s.Median+1e-9 || s.Median > s.Q3+1e-9 || s.Q3 > s.Max+1e-9 {
			t.Errorf("%s: quartiles out of order: %+v", s.Class, s)
		}
	}
}

func TestNaiveBayesTables(t *testing.T) {
	e := sharedEnv(t)
	rows := Table9(e)
	byName := map[string]AccuracyRow{}
	for _, r := range rows {
		byName[r.Model] = r
	}
	nb, hist := byName["NB_AL"], byName["Hist_AL"]
	if nb.Model == "" {
		t.Fatal("NB_AL row missing")
	}
	// Appendix A: Naive Bayes is inferior to the historical model at
	// the same feature set.
	if nb.Top3 > hist.Top3+2.0 {
		t.Errorf("NB_AL (%.2f) should not beat Hist_AL (%.2f)", nb.Top3, hist.Top3)
	}
	if nb.Top3 < 20 {
		t.Errorf("NB_AL top-3 = %.2f, implausibly low", nb.Top3)
	}
}

func TestCardinalityHelpers(t *testing.T) {
	e := sharedEnv(t)
	if got := features.Cardinalities(e.Train); got.AS == 0 {
		t.Error("no AS cardinality")
	}
}
