package eval

import (
	"fmt"
	"slices"
	"sort"

	"tipsy/internal/bgp"
	"tipsy/internal/core"
	"tipsy/internal/dataset"
	"tipsy/internal/features"
	"tipsy/internal/serve"
	"tipsy/internal/wan"
)

// AccuracyRow is one row of an accuracy table: a model's top-1/2/3
// accuracy as percentages.
type AccuracyRow struct {
	Model            string
	Top1, Top2, Top3 float64
	Oracle           bool
}

// StandardKs are the k values the paper's tables report.
var StandardKs = []int{1, 2, 3}

func row(model core.Predictor, recs []features.Record, opts Options, oracle bool) AccuracyRow {
	opts.Ks = StandardKs
	acc := Accuracy(model, recs, opts)
	return AccuracyRow{
		Model: model.Name(), Oracle: oracle,
		Top1: acc[1] * 100, Top2: acc[2] * 100, Top3: acc[3] * 100,
	}
}

// GroupBySet coarsens evaluation units to a feature set's tuple
// granularity; the paper scores each oracle this way.
func GroupBySet(set features.Set) func(features.FlowFeatures) features.FlowFeatures {
	return func(f features.FlowFeatures) features.FlowFeatures {
		t := set.Project(f)
		return features.FlowFeatures{AS: t.AS, Prefix: t.Prefix, Loc: t.Loc, Region: t.Region, Type: t.Type}
	}
}

// tableEntry pairs a model with how it is evaluated. Oracle entries
// carry only the feature set; the oracle itself is trained per table
// on the selected slice of the testing data, because the paper's
// oracle has perfect knowledge of exactly the traffic being scored.
type tableEntry struct {
	m      core.Predictor
	oracle bool
	set    features.Set // oracle granularity; valid when oracle
}

// modelsWithOracles interleaves oracles and models the way the
// paper's tables do: Oracle_X immediately above the Hist_X it bounds.
func (e *Env) modelsWithOracles(models []core.Predictor) []tableEntry {
	var out []tableEntry
	for _, set := range []features.Set{features.SetA, features.SetAP, features.SetAL} {
		out = append(out, tableEntry{oracle: true, set: set})
		for _, m := range models {
			if h, ok := m.(*core.Historical); ok && h.Set() == set {
				out = append(out, tableEntry{m: m})
			}
		}
	}
	for _, m := range models {
		if _, ok := m.(*core.Historical); !ok {
			out = append(out, tableEntry{m: m})
		}
	}
	return out
}

// tableRows scores each entry on the selected records. Oracles are
// trained on them and evaluated at their own tuple granularity.
func tableRows(e *Env, entries []tableEntry, opts Options) []AccuracyRow {
	selected := e.Test
	if opts.Select != nil {
		selected = selected[:0:0]
		for _, r := range e.Test {
			if opts.Select(r.Flow, r.Hour) {
				selected = append(selected, r)
			}
		}
		opts.Select = nil
	}
	var rows []AccuracyRow
	for _, entry := range entries {
		o := opts
		m := entry.m
		if entry.oracle {
			o.GroupBy = GroupBySet(entry.set)
			m = NewOracle(entry.set, selected)
		}
		rows = append(rows, row(m, selected, o, entry.oracle))
	}
	return rows
}

// Table4 reproduces "Overall prediction accuracy, with 3 weeks of
// training and 1 week of testing": every model and oracle scored on
// all test traffic.
func Table4(e *Env) []AccuracyRow {
	return tableRows(e, e.modelsWithOracles(e.StandardModels()), Options{})
}

// OutageClass selects which outage-affected traffic an experiment
// scores.
type OutageClass int

const (
	// AllOutages: every flow-hour whose top trained link was down
	// (Table 5).
	AllOutages OutageClass = iota
	// SeenOutages: the down link also had an outage during training
	// (Table 6).
	SeenOutages
	// UnseenOutages: the down link had no outage during training
	// (Table 7).
	UnseenOutages
)

// outageOptions builds the §5.3 evaluation options: select flow-hours
// whose top-1 training link is unavailable, give models the
// availability prior, and restrict by outage class. A flow's top
// training link is Hist_AP's first stored link for it: the AP tuple
// fixes the flow, because the location is the prefix's Geo-IP metro.
func (e *Env) outageOptions(class OutageClass) Options {
	hAP := e.Hist(features.SetAP)
	return Options{
		Exclude: e.TestExclude,
		Select: func(f features.FlowFeatures, h wan.Hour) bool {
			top, ok := hAP.TopLink(f)
			if !ok || !e.TestOut.Down(top, h) {
				return false
			}
			switch class {
			case SeenOutages:
				return e.TrainOut.HasOutage(top)
			case UnseenOutages:
				return !e.TrainOut.HasOutage(top)
			default:
				return true
			}
		},
	}
}

// TableOutages reproduces Tables 5, 6, and 7: accuracy restricted to
// traffic whose top training link was down, for the given class.
func TableOutages(e *Env, class OutageClass) []AccuracyRow {
	return tableRows(e, e.modelsWithOracles(e.StandardModels()), e.outageOptions(class))
}

// OutageBytesSplit reports the fraction of outage-affected test bytes
// whose outage was unseen in training (the paper reports ~57%).
func OutageBytesSplit(e *Env) (seen, unseen uint64) {
	hAP := e.Hist(features.SetAP)
	for _, r := range e.Test {
		top, ok := hAP.TopLink(r.Flow)
		if !ok || !e.TestOut.Down(top, r.Hour) {
			continue
		}
		if e.TrainOut.HasOutage(top) {
			seen += uint64(r.Bytes)
		} else {
			unseen += uint64(r.Bytes)
		}
	}
	return seen, unseen
}

// Fig5Point is one point of Figure 5: oracle accuracy at k.
type Fig5Point struct {
	K   int // 0 = unrestricted
	Acc map[string]float64
}

// Fig5 reproduces "Prediction accuracy of oracle as a function of the
// number of ingress links predicted" for the A, AP and AL oracles.
func Fig5(e *Env, ks []int) []Fig5Point {
	if len(ks) == 0 {
		ks = []int{1, 2, 3, 4, 5, 7, 10, 15, 20, 50, 0}
	}
	oracles := []*Oracle{
		NewOracle(features.SetA, e.Test), NewOracle(features.SetAP, e.Test), NewOracle(features.SetAL, e.Test),
	}
	accs := make(map[string]map[int]float64)
	for _, o := range oracles {
		accs[o.Name()] = Accuracy(o, e.Test, Options{Ks: ks, GroupBy: GroupBySet(o.Set())})
	}
	out := make([]Fig5Point, len(ks))
	for i, k := range ks {
		p := Fig5Point{K: k, Acc: make(map[string]float64, len(oracles))}
		for _, o := range oracles {
			p.Acc[o.Name()] = accs[o.Name()][k] * 100
		}
		out[i] = p
	}
	return out
}

// Fig2Point is one point of the Figure 2 CDF: cumulative fraction of
// ingress bytes from source ASes at most Dist AS-hops away.
type Fig2Point struct {
	Dist    int
	Bytes   uint64
	CumFrac float64
}

// Fig2 reproduces "CDF of Bytes by distance of source AS" over the
// given records, using the valley-free AS distances of the generated
// AS graph.
func Fig2(e *Env, recs []features.Record) []Fig2Point {
	dist := e.Graph.DistancesToCloud()
	byDist := make(map[int]uint64)
	var total uint64
	for _, r := range recs {
		d, ok := dist[r.Flow.AS]
		if !ok {
			continue
		}
		byDist[d] += uint64(r.Bytes)
		total += uint64(r.Bytes)
	}
	var ds []int
	for d := range byDist {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	out := make([]Fig2Point, 0, len(ds))
	var cum uint64
	for _, d := range ds {
		cum += byDist[d]
		out = append(out, Fig2Point{Dist: d, Bytes: byDist[d], CumFrac: float64(cum) / float64(total)})
	}
	return out
}

// Fig3Row summarizes, for source ASes at one AS-hop distance, the
// byte-weighted distribution of how many distinct peering links each
// AS's traffic arrived on: the quantiles of Figure 3's per-distance
// CDFs.
type Fig3Row struct {
	Dist          int
	ASes          int
	Bytes         uint64
	P50, P90, P99 int // links receiving traffic, byte-weighted quantiles
	MaxLinks      int
}

// Fig3 reproduces "CDF of Bytes from source ASes against the number
// of our peering links that received it, grouped by AS distance".
func Fig3(e *Env, recs []features.Record) []Fig3Row {
	dist := e.Graph.DistancesToCloud()
	type asAgg struct {
		links map[wan.LinkID]bool
		bytes uint64
	}
	perAS := make(map[bgp.ASN]*asAgg)
	for _, r := range recs {
		a := perAS[r.Flow.AS]
		if a == nil {
			a = &asAgg{links: make(map[wan.LinkID]bool)}
			perAS[r.Flow.AS] = a
		}
		a.links[r.Link] = true
		a.bytes += uint64(r.Bytes)
	}
	type pt struct {
		nLinks int
		bytes  uint64
	}
	byDist := make(map[int][]pt)
	for asn, a := range perAS {
		d, ok := dist[asn]
		if !ok {
			continue
		}
		byDist[d] = append(byDist[d], pt{len(a.links), a.bytes})
	}
	var ds []int
	for d := range byDist {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	out := make([]Fig3Row, 0, len(ds))
	for _, d := range ds {
		pts := byDist[d]
		sort.Slice(pts, func(i, j int) bool { return pts[i].nLinks < pts[j].nLinks })
		var total uint64
		for _, p := range pts {
			total += p.bytes
		}
		quantile := func(q float64) int {
			var cum uint64
			for _, p := range pts {
				cum += p.bytes
				if float64(cum) >= q*float64(total) {
					return p.nLinks
				}
			}
			return pts[len(pts)-1].nLinks
		}
		out = append(out, Fig3Row{
			Dist: d, ASes: len(pts), Bytes: total,
			P50: quantile(0.5), P90: quantile(0.9), P99: quantile(0.99),
			MaxLinks: pts[len(pts)-1].nLinks,
		})
	}
	return out
}

// Table1 reports the observed feature cardinalities over the training
// window, the substrate's version of the paper's Table 1.
func Table1(e *Env) features.Cardinality {
	return features.Cardinalities(e.Train)
}

// NBModels is the Appendix A Naïve Bayes models and the Hist_AL/NB_AL
// ensemble, scored alongside the standard set in Tables 9 and 10. The
// first call trains them; every later call over the same training
// window returns the same fits, as Hist does.
func (e *Env) NBModels() []core.Predictor {
	if e.nb == nil {
		hAL := e.Hist(features.SetAL)
		nbA := TrainNaiveBayes(features.SetA, e.Train, DefaultNBOpts())
		nbAL := TrainNaiveBayes(features.SetAL, e.Train, DefaultNBOpts())
		e.nb = []core.Predictor{nbA, nbAL, core.NewEnsemble(hAL, nbAL)}
	}
	return e.nb
}

// Table9 reproduces the Appendix A overall-accuracy comparison
// including the Naïve Bayes models.
func Table9(e *Env) []AccuracyRow {
	models := append(e.StandardModels(), e.NBModels()...)
	return tableRows(e, e.modelsWithOracles(models), Options{})
}

// Table10 reproduces the Appendix A outage-accuracy comparison.
func Table10(e *Env) []AccuracyRow {
	models := append(e.StandardModels(), e.NBModels()...)
	return tableRows(e, e.modelsWithOracles(models), e.outageOptions(AllOutages))
}

// Ablation is one of DESIGN §4's ablations: Hist_AP trained on a
// variant of the training window and scored on the test week.
type Ablation struct {
	Title string
	Rows  []AccuracyRow
}

// Ablations scores Hist_AP three ways: trained on the real bytes
// against Bytes = 1 (§3.3); with the source prefix masked to /16, /20
// and /24 in train and test alike (§3.2); and keeping 1, 3 and 16
// links per tuple (§5.1.2). Each row's name ends in its model's size:
// tuples, or stored (tuple, link) entries for the stored-links rows.
func Ablations(e *Env) []Ablation {
	variant := func(name string, n int, m core.Predictor, test []features.Record) AccuracyRow {
		r := row(m, test, Options{}, false)
		r.Model = fmt.Sprintf("%s n=%d", name, n)
		return r
	}
	unweighted := slices.Clone(e.Train)
	for i := range unweighted {
		unweighted[i].Bytes = 1
	}
	hist := e.Hist(features.SetAP)
	flat := core.TrainHistorical(features.SetAP, unweighted, core.DefaultHistOpts())
	weighting := []AccuracyRow{
		variant("weighted", hist.NumTuples(), hist, e.Test),
		variant("unweighted", flat.NumTuples(), flat, e.Test),
	}
	var prefix, links []AccuracyRow
	for _, bits := range []uint8{16, 20, 24} {
		train, test := slices.Clone(e.Train), slices.Clone(e.Test)
		for _, recs := range [][]features.Record{train, test} {
			for i := range recs {
				recs[i].Flow.Prefix &= bgp.Mask(bits)
			}
		}
		m := core.TrainHistorical(features.SetAP, train, core.DefaultHistOpts())
		prefix = append(prefix, variant(fmt.Sprintf("/%d", bits), m.NumTuples(), m, test))
	}
	for _, keep := range []int{1, 3, 16} {
		m := core.TrainHistorical(features.SetAP, e.Train, core.HistOpts{MaxLinksPerTuple: keep})
		links = append(links, variant(fmt.Sprintf("keep %d", keep), m.NumEntries(), m, e.Test))
	}
	return []Ablation{
		{"Ablation: byte-weighted training (§3.3), Hist_AP; n = tuples", weighting},
		{"Ablation: source prefix length (§3.2), Hist_AP; n = tuples", prefix},
		{"Ablation: stored links per tuple (§5.1.2), Hist_AP; n = stored entries", links},
	}
}

// Fig9Point is one point of Figure 9: model accuracy given a training
// window length.
type Fig9Point struct {
	TrainDays        int
	MeanTop3         float64
	MinTop3, MaxTop3 float64
}

// Fig9 reproduces "Accuracy given the number of training days" for
// Hist_AL/AP/A: the environment's full horizon is re-sliced into
// nPeriods non-overlapping test windows, each preceded by training
// windows of varying lengths. The environment must have been built
// with enough TrainDays to accommodate the longest length.
func Fig9(e *Env, lengths []int, nPeriods, testDays int) []Fig9Point {
	if len(lengths) == 0 {
		lengths = []int{3, 7, 14, 21, 28}
	}
	maxLen := 0
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	// The sliding periods extend past the standard split; simulate as
	// far as the last one needs.
	horizon := wan.Hour((maxLen + nPeriods*testDays) * 24)
	if horizon < e.TestTo {
		horizon = e.TestTo
	}
	all := e.Records(0, horizon)
	out := make([]Fig9Point, 0, len(lengths))
	for _, l := range lengths {
		pt := Fig9Point{TrainDays: l, MinTop3: 101, MaxTop3: -1}
		n := 0
		for p := 0; p < nPeriods; p++ {
			testFrom := wan.Hour((maxLen + p*testDays) * 24)
			testTo := testFrom + wan.Hour(testDays*24)
			if testTo > horizon {
				break
			}
			trainFrom := testFrom - wan.Hour(l*24)
			train := dataset.Window(all, trainFrom, testFrom)
			test := dataset.Window(all, testFrom, testTo)
			if len(train) == 0 || len(test) == 0 {
				continue
			}
			m := ensembleALAPA(serve.Train(train, testFrom, e.Dir, e.Metros))
			acc := Accuracy(m, test, Options{Ks: []int{3}})[3] * 100
			pt.MeanTop3 += acc
			if acc < pt.MinTop3 {
				pt.MinTop3 = acc
			}
			if acc > pt.MaxTop3 {
				pt.MaxTop3 = acc
			}
			n++
		}
		if n > 0 {
			pt.MeanTop3 /= float64(n)
			out = append(out, pt)
		}
	}
	return out
}

// Fig10Point is one point of Figure 10: accuracy on the nth day after
// the training window closed.
type Fig10Point struct {
	DayAfter int
	Top3     float64
}

// Fig10 reproduces "Daily accuracy after training": a model trained
// on the standard window is scored on each subsequent day separately,
// showing staleness decay.
func Fig10(e *Env, days int) []Fig10Point {
	all := e.Records(0, e.TrainTo+wan.Hour(days*24))
	train := dataset.Window(all, e.TrainFrom, e.TrainTo)
	m := ensembleALAPA(serve.Train(train, e.TrainTo, e.Dir, e.Metros))
	out := make([]Fig10Point, 0, days)
	for d := 0; d < days; d++ {
		from := e.TrainTo + wan.Hour(d*24)
		day := dataset.Window(all, from, from+24)
		if len(day) == 0 {
			continue
		}
		acc := Accuracy(m, day, Options{Ks: []int{3}})[3] * 100
		out = append(out, Fig10Point{DayAfter: d + 1, Top3: acc})
	}
	return out
}

// Fig11Stats summarizes the accuracy distribution across sliding
// windows for one outage class (Figure 11's box plots).
type Fig11Stats struct {
	Class                    string
	N                        int
	Min, Q1, Median, Q3, Max float64
}

// Fig11 reproduces "Accuracy for N training and testing time
// windows": models are retrained on sliding 21-day windows (scaled to
// the environment's TrainDays) and tested on the following day,
// separately for overall, seen-outage, and unseen-outage traffic.
func Fig11(e *Env, windows int) []Fig11Stats {
	trainLen := wan.Hour(e.Cfg.TrainDays * 24)
	horizon := trainLen + wan.Hour((windows+1)*24)
	if horizon < e.TestTo {
		horizon = e.TestTo
	}
	all := e.Records(0, horizon)
	samples := map[string][]float64{"overall": nil, "seen": nil, "unseen": nil}
	for w := 0; w < windows; w++ {
		testFrom := trainLen + wan.Hour(w*24)
		testTo := testFrom + 24
		if testTo > horizon {
			break
		}
		trainFrom := testFrom - trainLen
		train := dataset.Window(all, trainFrom, testFrom)
		test := dataset.Window(all, testFrom, testTo)
		if len(train) == 0 || len(test) == 0 {
			continue
		}
		sub := &Env{Cfg: e.Cfg, Sim: e.Sim, Dir: e.Dir, Metros: e.Metros, Graph: e.Graph, Workload: e.Workload,
			TrainFrom: trainFrom, TestTo: testTo}
		subAll := append(append([]features.Record(nil), train...), test...)
		sub.SplitAt(subAll, testFrom)
		m := ensembleALAPA(sub.Served)
		samples["overall"] = append(samples["overall"],
			Accuracy(m, sub.Test, Options{Ks: []int{3}})[3]*100)
		for _, cls := range []struct {
			name string
			c    OutageClass
		}{{"seen", SeenOutages}, {"unseen", UnseenOutages}} {
			opts := sub.outageOptions(cls.c)
			opts.Ks = []int{3}
			acc := Accuracy(m, sub.Test, opts)
			samples[cls.name] = append(samples[cls.name], acc[3]*100)
		}
	}
	var out []Fig11Stats
	for _, name := range []string{"overall", "seen", "unseen"} {
		s := samples[name]
		if len(s) == 0 {
			continue
		}
		sort.Float64s(s)
		q := func(p float64) float64 { return s[int(p*float64(len(s)-1)+0.5)] }
		out = append(out, Fig11Stats{
			Class: name, N: len(s),
			Min: s[0], Q1: q(0.25), Median: q(0.5), Q3: q(0.75), Max: s[len(s)-1],
		})
	}
	return out
}
