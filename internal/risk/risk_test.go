package risk

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"tipsy/internal/bgp"
	"tipsy/internal/core"
	"tipsy/internal/eval"
	"tipsy/internal/features"
	"tipsy/internal/wan"
)

// staticDir is a minimal wan.Directory for unit tests.
type staticDir struct{ links map[wan.LinkID]wan.Link }

func (d *staticDir) Link(id wan.LinkID) (wan.Link, bool) { l, ok := d.links[id]; return l, ok }
func (d *staticDir) LinksOfAS(as bgp.ASN) []wan.LinkID {
	var out []wan.LinkID
	for id := wan.LinkID(1); int(id) <= len(d.links); id++ {
		if d.links[id].PeerAS == as {
			out = append(out, id)
		}
	}
	return out
}
func (d *staticDir) Links() []wan.LinkID {
	out := make([]wan.LinkID, 0, len(d.links))
	for id := wan.LinkID(1); int(id) <= len(d.links); id++ {
		out = append(out, id)
	}
	return out
}

// gbph converts a utilization fraction of a 10G link into bytes/hour.
func gbph(util float64) float64 { return util * 10e9 * 3600 / 8 }

func testSetup() (*staticDir, core.Predictor, []features.Record) {
	dir := &staticDir{links: map[wan.LinkID]wan.Link{
		1: {ID: 1, Metro: 1, PeerAS: 5, Capacity: 10e9, Router: "sea01-er1"},
		2: {ID: 2, Metro: 1, PeerAS: 5, Capacity: 10e9, Router: "sea01-er2"},
		3: {ID: 3, Metro: 2, PeerAS: 6, Capacity: 10e9, Router: "sjc02-er1"},
	}}
	f1 := features.FlowFeatures{AS: 5, Prefix: 100, Loc: 1, Region: 1, Type: 1}
	f2 := features.FlowFeatures{AS: 6, Prefix: 200, Loc: 2, Region: 1, Type: 1}
	// Training: f1 arrives on links 1 and 2 (so the model knows link 2
	// is f1's alternate); f2 lives on link 3.
	train := []features.Record{
		{Hour: 0, Flow: f1, Link: 1, Bytes: gbph(0.5)},
		{Hour: 0, Flow: f1, Link: 2, Bytes: gbph(0.1)},
		{Hour: 0, Flow: f2, Link: 3, Bytes: gbph(0.2)},
	}
	model := core.TrainHistorical(features.SetAP, train, core.DefaultHistOpts())
	// Test window: link 1 carries 60% on f1, link 2 idles at 30%,
	// link 3 at 20%. If link 1 fails, its 60% lands on link 2
	// (30% + 60% = 90% >= 70%): link 2 is at risk from link 1.
	var test []features.Record
	for h := wan.Hour(0); h < 5; h++ {
		test = append(test,
			features.Record{Hour: h, Flow: f1, Link: 1, Bytes: gbph(0.6)},
			features.Record{Hour: h, Flow: f1, Link: 2, Bytes: gbph(0.3)},
			features.Record{Hour: h, Flow: f2, Link: 3, Bytes: gbph(0.2)},
		)
	}
	return dir, model, test
}

func TestAtRiskFindsInducedOverload(t *testing.T) {
	dir, model, test := testSetup()
	rows := AtRisk(dir, model, test, DefaultOptions())
	if len(rows) == 0 {
		t.Fatal("no at-risk links found")
	}
	found := false
	for _, r := range rows {
		if r.Link == 2 && r.Affecting == 1 {
			found = true
			if r.PredictedHours != 5 {
				t.Errorf("predicted hot hours = %d, want 5", r.PredictedHours)
			}
			if r.TypicalHours != 0 {
				t.Errorf("typical hot hours = %d, want 0 (operationally surprising case)", r.TypicalHours)
			}
		}
		if r.Link == 3 {
			t.Errorf("link 3 should not be at risk: %+v", r)
		}
	}
	if !found {
		t.Fatalf("expected (link 2 at risk from link 1), got %+v", rows)
	}
}

func TestAtRiskIgnoresAlreadyHotHours(t *testing.T) {
	dir, model, test := testSetup()
	// Make link 2 already hot in every hour: no NEW hot hours can be
	// induced, so no finding for it.
	for i := range test {
		if test[i].Link == 2 {
			test[i].Bytes = gbph(0.75)
		}
	}
	rows := AtRisk(dir, model, test, DefaultOptions())
	for _, r := range rows {
		if r.Link == 2 && r.Affecting == 1 && r.PredictedHours > 0 {
			t.Errorf("already-hot hours must not count as induced: %+v", r)
		}
	}
}

func TestAtRiskThresholdKnob(t *testing.T) {
	dir, model, test := testSetup()
	// At a 95% threshold the 90% projected load is no longer a risk.
	rows := AtRisk(dir, model, test, Options{UtilThreshold: 0.95})
	for _, r := range rows {
		if r.Link == 2 && r.Affecting == 1 {
			t.Errorf("no risk expected at 95%% threshold: %+v", r)
		}
	}
}

func TestAtRiskDeterministicOrder(t *testing.T) {
	dir, model, test := testSetup()
	a := AtRisk(dir, model, test, DefaultOptions())
	b := AtRisk(dir, model, test, DefaultOptions())
	if len(a) != len(b) {
		t.Fatal("row counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs across runs", i)
		}
	}
}

func TestFormat(t *testing.T) {
	dir, model, test := testSetup()
	rows := AtRisk(dir, model, test, DefaultOptions())
	out := Format(rows, dir, 5)
	if !strings.Contains(out, "sea01-er2") || !strings.Contains(out, "sea01-er1") {
		t.Errorf("formatted table missing routers:\n%s", out)
	}
	if empty := Format(nil, dir, 5); !strings.Contains(empty, "no links at risk") {
		t.Errorf("empty table: %s", empty)
	}
}

// atRiskReference is Algorithm 1 as AtRisk ran it before it walked
// the drain: records grouped per (flow, hour) in any order, the
// groups sorted by hour then flow, and per-hour, per-link maps of
// loads and of the groups on each link.
func atRiskReference(dir wan.Directory, model core.Predictor, recs []features.Record, opts Options) []Row {
	if opts.UtilThreshold <= 0 {
		opts.UtilThreshold = DefaultOptions().UtilThreshold
	}
	type group struct {
		flow  features.FlowFeatures
		hour  wan.Hour
		links map[wan.LinkID]float64
	}
	type key struct {
		flow features.FlowFeatures
		hour wan.Hour
	}
	byKey := make(map[key]*group)
	var groups []*group
	for _, r := range recs {
		k := key{r.Flow, r.Hour}
		g := byKey[k]
		if g == nil {
			g = &group{flow: r.Flow, hour: r.Hour, links: make(map[wan.LinkID]float64, 2)}
			byKey[k] = g
			groups = append(groups, g)
		}
		g.links[r.Link] += r.Bytes
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].hour != groups[j].hour {
			return groups[i].hour < groups[j].hour
		}
		return groups[i].flow.Compare(groups[j].flow) < 0
	})

	actual := make(map[wan.Hour]map[wan.LinkID]float64)
	byHourLink := make(map[wan.Hour]map[wan.LinkID][]*group)
	var hours []wan.Hour
	for _, g := range groups {
		if actual[g.hour] == nil {
			actual[g.hour] = make(map[wan.LinkID]float64)
			byHourLink[g.hour] = make(map[wan.LinkID][]*group)
			hours = append(hours, g.hour)
		}
		for l, b := range g.links {
			actual[g.hour][l] += b
			byHourLink[g.hour][l] = append(byHourLink[g.hour][l], g)
		}
	}
	util := func(l wan.LinkID, bytes float64) float64 {
		link, ok := dir.Link(l)
		if !ok {
			return 0
		}
		return link.Utilization(bytes, 3600)
	}
	typical := make(map[wan.LinkID]int)
	extra := make(map[[2]wan.LinkID]int)
	for _, h := range hours {
		for l, b := range actual[h] {
			if util(l, b) >= opts.UtilThreshold {
				typical[l]++
			}
		}
		var as []wan.LinkID
		for a := range byHourLink[h] {
			as = append(as, a)
		}
		sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
		for _, a := range as {
			shifted := make(map[wan.LinkID]float64)
			for _, g := range byHourLink[h][a] {
				moved := g.links[a]
				if moved <= 0 {
					continue
				}
				preds := model.Predict(core.Query{
					Flow: g.flow, K: 3,
					Exclude: func(l wan.LinkID) bool { return l == a },
				})
				for _, p := range preds {
					shifted[p.Link] += moved * p.Frac
				}
			}
			for b, add := range shifted {
				base := actual[h][b]
				if b != a && util(b, base) < opts.UtilThreshold && util(b, base+add) >= opts.UtilThreshold {
					extra[[2]wan.LinkID{b, a}]++
				}
			}
		}
	}
	rows := make([]Row, 0, len(extra))
	for k, n := range extra {
		rows = append(rows, Row{Link: k[0], Affecting: k[1], TypicalHours: typical[k[0]], PredictedHours: n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].PredictedHours != rows[j].PredictedHours {
			return rows[i].PredictedHours > rows[j].PredictedHours
		}
		if rows[i].TypicalHours != rows[j].TypicalHours {
			return rows[i].TypicalHours < rows[j].TypicalHours
		}
		if rows[i].Link != rows[j].Link {
			return rows[i].Link < rows[j].Link
		}
		return rows[i].Affecting < rows[j].Affecting
	})
	return rows
}

// TestAtRiskMatchesReference holds AtRisk's walk of the drain to the
// grouping reference on a small simulated test window, at thresholds
// low enough that both find many pairs.
func TestAtRiskMatchesReference(t *testing.T) {
	cfg := eval.SmallEnvConfig(1)
	cfg.TrainDays, cfg.TestDays = 3, 2
	cfg.SimCfg.HorizonHours = wan.Hour((cfg.TrainDays + cfg.TestDays) * 24)
	e := eval.Build(cfg)
	model := e.Hist(features.SetAL)
	for _, thr := range []float64{0.05, 0.1, 0.2, 0.3} {
		opts := Options{UtilThreshold: thr}
		got, want := AtRisk(e.Sim, model, e.Test, opts), atRiskReference(e.Sim, model, e.Test, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("threshold %.2f: AtRisk differs from the reference:\n got %v\nwant %v", thr, got, want)
		}
		t.Logf("threshold %.2f: %d at-risk pairs", thr, len(got))
	}
}
