package eval

import (
	"reflect"
	"sort"
	"testing"

	"tipsy/internal/features"
	"tipsy/internal/features/recordtest"
	"tipsy/internal/wan"
)

// buildGroupsReference is the BuildGroups that kept a map of pointers,
// a map of links and a map of hour sets per group, with its own copy
// of the flow order, kept as the oracle of the one that follows the
// drain order. Like BuildGroups it lists a group's hours only under an
// exclusion prior, the one reader of them.
func buildGroupsReference(recs []features.Record, opts Options) []Group {
	byFlow := make(map[features.FlowFeatures]*Group)
	var order []features.FlowFeatures
	linkBytes := make(map[features.FlowFeatures]map[wan.LinkID]uint64)
	hourSeen := make(map[features.FlowFeatures]map[wan.Hour]bool)
	for _, r := range recs {
		if opts.Select != nil && !opts.Select(r.Flow, r.Hour) {
			continue
		}
		key := r.Flow
		if opts.GroupBy != nil {
			key = opts.GroupBy(r.Flow)
		}
		g := byFlow[key]
		if g == nil {
			g = &Group{Flow: key}
			byFlow[key] = g
			linkBytes[key] = make(map[wan.LinkID]uint64, 2)
			hourSeen[key] = make(map[wan.Hour]bool, 8)
			order = append(order, key)
		}
		linkBytes[key][r.Link] += uint64(r.Bytes)
		g.Total += uint64(r.Bytes)
		hourSeen[key][r.Hour] = true
	}
	sort.Slice(order, func(i, j int) bool { return lessFlowReference(order[i], order[j]) })
	out := make([]Group, len(order))
	for i, key := range order {
		g := byFlow[key]
		for l, b := range linkBytes[key] {
			g.Links = append(g.Links, LinkBytes{l, b})
		}
		sort.Slice(g.Links, func(a, b int) bool { return g.Links[a].Link < g.Links[b].Link })
		if opts.Exclude != nil {
			for h := range hourSeen[key] {
				g.hours = append(g.hours, h)
			}
			sort.Slice(g.hours, func(a, b int) bool { return g.hours[a] < g.hours[b] })
		}
		out[i] = *g
	}
	return out
}

// topLinksReference is the map-of-maps oracle for the top training
// link the §5.3 outage experiments condition on: for every flow, the
// link that received the most of its bytes, ties to the lowest link
// ID.
func topLinksReference(recs []features.Record) map[features.FlowFeatures]wan.LinkID {
	bytes := make(map[features.FlowFeatures]map[wan.LinkID]float64)
	for _, r := range recs {
		m := bytes[r.Flow]
		if m == nil {
			m = make(map[wan.LinkID]float64, 2)
			bytes[r.Flow] = m
		}
		m[r.Link] += r.Bytes
	}
	out := make(map[features.FlowFeatures]wan.LinkID, len(bytes))
	for f, m := range bytes {
		var best wan.LinkID
		bestB := -1.0
		for l, b := range m {
			if b > bestB || (b == bestB && l < best) {
				best, bestB = l, b
			}
		}
		out[f] = best
	}
	return out
}

// TestTopLinkIsTopLinksReference holds the served Hist_AP fit's top
// link equal to the reference scan on every training flow of small
// seeds 1–3: the AP tuple fixes the flow, because the location is the
// prefix's Geo-IP metro.
func TestTopLinkIsTopLinksReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		e := sharedEnv(t)
		if seed > 1 {
			e = Build(SmallEnvConfig(seed))
		}
		want := topLinksReference(e.Train)
		hAP := e.Hist(features.SetAP)
		if len(want) == 0 || hAP.NumTuples() != len(want) {
			t.Fatalf("seed %d: %d flows, Hist_AP holds %d tuples", seed, len(want), hAP.NumTuples())
		}
		for f, link := range want {
			if got, ok := hAP.TopLink(f); !ok || got != link {
				t.Errorf("seed %d: TopLink(%v) = %d, %v; reference %d", seed, f, got, ok, link)
			}
		}
	}
}

func lessFlowReference(a, b features.FlowFeatures) bool {
	if a.AS != b.AS {
		return a.AS < b.AS
	}
	if a.Prefix != b.Prefix {
		return a.Prefix < b.Prefix
	}
	if a.Loc != b.Loc {
		return a.Loc < b.Loc
	}
	if a.Region != b.Region {
		return a.Region < b.Region
	}
	return a.Type < b.Type
}

func TestDifferentialBuildGroups(t *testing.T) {
	byAL := func(f features.FlowFeatures) features.FlowFeatures {
		return features.FlowFeatures(features.SetAL.Project(f))
	}
	byA := func(f features.FlowFeatures) features.FlowFeatures {
		return features.FlowFeatures(features.SetA.Project(f))
	}
	// Only the hours are compared here: grouping never calls the prior.
	exclude := func(l wan.LinkID, h wan.Hour) bool { return (int(l)+int(h))%4 == 0 }
	options := []struct {
		name string
		opts Options
	}{
		{"plain", Options{}},
		{"select", Options{Select: func(f features.FlowFeatures, h wan.Hour) bool { return (int(f.Prefix>>8)+int(h))%3 != 0 }}},
		{"group-by", Options{GroupBy: byAL}},
		{"select+group-by", Options{Select: func(f features.FlowFeatures, h wan.Hour) bool { return h%2 == 0 || f.Type == 0 }, GroupBy: byA}},
		{"exclude", Options{Exclude: exclude}},
		{"exclude+select+group-by", Options{Exclude: exclude, Select: func(f features.FlowFeatures, h wan.Hour) bool { return h%3 != 1 || f.Type == 0 }, GroupBy: byA}},
	}
	for _, c := range recordtest.Cases(5) {
		for _, o := range options {
			got, want := BuildGroups(c.Recs, o.opts), buildGroupsReference(c.Recs, o.opts)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: BuildGroups differs from the reference (%d groups, want %d)", c.Name, o.name, len(got), len(want))
			}
		}
	}
}
