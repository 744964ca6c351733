package eval

import (
	"reflect"
	"sort"
	"testing"

	"tipsy/internal/features"
	"tipsy/internal/features/recordtest"
	"tipsy/internal/wan"
)

// buildGroupsReference is the BuildGroups that kept a map of pointers
// and a map of hour sets, with its own copy of the flow order, kept as
// the oracle of the one that follows the drain order.
func buildGroupsReference(recs []features.Record, opts Options) []Group {
	byFlow := make(map[features.FlowFeatures]*Group)
	var order []features.FlowFeatures
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
			g = &Group{Flow: key, Hour: r.Hour, Links: make(map[wan.LinkID]float64, 2)}
			byFlow[key] = g
			hourSeen[key] = make(map[wan.Hour]bool, 8)
			order = append(order, key)
		}
		g.Links[r.Link] += r.Bytes
		g.Total += r.Bytes
		if r.Hour < g.Hour {
			g.Hour = r.Hour
		}
		hourSeen[key][r.Hour] = true
	}
	sort.Slice(order, func(i, j int) bool { return lessFlowReference(order[i], order[j]) })
	out := make([]Group, len(order))
	for i, key := range order {
		g := byFlow[key]
		for h := range hourSeen[key] {
			g.hours = append(g.hours, h)
		}
		sort.Slice(g.hours, func(a, b int) bool { return g.hours[a] < g.hours[b] })
		out[i] = *g
	}
	return out
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
	options := []struct {
		name string
		opts Options
	}{
		{"plain", Options{}},
		{"select", Options{Select: func(f features.FlowFeatures, h wan.Hour) bool { return (int(f.Prefix>>8)+int(h))%3 != 0 }}},
		{"group-by", Options{GroupBy: byAL}},
		{"select+group-by", Options{Select: func(f features.FlowFeatures, h wan.Hour) bool { return h%2 == 0 || f.Type == 0 }, GroupBy: byA}},
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
