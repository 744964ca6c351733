package features_test

import (
	"cmp"
	"testing"
	"testing/quick"

	"tipsy/internal/bgp"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/wan"
)

// compareFields is the drain order spelled out field by field.
func compareFields(a, b features.Record) int {
	return cmp.Or(
		cmp.Compare(a.Hour, b.Hour),
		cmp.Compare(a.Flow.AS, b.Flow.AS),
		cmp.Compare(a.Flow.Prefix, b.Flow.Prefix),
		cmp.Compare(a.Flow.Loc, b.Flow.Loc),
		cmp.Compare(a.Flow.Region, b.Flow.Region),
		cmp.Compare(a.Flow.Type, b.Flow.Type),
		cmp.Compare(a.Link, b.Link),
	)
}

// TestCompareIsFieldByField also holds the index key to the order: a
// flow's packed words compare like the flow, and KeyFlow unpacks them.
func TestCompareIsFieldByField(t *testing.T) {
	// Values are drawn from {0, 1, max} per field so that equal
	// prefixes — the interesting case — come up constantly.
	pick := func(sel uint8, max uint64) uint64 { return [...]uint64{0, 1, max, max - 1}[sel%4] }
	rec := func(s [7]uint8) features.Record {
		return features.Record{
			Hour: wan.Hour(int32(pick(s[0], 1<<32-1))),
			Flow: features.FlowFeatures{
				AS: bgp.ASN(pick(s[1], 1<<32-1)), Prefix: uint32(pick(s[2], 1<<32-1)),
				Loc: geo.MetroID(pick(s[3], 1<<16-1)), Region: wan.Region(pick(s[4], 1<<16-1)),
				Type: wan.ServiceType(pick(s[5], 1<<8-1)),
			},
			Link: wan.LinkID(pick(s[6], 1<<32-1)),
		}
	}
	fn := func(x, y [7]uint8) bool {
		a, b := rec(x), rec(y)
		flows := compareFields(features.Record{Flow: a.Flow}, features.Record{Flow: b.Flow})
		ka, kb := a.Flow.Key(a.Link), b.Flow.Key(b.Link)
		return a.Compare(b) == compareFields(a, b) && a.Flow.Compare(b.Flow) == flows &&
			features.Tuple(a.Flow).Compare(features.Tuple(b.Flow)) == flows &&
			cmp.Or(cmp.Compare(ka.A, kb.A), cmp.Compare(ka.B, kb.B)) == flows &&
			features.KeyFlow(ka) == a.Flow && ka.C == uint32(a.Link)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}
