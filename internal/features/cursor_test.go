package features_test

import (
	"cmp"
	"testing"
	"testing/quick"

	"tipsy/internal/bgp"
	"tipsy/internal/features"
	"tipsy/internal/features/recordtest"
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
		return a.Compare(b) == compareFields(a, b) && a.Flow.Compare(b.Flow) == flows &&
			features.Tuple(a.Flow).Compare(features.Tuple(b.Flow)) == flows
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// TestRunCursorAgainstSearch holds RunCursor.Match to a linear search
// of the preceding run: on drain-ordered records it must find every
// match, on any other input it may miss but never name a wrong record.
func TestRunCursorAgainstSearch(t *testing.T) {
	for _, c := range recordtest.Cases(1) {
		cur := features.NewRunCursor(c.Recs)
		prev, start, hits := 0, 0, 0
		for i, r := range c.Recs {
			if i == 0 || r.Hour != c.Recs[i-1].Hour {
				prev, start = start, i
			}
			want := -1
			for j := prev; j < start; j++ {
				if c.Recs[j].Flow == r.Flow && c.Recs[j].Link == r.Link {
					want = j
					break
				}
			}
			got := cur.Match(i)
			if cur.Prev != prev || cur.Start != start {
				t.Fatalf("%s: record %d: runs [%d:%d), want [%d:%d)", c.Name, i, cur.Prev, cur.Start, prev, start)
			}
			if got >= 0 {
				hits++
				if got < prev || got >= start || c.Recs[got].Flow != r.Flow || c.Recs[got].Link != r.Link {
					t.Fatalf("%s: record %d matched %d, which is not its flow and link in the preceding run", c.Name, i, got)
				}
			}
			if c.Drained && got != want {
				t.Fatalf("%s: record %d matched %d, want %d", c.Name, i, got, want)
			}
		}
		t.Logf("%s: %d records, %d matched", c.Name, len(c.Recs), hits)
	}
}
