package pipeline

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"tipsy/internal/features"
	"tipsy/internal/features/recordtest"
	"tipsy/internal/geo"
	"tipsy/internal/ipfix"
	"tipsy/internal/wan"
)

// encodeReference is Encode the slow way, kept as its oracle: no
// features.Index, every record goes through all five dictionaries, and
// its codes and link find the pair in one map.
func encodeReference(recs []features.Record) *Encoded {
	e := &Encoded{Rows: make([]EncodedRow, len(recs))}
	index := make(map[EncodedPair]uint32)
	for i, r := range recs {
		k := EncodedPair{
			AS:     e.AS.Code(uint64(r.Flow.AS)),
			Prefix: e.Prefix.Code(uint64(r.Flow.Prefix)),
			Loc:    e.Loc.Code(uint64(r.Flow.Loc)),
			Region: e.Region.Code(uint64(r.Flow.Region)),
			Type:   e.Type.Code(uint64(r.Flow.Type)),
			Link:   r.Link,
		}
		p, ok := index[k]
		if !ok {
			p = uint32(len(e.Pairs))
			index[k] = p
			e.Pairs = append(e.Pairs, k)
		}
		e.Rows[i] = EncodedRow{Hour: r.Hour, Pair: p, Bytes: r.Bytes}
	}
	return e
}

func TestDifferentialEncode(t *testing.T) {
	for _, c := range recordtest.Cases(4) {
		enc := Encode(c.Recs)
		if !reflect.DeepEqual(enc, encodeReference(c.Recs)) {
			t.Errorf("%s: Encode differs from the reference encoder", c.Name)
		}
		if back := enc.Decode(); !slices.Equal(back, c.Recs) {
			t.Errorf("%s: Decode returned %d records, want the %d encoded", c.Name, len(back), len(c.Recs))
		}
	}
}

// TestEncodedRowSize pins the encoding's layout: a row is the hour and
// the pair index in one 8-byte word plus the bytes, half a
// features.Record, and a pair is six 4-byte words.
func TestEncodedRowSize(t *testing.T) {
	if n := unsafe.Sizeof(EncodedRow{}); n != 16 {
		t.Errorf("EncodedRow is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(EncodedPair{}); n != 24 {
		t.Errorf("EncodedPair is %d bytes, want 24", n)
	}
}

// TestRecordsStrictlyIncreasing pins the invariant the record scans
// lean on for speed: a drain is strictly increasing under
// features.Record.Compare, so every hour is one sorted run without
// duplicate (flow, link) keys. Region 300 needs more than eight bits;
// the drain ranks pairs with FlowFeatures.Compare, which has room.
func TestRecordsStrictlyIncreasing(t *testing.T) {
	for _, region := range []wan.Region{1, 300} {
		a := NewAggregator(geo.NewGeoIP(geo.World(), 0, 1), staticMeta(region, 1))
		for i := 0; i < 5000; i++ {
			rec := ipfix.FlowRecord{
				SrcAddr: 0x0b000000 + uint32(i*7919%97)*256,
				DstAddr: 40<<24 + uint32(i%3),
				Octets:  uint64(i + 1),
				SrcAS:   uint32(100 + i%5),
			}
			a.Record(wan.Hour(i*31%9), wan.LinkID(1+i%6), &rec)
		}
		recs := a.Records()
		if len(recs) < 1000 {
			t.Fatalf("region %d: only %d records drained", region, len(recs))
		}
		for i := 1; i < len(recs); i++ {
			if recs[i-1].Compare(recs[i]) >= 0 {
				t.Fatalf("region %d: records %d and %d are not strictly increasing: %+v, %+v", region, i-1, i, recs[i-1], recs[i])
			}
		}
	}
}
