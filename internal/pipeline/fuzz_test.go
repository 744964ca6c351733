package pipeline

import (
	"reflect"
	"slices"
	"testing"

	"tipsy/internal/bgp"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/ipfix"
	"tipsy/internal/wan"
)

// fuzzMeta knows destinations 40.0.0.0/8; even and odd addresses join
// to different regions, so two of the fuzzer's three known
// destinations share every pair they make.
func fuzzMeta(dst uint32) (wan.Region, wan.ServiceType, bool) {
	if dst>>24 != 40 {
		return 0, 0, false
	}
	return wan.Region(1 + dst&1), 1, true
}

// fuzzRecord decodes four bytes into a flow record drawn from small
// alphabets, so keys recur and some destinations have no metadata:
// 8 source /24s (any host byte), 4 destinations (one unknown), 4 ASes,
// 8 links, 8 hours (anywhere in the hour), and octets anywhere in
// uint64's range, so sums reach the aggregator's 2⁵³ cap.
func fuzzRecord(b []byte) ipfix.FlowRecord {
	return ipfix.FlowRecord{
		SrcAddr:   0x0b000000 | uint32(b[0]&7)<<8 | uint32(b[3]),
		DstAddr:   [4]uint32{40 << 24, 40<<24 + 1, 40<<24 + 2, 10 << 24}[b[0]>>3&3],
		SrcAS:     64500 + uint32(b[1]&3),
		Ingress:   uint32(b[1] >> 2 & 7),
		StartSecs: uint32(b[0]>>5)*3600 + uint32(b[1]>>5)*511,
		Octets:    uint64(b[2]) << (b[3] & 63),
	}
}

// FuzzAggregator is the aggregator's differential fuzz target. The
// input is a run of chunks: a header byte, then 1–16 four-byte records
// that go in through one RecordBatch call or, when the header says so,
// one Record call each. The aggregator drains halfway through the
// chunks and at the end; each drain must equal singleMap's records,
// Stats must count raw, dropped and pending exactly, and bytes must be
// conserved: every raw record is dropped (no metadata, or capped) or
// reaches a slot, and the kept octets are the drained bytes.
func FuzzAggregator(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x03, 0, 0, 10, 0, 0x20, 4, 200, 1, 0xe7, 0xff, 0, 0, 0x10, 0x18, 0x09, 7, 3})
	f.Add([]byte{0x11, 0x41, 0x22, 0, 0, 0x41, 0x22, 0, 0, 0x02, 0x18, 1, 1, 1, 0xe0, 0xe0, 255, 31, 0x41, 0x22, 5, 5})
	f.Add([]byte{0x01, 0, 4, 1, 53, 0, 4, 1, 0}) // 2⁵³ octets, capped, then 1 octet on the same slot
	g := geo.NewGeoIP(geo.World(), 0, 1)
	for p := uint32(0); p < 4; p++ { // half the /24s have a location
		g.Register(0x0b000000|p<<8, geo.MetroID(1+p))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		agg, ref := NewAggregator(g, fuzzMeta), newSingleMap(g, fuzzMeta)

		data = data[:min(len(data), 4096)] // ≤ 1,024 records, each kept one < 2⁵³ octets: keptOctets cannot wrap
		var chunks [][]byte
		for len(data) > 0 {
			n := 1 + 4*(1+int(data[0]&15))
			chunks = append(chunks, data[:min(n, len(data))])
			data = data[min(n, len(data)):]
		}
		var raw, dropped int
		var keptOctets uint64
		for drain, part := range [][][]byte{chunks[:len(chunks)/2], chunks[len(chunks)/2:]} {
			keptOctets = 0
			for _, chunk := range part {
				recs := make([]ipfix.FlowRecord, 0, 16)
				for b := chunk[1:]; len(b) >= 4; b = b[4:] {
					rec := fuzzRecord(b)
					recs = append(recs, rec)
					if ref.Record(wan.Hour(rec.StartSecs/3600), wan.LinkID(rec.Ingress), &rec) {
						keptOctets += rec.Octets
					} else {
						dropped++
					}
				}
				raw += len(recs)
				if chunk[0]&16 == 0 {
					agg.RecordBatch(recs)
					continue
				}
				for i := range recs {
					agg.Record(wan.Hour(recs[i].StartSecs/3600), wan.LinkID(recs[i].Ingress), &recs[i])
				}
			}
			want := ref.Records()
			if gotRaw, gotDropped, pending := agg.Stats(); gotRaw != raw || gotDropped != dropped || pending != len(want) {
				t.Fatalf("drain %d: Stats (%d, %d, %d), want (%d, %d, %d)", drain, gotRaw, gotDropped, pending, raw, dropped, len(want))
			}
			got := agg.Records()
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("drain %d: %d aggregates, reference has %d:\n got %+v\nwant %+v", drain, len(got), len(want), head(got), head(want))
			}
			var drained uint64
			for _, r := range got {
				drained += uint64(r.Bytes)
			}
			if drained != keptOctets {
				t.Fatalf("drain %d: drained %d bytes, the records that reached a slot carried %d", drain, drained, keptOctets)
			}
		}
	})
}

// fuzzFeatureRecord decodes four bytes into a feature record drawn from
// small alphabets, so flows, pairs and dictionary values recur: 8
// hours (two of them negative), 4 ASes, 8 /24s, 4 locations, 2
// regions, 2 types, 16 links, and bytes in quarters from −8192 to
// 8191.75, zero included.
func fuzzFeatureRecord(b []byte) features.Record {
	return features.Record{
		Hour: wan.Hour(b[0]&7) - 2,
		Flow: features.FlowFeatures{
			AS:     64500 + bgp.ASN(b[0]>>3&3),
			Prefix: 0x0b000000 | uint32(b[0]>>5)<<8,
			Loc:    geo.MetroID(1 + b[1]&3),
			Region: wan.Region(1 + b[1]>>2&1),
			Type:   wan.ServiceType(b[1] >> 3 & 1),
		},
		Link:  wan.LinkID(b[1] >> 4),
		Bytes: float64(int16(uint16(b[2])|uint16(b[3])<<8)) / 4,
	}
}

// FuzzEncode is the encoder's differential fuzz target. The input is a
// header byte, then up to 1,024 four-byte records in any order, with
// duplicate keys and zero or negative bytes; an odd header sorts them
// stably into drain order first (duplicates kept), the order a drain
// feeds the index. Encode must equal encodeReference, dictionaries and
// pair table included, and Decode must give the records back.
func FuzzEncode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0x03, 0x21, 0, 4, 0x04, 0x21, 0, 4, 0x03, 0x21, 0, 0, 0x0b, 0x31, 0xff, 0xff})
	f.Add([]byte{0, 0xe7, 0xff, 1, 0x80, 0x00, 0x00, 0, 0, 0xe7, 0xff, 2, 0x80, 0x01, 0x10, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var recs []features.Record
		for b := data[1:min(len(data), 1+4*1024)]; len(b) >= 4; b = b[4:] {
			recs = append(recs, fuzzFeatureRecord(b))
		}
		if data[0]&1 == 1 {
			slices.SortStableFunc(recs, features.Record.Compare)
		}
		enc := Encode(recs)
		if want := encodeReference(recs); !reflect.DeepEqual(enc, want) {
			t.Fatalf("%d records: Encode made %d pairs, the reference %d, or their rows or dictionaries differ",
				len(recs), len(enc.Pairs), len(want.Pairs))
		}
		if back := enc.Decode(); !slices.Equal(back, recs) {
			t.Fatalf("Decode returned %d records, want the %d encoded:\n got %+v\nwant %+v", len(back), len(recs), head(back), head(recs))
		}
	})
}
