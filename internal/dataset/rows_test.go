package dataset

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"tipsy/internal/bgp"
	"tipsy/internal/core"
	"tipsy/internal/features"
	"tipsy/internal/features/recordtest"
	"tipsy/internal/geo"
	"tipsy/internal/wan"
)

// dailyRowsReference is DailyRows' oracle: one Go map keyed by day,
// flow and link, bytes summed in input order, the earliest hour kept,
// the rows sorted at the end.
func dailyRowsReference(recs []features.Record, start wan.Hour) []features.Record {
	type key struct {
		day  float64
		flow features.FlowFeatures
		link wan.LinkID
	}
	at := make(map[key]int)
	var rows []features.Record
	for _, r := range recs {
		if !(r.Bytes > 0) {
			continue
		}
		k := key{math.Floor(float64(int64(r.Hour)-int64(start)) / 24), r.Flow, r.Link}
		i, ok := at[k]
		if !ok {
			at[k] = len(rows)
			rows = append(rows, r)
			continue
		}
		rows[i].Bytes += r.Bytes
		if r.Hour < rows[i].Hour {
			rows[i].Hour = r.Hour
		}
	}
	slices.SortFunc(rows, features.Record.Compare)
	return rows
}

// checkDailyRows holds DailyRows to its oracle and to strict order.
func checkDailyRows(t *testing.T, name string, recs []features.Record, start wan.Hour) []features.Record {
	t.Helper()
	got := DailyRows(recs, start)
	if want := dailyRowsReference(recs, start); !slices.Equal(got, want) {
		t.Fatalf("%s, start %d: DailyRows made %d rows, the map oracle %d, or their hours or bytes differ:\n got %+v\nwant %+v",
			name, start, len(got), len(want), got[:min(len(got), 4)], want[:min(len(want), 4)])
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Compare(got[i]) >= 0 {
			t.Fatalf("%s, start %d: row %d %+v does not follow row %d %+v", name, start, i, got[i], i-1, got[i-1])
		}
	}
	return got
}

// savedModel is the bytes of the one-model checkpoint a Historical
// fit over recs saves to.
func savedModel(t *testing.T, set features.Set, recs []features.Record) []byte {
	t.Helper()
	ck := &core.Checkpoint{Models: []*core.Historical{core.TrainHistorical(set, recs, core.DefaultHistOpts())}}
	var buf bytes.Buffer
	if err := ck.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDailyRowsTrainTheRecordsModel fits every feature set over the
// daily rows of recordtest's drain-ordered cases, byte counts rounded
// to integers as IPFIX octet sums are, and requires the saved model to
// equal the fit over the hourly records. A window cut a whole number
// of days after the rows' start keeps the rows of the cut records.
func TestDailyRowsTrainTheRecordsModel(t *testing.T) {
	for _, c := range recordtest.Cases(6) {
		if !c.Drained {
			continue
		}
		recs := slices.Clone(c.Recs)
		for i := range recs {
			recs[i].Bytes = math.Round(recs[i].Bytes)
		}
		for _, start := range []wan.Hour{0, 5, -3, 40} {
			rows := checkDailyRows(t, c.Name, recs, start)
			for _, set := range []features.Set{features.SetA, features.SetAP, features.SetAL} {
				if !bytes.Equal(savedModel(t, set, rows), savedModel(t, set, recs)) {
					t.Fatalf("%s, start %d: Hist_%v over %d rows differs from the fit over %d records", c.Name, start, set, len(rows), len(recs))
				}
			}
			for _, cut := range []wan.Hour{start - 24, start, start + 24} {
				got := Window(rows, cut, 1000)
				if want := DailyRows(Window(recs, cut, 1000), start); !slices.Equal(got, want) {
					t.Fatalf("%s, start %d: cutting the rows at hour %d keeps %d, the rows of the cut records are %d", c.Name, start, cut, len(got), len(want))
				}
			}
		}
	}
}

// fuzzBytes are the byte counts a fuzz record draws from beside
// quarters: zero, NaN, a count two of which add to +Inf, and the
// smallest subnormal.
var fuzzBytes = [...]float64{0, math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64}

// fuzzRecord decodes five bytes into a record from small alphabets,
// so days, flows and pairs recur: hours −64 to 191 (about eleven
// days), 4 ASes, 4 /24s, 2 locations, 2 regions, 2 types, 8 links,
// and bytes in quarters from −8192 to 8191.75 or, for the four codes
// at the top, zero, NaN, the largest float and the smallest.
func fuzzRecord(b []byte) features.Record {
	v := int16(binary.LittleEndian.Uint16(b[3:]))
	bytes := float64(v) / 4
	if v > math.MaxInt16-4 {
		bytes = fuzzBytes[math.MaxInt16-v]
	}
	return features.Record{
		Hour: wan.Hour(b[0]) - 64,
		Flow: features.FlowFeatures{
			AS:     64500 + bgp.ASN(b[1]&3),
			Prefix: 0x0b000000 | uint32(b[1]>>2&3)<<8,
			Loc:    geo.MetroID(1 + b[1]>>4&1),
			Region: wan.Region(1 + b[1]>>5&1),
			Type:   wan.ServiceType(b[1] >> 6 & 1),
		},
		Link:  wan.LinkID(b[2] & 7),
		Bytes: bytes,
	}
}

// FuzzDailyRows is DailyRows' differential fuzz target. The input is a
// start-hour byte, then up to 1,024 five-byte records in any order,
// with duplicate keys and zero, negative, NaN and fractional bytes.
// The rows must equal the map oracle's and increase strictly under
// features.Record.Compare.
func FuzzDailyRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{64, 64, 1, 2, 4, 0, 65, 1, 2, 8, 0, 88, 1, 2, 1, 0, 40, 1, 2, 4, 0})
	f.Add([]byte{60, 100, 0x3f, 7, 0xff, 0x7f, 100, 0x3f, 7, 0xfe, 0x7f, 99, 0x3f, 7, 0, 0x80, 99, 0x3f, 7, 3, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 255, 0x7f, 3, 1, 0, 0, 0, 0, 0xfc, 0x7f, 24, 0, 0, 0xfb, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var recs []features.Record
		for b := data[1:min(len(data), 1+5*1024)]; len(b) >= 5; b = b[5:] {
			recs = append(recs, fuzzRecord(b))
		}
		checkDailyRows(t, "fuzz", recs, wan.Hour(data[0])-64)
	})
}
