package dataset

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tipsy/internal/bgp"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/wan"
)

func TestFileSaveLoad(t *testing.T) {
	orig := &File{
		Records: []features.Record{
			mkrec(0, 1, 1, 100),
			mkrec(5, 2, 3, 200),
		},
		Links: []wan.Link{
			{ID: 1, Router: "sea47-er1", Metro: 1, PeerAS: 174, Capacity: 100e9},
			{ID: 3, Router: "fra30-er2", Metro: 30, PeerAS: 3356, Capacity: 400e9, Exchange: true},
		},
		Anycast: []bgp.Prefix{bgp.MakePrefix(bgp.V4(40, 0, 0, 0), 16)},
		Geo:     []GeoEntry{{Prefix: 0x0b000100, Metro: 7}},
	}
	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, orig)
	}
}

// TestSaveIsAFunctionOfTheBundle saves one bundle twice, and a copy
// whose Geo-IP entries come in another order once, and requires the
// same bytes from all three.
func TestSaveIsAFunctionOfTheBundle(t *testing.T) {
	f := &File{Records: []features.Record{mkrec(0, 1, 1, 100)}}
	for i := uint32(0); i < 500; i++ {
		f.Geo = append(f.Geo, GeoEntry{Prefix: 0x0b000000 + (i*7919%500)<<8, Metro: geo.MetroID(1 + i%64)})
	}
	shuffled := *f
	shuffled.Geo = slices.Clone(f.Geo)
	slices.Reverse(shuffled.Geo)
	var saves [3]bytes.Buffer
	for i, file := range []*File{f, f, &shuffled} {
		if err := Save(&saves[i], file); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(saves); i++ {
		if !bytes.Equal(saves[0].Bytes(), saves[i].Bytes()) {
			t.Errorf("save %d differs from save 0 (%d vs %d bytes)", i, saves[i].Len(), saves[0].Len())
		}
	}
}

// TestLoadRejectsVersion1 writes a bundle in version 1's layout, whose
// Geo-IP view was a map, and requires Load to refuse it by version.
func TestLoadRejectsVersion1(t *testing.T) {
	type fileV1 struct {
		Version    int
		Records    []features.Record
		GeoEntries map[uint32]geo.MetroID
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	v1 := fileV1{Version: 1, Records: []features.Record{mkrec(0, 1, 1, 100)}, GeoEntries: map[uint32]geo.MetroID{0x0b000100: 7}}
	if err := gob.NewEncoder(zw).Encode(&v1); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf)
	if err == nil || err.Error() != "dataset: unsupported file version 1" {
		t.Errorf("Load of a version 1 bundle: %v, want dataset: unsupported file version 1", err)
	}
}

// TestLoadRejectsRecordsOutOfHourOrder: Window finds a window by
// binary search, so a bundle must hold its records in hour order;
// records repeating an hour are in order.
func TestLoadRejectsRecordsOutOfHourOrder(t *testing.T) {
	for _, c := range []struct {
		hours []wan.Hour
		ok    bool
	}{{[]wan.Hour{0, 0, 5, 5, 9}, true}, {[]wan.Hour{0, 5, 4, 9}, false}} {
		f := &File{}
		for _, h := range c.hours {
			f.Records = append(f.Records, mkrec(h, 1, 1, 100))
		}
		var buf bytes.Buffer
		if err := Save(&buf, f); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		if want := "dataset: load: record 2 (hour 4) follows hour 5; records must be in hour order"; c.ok && err != nil || !c.ok && (err == nil || err.Error() != want) {
			t.Errorf("hours %v: Load says %v", c.hours, err)
		}
	}
}

// TestLoadRejectsImpossibleBytes: a record's Bytes is an integer in
// [0, 2⁵³) and a bundle's Bytes sum below 2⁶⁴, so the uint64 sums
// over it are exact; Load names the first record that breaks either.
func TestLoadRejectsImpossibleBytes(t *testing.T) {
	many := make([]float64, 2049) // 2,049 × (2⁵³−1) ≥ 2⁶⁴
	for i := range many {
		many[i] = 1<<53 - 1
	}
	for _, c := range []struct {
		name  string
		bytes []float64
		want  string // "" when Load accepts
	}{
		{"integers", []float64{0, 7, 1<<53 - 1}, ""},
		{"NaN", []float64{7, math.NaN()}, "record 1 carries NaN bytes"},
		{"+Inf", []float64{math.Inf(1)}, "record 0 carries +Inf bytes"},
		{"-Inf", []float64{7, 7, math.Inf(-1)}, "record 2 carries -Inf bytes"},
		{"negative", []float64{7, -1}, "record 1 carries -1 bytes"},
		{"fractional", []float64{0.5}, "record 0 carries 0.5 bytes"},
		{"2⁵³", []float64{7, 1 << 53}, "record 1 carries 9.007199254740992e+15 bytes"},
		{"sum past 2⁶⁴", many, "records 0 to 2048 sum to 2^64 or more"},
	} {
		f := &File{}
		for _, b := range c.bytes {
			f.Records = append(f.Records, mkrec(0, 1, 1, b))
		}
		var buf bytes.Buffer
		if err := Save(&buf, f); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: Load says %v, want %q", c.name, err, c.want)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("garbage should not load")
	}
}
