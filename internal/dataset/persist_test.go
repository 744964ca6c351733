package dataset

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"reflect"
	"slices"
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

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("garbage should not load")
	}
}
