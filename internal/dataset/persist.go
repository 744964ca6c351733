package dataset

import (
	"cmp"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"tipsy/internal/bgp"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/wan"
)

// File is a portable telemetry bundle: the aggregated flow records of
// a time range together with the WAN metadata needed to train, query,
// and evaluate models offline.
type File struct {
	Version int
	// Records are the hourly aggregates from the pipeline, in hour
	// order, each Bytes an integer in [0, 2^53) and all of them
	// summing below 2^64; Load refuses a bundle whose records are not.
	Records []features.Record
	// Links is the WAN's link directory at export time.
	Links []wan.Link
	// Anycast lists the announced prefixes.
	Anycast []bgp.Prefix
	// Geo is the Geo-IP view: /24 source prefixes and their metros.
	// Save sorts it by prefix.
	Geo []GeoEntry
}

// GeoEntry is one Geo-IP entry: the metro of a /24 source prefix.
type GeoEntry struct {
	Prefix uint32
	Metro  geo.MetroID
}

// fileVersion 2 stores the Geo-IP view as a slice sorted by prefix.
// Version 1 stored it as a map, which gob writes in iteration order,
// so two saves of the same bundle differed in bytes.
const fileVersion = 2

// Save writes the bundle gzip-compressed — the spirit of §4.2's
// aggregation-then-compression stage. It sorts f.Geo by prefix, so the
// bytes written are a function of the bundle's contents.
func Save(w io.Writer, f *File) error {
	f.Version = fileVersion
	slices.SortFunc(f.Geo, func(a, b GeoEntry) int { return cmp.Compare(a.Prefix, b.Prefix) })
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(f); err != nil {
		return fmt.Errorf("dataset: save: %w", err)
	}
	return zw.Close()
}

// Load reads a bundle written by Save. It refuses records out of hour
// order, a Bytes that is not an integer in [0, 2^53), and Bytes that
// sum to 2^64 or more, so a sum of a bundle's bytes in uint64 is exact.
func Load(r io.Reader) (*File, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: load: %w", err)
	}
	defer zr.Close()
	var f File
	if err := gob.NewDecoder(zr).Decode(&f); err != nil {
		return nil, fmt.Errorf("dataset: load: %w", err)
	}
	if f.Version != fileVersion {
		return nil, fmt.Errorf("dataset: unsupported file version %d", f.Version)
	}
	var sum, carry uint64
	for i, r := range f.Records {
		if i > 0 && r.Hour < f.Records[i-1].Hour {
			return nil, fmt.Errorf("dataset: load: record %d (hour %d) follows hour %d; records must be in hour order", i, r.Hour, f.Records[i-1].Hour)
		}
		if !(r.Bytes >= 0 && r.Bytes < 1<<53 && r.Bytes == math.Trunc(r.Bytes)) {
			return nil, fmt.Errorf("dataset: load: record %d carries %v bytes; bytes must be an integer in [0, 2^53)", i, r.Bytes)
		}
		if sum, carry = bits.Add64(sum, uint64(r.Bytes), 0); carry != 0 {
			return nil, fmt.Errorf("dataset: load: the bytes of records 0 to %d sum to 2^64 or more", i)
		}
	}
	return &f, nil
}
