// Package features implements TIPSY's feature engineering (§3.2 of
// the paper): flow aggregates described by source AS, source /24
// prefix, source location, destination region, and destination type;
// the three feature-set projections A, AP, and AL the models train
// over; ordinal (dictionary) encoding used to compress aggregated
// data; and the cardinality accounting behind Table 1.
package features

import (
	"cmp"
	"fmt"

	"tipsy/internal/bgp"
	"tipsy/internal/geo"
	"tipsy/internal/wan"
)

// FlowFeatures is the full feature vector of one flow aggregate.
type FlowFeatures struct {
	AS     bgp.ASN
	Prefix uint32 // /24 base of the source address
	Loc    geo.MetroID
	Region wan.Region
	Type   wan.ServiceType
}

// Record is one aggregated observation: during Hour, Bytes of the
// flow aggregate Flow ingressed on Link. Records are what the
// aggregation pipeline produces and what models train on. Bytes is an
// integer in [0, 2^53), so uint64(Bytes) is exact: the aggregator caps
// each hourly sum below 2^53 and dataset.Load refuses anything else.
// Sums of Bytes are taken in uint64, dataset.DailyRows' rows aside.
type Record struct {
	Hour  wan.Hour
	Flow  FlowFeatures
	Link  wan.LinkID
	Bytes float64
}

// sortKeys packs the flow into two integers that order like its
// fields taken in turn: AS, prefix, location, region, type. Every
// field fills its bit width, so nothing overlaps.
func (f *FlowFeatures) sortKeys() (uint64, uint64) {
	return uint64(f.AS)<<32 | uint64(f.Prefix), uint64(f.Loc)<<24 | uint64(f.Region)<<8 | uint64(f.Type)
}

// Compare orders flow aggregates field by field: AS, prefix, location,
// region, type.
func (f FlowFeatures) Compare(g FlowFeatures) int {
	f1, f2 := f.sortKeys()
	g1, g2 := g.sortKeys()
	return cmp.Or(cmp.Compare(f1, g1), cmp.Compare(f2, g2))
}

// Compare is the drain order: hour, then flow, then link. The
// aggregator emits records strictly increasing under it, so each hour
// of a window is one sorted run with no duplicate (flow, link).
func (r Record) Compare(s Record) int {
	return cmp.Or(cmp.Compare(r.Hour, s.Hour), r.Flow.Compare(s.Flow), cmp.Compare(r.Link, s.Link))
}

// Set selects which features a model uses. The paper always includes
// source AS and both destination features, and explores adding source
// prefix (AP) or source location (AL); APL is equivalent to AP
// because each /24 has exactly one location (Table 1).
type Set uint8

const (
	// SetA uses source AS + destination region and type.
	SetA Set = iota
	// SetAP adds the source /24 prefix.
	SetAP
	// SetAL adds the source location instead of the prefix.
	SetAL
)

// String implements fmt.Stringer using the paper's names.
func (s Set) String() string {
	switch s {
	case SetA:
		return "A"
	case SetAP:
		return "AP"
	case SetAL:
		return "AL"
	}
	return fmt.Sprintf("Set(%d)", uint8(s))
}

// Tuple is a flow aggregate projected onto a feature set: the unit a
// model keys its learned state by. Fields outside the set are zero,
// so Tuples are directly comparable and usable as map keys.
type Tuple struct {
	AS     bgp.ASN
	Prefix uint32
	Loc    geo.MetroID
	Region wan.Region
	Type   wan.ServiceType
}

// Project returns the flow's tuple under the feature set.
func (s Set) Project(f FlowFeatures) Tuple {
	t := Tuple{AS: f.AS, Region: f.Region, Type: f.Type}
	switch s {
	case SetAP:
		t.Prefix = f.Prefix
	case SetAL:
		t.Loc = f.Loc
	}
	return t
}

// Compare orders tuples as FlowFeatures.Compare orders flows: AS,
// prefix, location, region, type.
func (t Tuple) Compare(u Tuple) int { return FlowFeatures(t).Compare(FlowFeatures(u)) }

// String renders the tuple compactly for operator-facing output.
func (t Tuple) String() string {
	out := fmt.Sprintf("%v", t.AS)
	if t.Prefix != 0 {
		out += fmt.Sprintf(" %s/24", bgp.FormatIP(t.Prefix))
	}
	if t.Loc != 0 {
		out += fmt.Sprintf(" loc%d", t.Loc)
	}
	return out + fmt.Sprintf(" ->r%d/%v", t.Region, t.Type)
}

// Dict ordinally encodes sparse 64-bit feature values into dense
// 32-bit codes, the "simple dictionary (i.e., ordinal encoding)" of
// §4.2. The zero value is ready to use.
type Dict struct {
	fwd map[uint64]uint32
	rev []uint64
}

// Code returns the dense code for v, allocating one if new.
func (d *Dict) Code(v uint64) uint32 {
	if d.fwd == nil {
		d.fwd = make(map[uint64]uint32)
	}
	if c, ok := d.fwd[v]; ok {
		return c
	}
	c := uint32(len(d.rev))
	d.fwd[v] = c
	d.rev = append(d.rev, v)
	return c
}

// Lookup returns the dense code for v without allocating.
func (d *Dict) Lookup(v uint64) (uint32, bool) {
	c, ok := d.fwd[v]
	return c, ok
}

// Value returns the original value for a code.
func (d *Dict) Value(c uint32) (uint64, bool) {
	if int(c) >= len(d.rev) {
		return 0, false
	}
	return d.rev[c], true
}

// Len reports the number of distinct values seen.
func (d *Dict) Len() int { return len(d.rev) }

// Cardinality is the Table 1 accounting: distinct values per feature
// and distinct tuples per feature set.
type Cardinality struct {
	AS, Prefix, Loc, Region, Type int
	TuplesA, TuplesAP, TuplesAL   int
}

// Cardinalities scans records and counts distinct feature values and
// tuples.
func Cardinalities(recs []Record) Cardinality {
	var as, prefix, loc, region, typ Dict
	tA := make(map[Tuple]struct{})
	tAP := make(map[Tuple]struct{})
	tAL := make(map[Tuple]struct{})
	for _, r := range recs {
		as.Code(uint64(r.Flow.AS))
		prefix.Code(uint64(r.Flow.Prefix))
		loc.Code(uint64(r.Flow.Loc))
		region.Code(uint64(r.Flow.Region))
		typ.Code(uint64(r.Flow.Type))
		tA[SetA.Project(r.Flow)] = struct{}{}
		tAP[SetAP.Project(r.Flow)] = struct{}{}
		tAL[SetAL.Project(r.Flow)] = struct{}{}
	}
	return Cardinality{
		AS: as.Len(), Prefix: prefix.Len(), Loc: loc.Len(),
		Region: region.Len(), Type: typ.Len(),
		TuplesA: len(tA), TuplesAP: len(tAP), TuplesAL: len(tAL),
	}
}
