package pipeline

import (
	"testing"

	"tipsy/internal/alloctest"
	"tipsy/internal/geo"
	"tipsy/internal/ipfix"
	"tipsy/internal/wan"
)

// BenchmarkAggregatorRecord measures the per-flow-record ingest cost
// through the aggregation join — metadata lookup, Geo-IP, key build,
// map accumulate — with a steady-state accumulator (24 hot keys, no
// drain). TestRecordAllocs pins the allocation count; this measures
// the time per record.
//
// Baseline (2026-08-08, linux/amd64, go1.22 toolchain era):
//
//	BenchmarkAggregatorRecord   ~100 ns/op   0 B/op   0 allocs/op
//
// Record is already allocation-free in steady state (the aggKey is a
// value type and the accumulator map only grows on new keys); keep it
// that way — any alloc showing up here is a regression.
func BenchmarkAggregatorRecord(b *testing.B) {
	g := geo.NewGeoIP(geo.World(), 0, 1)
	g.Register(0x0b000100, 7)
	a := NewAggregator(g, staticMeta(3, 2))
	rec := ipfix.FlowRecord{SrcAddr: 0x0b000105, DstAddr: 40 << 24, Octets: 1000, SrcAS: 64496}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Record(wan.Hour(i%24), 9, &rec)
	}
}

// BenchmarkAggregatorRecordBatch measures batch ingest of a 64-record
// IPFIX-message-sized batch — the collector's hand-off unit. Compared
// with 64 Record calls, the shard locks are taken once per shard per
// batch and the join memo hits on the sorted runs, so per-record cost
// should land well under BenchmarkAggregatorRecord's.
func BenchmarkAggregatorRecordBatch(b *testing.B) {
	a, recs := warmedBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.RecordBatch(recs)
	}
}

// warmedBatch is a 64-record batch over 16 prefixes, 9 links and 24
// hours, and an aggregator that has already seen it once, so its
// joins and counter maps are warm.
func warmedBatch() (*Aggregator, []ipfix.FlowRecord) {
	g := geo.NewGeoIP(geo.World(), 0, 1)
	for i := uint32(0); i < 16; i++ {
		g.Register(0x0b000000+i<<8, 7)
	}
	a := NewAggregator(g, staticMeta(3, 2))
	recs := make([]ipfix.FlowRecord, 64)
	for i := range recs {
		recs[i] = ipfix.FlowRecord{
			SrcAddr: 0x0b000000 + uint32(i%16)<<8 + 5,
			DstAddr: 40 << 24, Octets: 1000, SrcAS: 64496,
			Ingress: uint32(1 + i%9), StartSecs: uint32(i%24) * 3600,
		}
	}
	a.RecordBatch(recs)
	return a, recs
}

// recordBatchAllocs and recordAllocs are what RecordBatch allocates per
// warmed 64-record batch and Record per record of it. The pins are
// exact; a lower number is committed by editing it.
const (
	recordBatchAllocs = 0
	recordAllocs      = 0
)

func TestRecordBatchAllocs(t *testing.T) {
	alloctest.SkipPooledUnderRace(t)
	a, recs := warmedBatch()
	if allocs := testing.AllocsPerRun(100, func() { a.RecordBatch(recs) }); allocs != recordBatchAllocs {
		t.Fatalf("RecordBatch allocates %v times per warmed 64-record batch, want %d", allocs, recordBatchAllocs)
	}
}

func TestRecordAllocs(t *testing.T) {
	a, recs := warmedBatch()
	allocs := testing.AllocsPerRun(100, func() {
		for i := range recs {
			a.Record(wan.Hour(recs[i].StartSecs/3600), wan.LinkID(recs[i].Ingress), &recs[i])
		}
	})
	if allocs != recordAllocs {
		t.Fatalf("Record allocates %v times per 64 warmed records, want %d", allocs, recordAllocs)
	}
}
