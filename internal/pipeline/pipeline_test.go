package pipeline

import (
	"math"
	"reflect"
	"testing"

	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/ipfix"
	"tipsy/internal/netsim"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

func staticMeta(region wan.Region, svc wan.ServiceType) Metadata {
	return func(dst uint32) (wan.Region, wan.ServiceType, bool) {
		if dst>>24 != 40 {
			return 0, 0, false
		}
		return region, svc, true
	}
}

func TestAggregatorSumsWithinHour(t *testing.T) {
	g := geo.NewGeoIP(geo.World(), 0, 1)
	g.Register(0x0b000100, 7)
	a := NewAggregator(g, staticMeta(3, 2))
	rec := ipfix.FlowRecord{SrcAddr: 0x0b000105, DstAddr: 40 << 24, Octets: 1000, SrcAS: 64496}
	a.Record(5, 9, &rec)
	a.Record(5, 9, &rec)
	rec2 := rec
	rec2.Octets = 500
	a.Record(6, 9, &rec2) // different hour: separate aggregate

	out := a.Records()
	if len(out) != 2 {
		t.Fatalf("want 2 aggregates, got %d: %+v", len(out), out)
	}
	first := out[0]
	if first.Hour != 5 || first.Bytes != 2000 || first.Link != 9 {
		t.Errorf("hour-5 aggregate wrong: %+v", first)
	}
	f := first.Flow
	if f.AS != 64496 || f.Prefix != 0x0b000100 || f.Loc != 7 || f.Region != 3 || f.Type != 2 {
		t.Errorf("joined features wrong: %+v", f)
	}
}

func TestAggregatorDropsUnknownDestinations(t *testing.T) {
	g := geo.NewGeoIP(geo.World(), 0, 1)
	a := NewAggregator(g, staticMeta(1, 1))
	rec := ipfix.FlowRecord{SrcAddr: 0x0b000001, DstAddr: 10 << 24, Octets: 100}
	a.Record(0, 1, &rec)
	raw, dropped, pending := a.Stats()
	if raw != 1 || dropped != 1 || pending != 0 {
		t.Errorf("stats = %d %d %d", raw, dropped, pending)
	}
	if out := a.Records(); len(out) != 0 {
		t.Errorf("dropped record produced aggregates: %+v", out)
	}
}

// TestAggregatorCapsHourlySums: a record whose octets would take its
// slot's hourly sum to 2⁵³ or more is dropped and counted, before it
// can mark the slot present, so every drained Bytes is an exact
// float64 and no sum wraps.
func TestAggregatorCapsHourlySums(t *testing.T) {
	a := NewAggregator(geo.NewGeoIP(geo.World(), 0, 1), staticMeta(1, 1))
	rec := func(src uint32, octets uint64) *ipfix.FlowRecord {
		return &ipfix.FlowRecord{SrcAddr: src, DstAddr: 40 << 24, Octets: octets}
	}
	a.Record(0, 1, rec(0x0b000001, 1<<53-1))
	a.Record(0, 1, rec(0x0b000001, 1))              // the sum would reach 2⁵³
	a.Record(0, 1, rec(0x0b000201, math.MaxUint64)) // a fresh slot: no aggregate
	a.Record(0, 1, rec(0x0b000001, 0))              // still fits
	a.Record(1, 1, rec(0x0b000001, 1<<53-1))        // the cap is per hour
	if raw, dropped, pending := a.Stats(); raw != 5 || dropped != 2 || pending != 2 {
		t.Errorf("Stats (%d, %d, %d), want (5, 2, 2)", raw, dropped, pending)
	}
	out := a.Records()
	if len(out) != 2 || out[0].Bytes != 1<<53-1 || out[1].Bytes != 1<<53-1 {
		t.Errorf("drained %+v, want two aggregates of 2⁵³-1 bytes", out)
	}
}

func TestAggregatorDrainResets(t *testing.T) {
	g := geo.NewGeoIP(geo.World(), 0, 1)
	a := NewAggregator(g, staticMeta(1, 1))
	rec := ipfix.FlowRecord{SrcAddr: 0x0b000001, DstAddr: 40 << 24, Octets: 100}
	a.Record(0, 1, &rec)
	if out := a.Records(); len(out) != 1 {
		t.Fatalf("first drain: %d", len(out))
	}
	if out := a.Records(); len(out) != 0 {
		t.Fatal("drain should reset the accumulator")
	}
}

// TestAggregationIsVolumePreserving: §4.2, aggregation merely sums
// bytes — nothing the models need is lost, only record count shrinks.
// Octets add as integers, so conservation is asserted with ==: every
// raw record is dropped or reaches a slot, and the octets of the
// records that reached one are exactly the drained bytes.
func TestAggregationIsVolumePreserving(t *testing.T) {
	metros := geo.World()
	g := topology.Generate(topology.TestGenConfig(20), metros)
	w := traffic.Generate(traffic.TestConfig(20), g, metros)
	cfg := netsim.DefaultConfig(20)
	cfg.SamplingInterval = 1 // no sampling: exact volume accounting
	s := netsim.New(cfg, g, metros, w)

	agg := NewAggregator(s.GeoIP(), s.DstMetadata)
	var sent, kept int
	var keptOctets uint64
	s.Run(netsim.RunOptions{From: 0, To: 4, Sink: netsim.RecordSinkFunc(
		func(h wan.Hour, link wan.LinkID, rec *ipfix.FlowRecord) {
			sent++
			if _, _, ok := s.DstMetadata(rec.DstAddr); ok {
				kept++
				keptOctets += rec.Octets
			}
			agg.Record(h, link, rec)
		})})
	raw, dropped, _ := agg.Stats()
	recs := agg.Records()
	if len(recs) == 0 {
		t.Fatal("no aggregates")
	}
	if len(recs) > sent {
		t.Errorf("aggregation grew the data: %d -> %d", sent, len(recs))
	}
	if raw != sent || raw != dropped+kept {
		t.Errorf("raw %d, dropped %d: want raw = %d sent = dropped + %d that reached a slot", raw, dropped, sent, kept)
	}
	var aggBytes uint64
	for _, r := range recs {
		aggBytes += uint64(r.Bytes)
	}
	if aggBytes != keptOctets {
		t.Errorf("aggregation changed total volume: drained %d bytes, the kept records carried %d", aggBytes, keptOctets)
	}
}

// TestSimulatedWindowsMatchSingleMap drains one reused aggregator
// after each of two consecutive simulated windows, on three seeds, and
// holds every drain to the single-map reference.
// The second window meets warm slot tables and fresh rows.
func TestSimulatedWindowsMatchSingleMap(t *testing.T) {
	metros := geo.World()
	for _, seed := range []int64{20, 21, 22} {
		g := topology.Generate(topology.TestGenConfig(seed), metros)
		w := traffic.Generate(traffic.TestConfig(seed), g, metros)
		s := netsim.New(netsim.DefaultConfig(seed), g, metros, w)
		agg, ref := NewAggregator(s.GeoIP(), s.DstMetadata), newSingleMap(s.GeoIP(), s.DstMetadata)
		for _, from := range []wan.Hour{0, 6} {
			s.Run(netsim.RunOptions{From: from, To: from + 6, Sink: netsim.RecordSinkFunc(
				func(h wan.Hour, link wan.LinkID, rec *ipfix.FlowRecord) {
					agg.Record(h, link, rec)
					ref.Record(h, link, rec)
				})})
			want, got := ref.Records(), agg.Records()
			if len(got) == 0 {
				t.Fatalf("seed %d, hours %d-%d: no aggregates", seed, from, from+6)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("seed %d, hours %d-%d: drain differs from the single-map reference (%d vs %d aggregates)",
					seed, from, from+6, len(got), len(want))
			}
		}
	}
}

func TestAggregatorDeterministicOrder(t *testing.T) {
	build := func() []features.Record {
		g := geo.NewGeoIP(geo.World(), 0, 1)
		a := NewAggregator(g, staticMeta(1, 1))
		for i := 0; i < 100; i++ {
			rec := ipfix.FlowRecord{
				SrcAddr: 0x0b000000 + uint32(i%7)*256,
				DstAddr: 40<<24 + uint32(i%3),
				Octets:  uint64(i + 1),
				SrcAS:   uint32(100 + i%5),
			}
			a.Record(wan.Hour(i%4), wan.LinkID(1+i%6), &rec)
		}
		return a.Records()
	}
	if !reflect.DeepEqual(build(), build()) {
		t.Error("aggregate order not deterministic")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	recs := []features.Record{
		{Hour: 1, Flow: features.FlowFeatures{AS: 64496, Prefix: 0x0b000100, Loc: 3, Region: 9, Type: 2}, Link: 4, Bytes: 100},
		{Hour: 2, Flow: features.FlowFeatures{AS: 174, Prefix: 0x0b000200, Loc: 5, Region: 9, Type: 1}, Link: 7, Bytes: 50},
		{Hour: 2, Flow: features.FlowFeatures{AS: 64496, Prefix: 0x0b000100, Loc: 3, Region: 9, Type: 2}, Link: 4, Bytes: 25},
	}
	enc := Encode(recs)
	if enc.AS.Len() != 2 || enc.Prefix.Len() != 2 {
		t.Errorf("dictionary sizes wrong: AS=%d Prefix=%d", enc.AS.Len(), enc.Prefix.Len())
	}
	back := enc.Decode()
	if !reflect.DeepEqual(recs, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, recs)
	}
}
