package pipeline

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"tipsy/internal/bgp"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/ipfix"
	"tipsy/internal/wan"
)

// raceBatchRecord is raceRecord with the hour and link folded into the
// wire fields RecordBatch reads them from, so the same workload can be
// fed through either entry point.
func raceBatchRecord(i int) ipfix.FlowRecord {
	h, l, rec := raceRecord(i)
	rec.StartSecs = uint32(h) * 3600
	rec.Ingress = uint32(l)
	return rec
}

// singleMap is the reference aggregation the slot-counting aggregator
// is held to: one Go map keyed by the whole (hour, flow, link)
// aggregate, no slot index, no interning, one comparison sort per
// drain. It applies the aggregator's cap: a record whose octets would
// take its aggregate's sum to 2^53 or more is dropped.
type singleMap struct {
	g    *geo.GeoIP
	meta Metadata
	sums map[singleMapKey]uint64
}

type singleMapKey struct {
	h wan.Hour
	f features.FlowFeatures
	l wan.LinkID
}

func newSingleMap(g *geo.GeoIP, meta Metadata) *singleMap {
	return &singleMap{g: g, meta: meta, sums: make(map[singleMapKey]uint64)}
}

// Record adds the record and reports whether it kept it.
func (m *singleMap) Record(h wan.Hour, l wan.LinkID, rec *ipfix.FlowRecord) bool {
	region, svc, ok := m.meta(rec.DstAddr)
	if !ok {
		return false
	}
	prefix := bgp.Slash24(rec.SrcAddr)
	f := features.FlowFeatures{
		AS:     bgp.ASN(rec.SrcAS),
		Prefix: prefix,
		Loc:    m.g.Lookup(prefix),
		Region: region,
		Type:   svc,
	}
	k := singleMapKey{h, f, l}
	if rec.Octets >= 1<<53-m.sums[k] {
		return false
	}
	m.sums[k] += rec.Octets
	return true
}

func (m *singleMap) Records() []features.Record {
	out := make([]features.Record, 0, len(m.sums))
	for k, b := range m.sums {
		out = append(out, features.Record{Hour: k.h, Flow: k.f, Link: k.l, Bytes: float64(b)})
	}
	slices.SortFunc(out, features.Record.Compare)
	clear(m.sums)
	return out
}

// raceGeoIP is the Geo-IP database raceAggregator joins against.
func raceGeoIP() *geo.GeoIP {
	g := geo.NewGeoIP(geo.World(), 0, 1)
	for i := uint32(0); i < 16; i++ {
		g.Register(0x0b000000+i<<8, geo.MetroID(1+i%5))
	}
	return g
}

// TestAggregatorDrainMatchesSingleMap locks the drain to single-map
// semantics: the straight-line reference aggregation must produce
// byte-identical output.
func TestAggregatorDrainMatchesSingleMap(t *testing.T) {
	const n = 5000
	agg := raceAggregator()
	ref := newSingleMap(raceGeoIP(), staticMeta(2, 1))
	for i := 0; i < n; i++ {
		h, l, rec := raceRecord(i)
		agg.Record(h, l, &rec)
		ref.Record(h, l, &rec)
	}
	want, got := ref.Records(), agg.Records()
	if len(got) == 0 {
		t.Fatal("workload produced no aggregates")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("drain diverged from single-map reference: %d vs %d aggregates", len(want), len(got))
	}
}

// TestAggregatorEdgeCasesMatchSingleMap feeds the single-map reference
// and the aggregator the inputs a slot-dense layout could get wrong.
// Every case is fed and drained three times, the same hours twice and
// then shifted by a day: slots persist across drains, rows (and the
// aggregator's memory of its current row) must not.
func TestAggregatorEdgeCasesMatchSingleMap(t *testing.T) {
	type obs struct {
		h   wan.Hour
		l   wan.LinkID
		rec ipfix.FlowRecord
	}
	flow := func(prefix, octets int) ipfix.FlowRecord {
		return ipfix.FlowRecord{SrcAddr: 0x0b000000 + uint32(prefix)<<8, DstAddr: 40 << 24, Octets: uint64(octets), SrcAS: 64500}
	}
	var thousands []obs
	for i := 0; i < 6000; i++ {
		thousands = append(thousands, obs{3, wan.LinkID(1 + i%3), flow(i%2000, 10+i)})
	}
	thousands = append(thousands, obs{4, 2, flow(1234, 77)}) // an hour that touches one slot
	cases := []struct {
		name   string
		stream []obs
	}{
		{"zero octets", []obs{{1, 1, flow(1, 0)}, {1, 2, flow(1, 5)}, {2, 1, flow(1, 0)}, {2, 1, flow(1, 0)}}},
		{"interleaved hours", []obs{
			{7, 1, flow(1, 10)}, {8, 1, flow(1, 20)}, {7, 1, flow(1, 30)},
			{8, 2, flow(1, 40)}, {7, 2, flow(1, 50)}, {6, 1, flow(1, 60)}, {8, 1, flow(1, 70)},
		}},
		{"one slot of thousands", thousands},
		{"unknown destination among known", []obs{
			{1, 1, flow(1, 10)},
			{1, 1, ipfix.FlowRecord{SrcAddr: 0x0b000100, DstAddr: 10 << 24, Octets: 99, SrcAS: 64500}},
			{1, 1, flow(1, 1)},
		}},
	}
	for _, c := range cases {
		g := geo.NewGeoIP(geo.World(), 0, 1)
		agg, ref := NewAggregator(g, staticMeta(2, 1)), newSingleMap(g, staticMeta(2, 1))
		for drain, shift := range []wan.Hour{0, 0, 24} {
			for _, o := range c.stream {
				agg.Record(o.h+shift, o.l, &o.rec)
				ref.Record(o.h+shift, o.l, &o.rec)
			}
			want := ref.Records()
			_, _, pending := agg.Stats()
			got := agg.Records()
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s, drain %d: %d aggregates, reference has %d:\n got %+v\nwant %+v",
					c.name, drain, len(got), len(want), head(got), head(want))
			}
			if pending != len(want) {
				t.Errorf("%s, drain %d: Stats reported %d pending, the drain held %d", c.name, drain, pending, len(want))
			}
		}
		if got := agg.Records(); len(got) != 0 {
			t.Errorf("%s: a drain with nothing fed returned %d aggregates", c.name, len(got))
		}
	}
}

func head(recs []features.Record) []features.Record { return recs[:min(len(recs), 8)] }

// TestDrainIndependentOfFeedersAndProcs is the determinism sweep: the
// same stream, split across 1, 2, 4 and 8 concurrent feeders, drains
// to the same bytes at GOMAXPROCS 1, 2 and 8. Each feeder sends its
// share in 64-record chunks, alternately through RecordBatch and
// record by record through Record. The drain splits its
// hours over GOMAXPROCS workers, so each GOMAXPROCS also drains
// windows of 0 and 1 hours (fewer hours than workers) and one whose
// hours differ in size by three orders of magnitude, against the
// single-map reference.
func TestDrainIndependentOfFeedersAndProcs(t *testing.T) {
	const n = 8000
	ref := newSingleMap(raceGeoIP(), staticMeta(2, 1))
	for i := 0; i < n; i++ {
		h, l, rec := raceRecord(i)
		ref.Record(h, l, &rec)
	}
	want := ref.Records()
	// Each shape maps record i of the workload to its hour, or to -1 to
	// leave it out.
	shapes := []struct {
		name string
		hour func(i int) wan.Hour
	}{
		{"no hours", func(int) wan.Hour { return -1 }},
		{"one hour", func(int) wan.Hour { return 7 }},
		{"unequal hours", func(i int) wan.Hour {
			switch {
			case i < n/2:
				return 3 // 4,000 records, 1,872 aggregates
			case i < n/2+9:
				return wan.Hour(10 + i - n/2) // nine hours of one record each
			case i < n/2+n/4:
				return -1
			default:
				return 40
			}
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, shape := range shapes {
			agg, ref := raceAggregator(), newSingleMap(raceGeoIP(), staticMeta(2, 1))
			for i := 0; i < n; i++ {
				if h := shape.hour(i); h >= 0 {
					_, l, rec := raceRecord(i)
					agg.Record(h, l, &rec)
					ref.Record(h, l, &rec)
				}
			}
			want, got := ref.Records(), agg.Records()
			if !slices.Equal(want, got) {
				t.Errorf("GOMAXPROCS %d, %s: drain differs from the single-map reference (%d vs %d aggregates)",
					procs, shape.name, len(got), len(want))
			}
		}
		for _, feeders := range []int{1, 2, 4, 8} {
			agg := raceAggregator()
			var wg sync.WaitGroup
			for w := 0; w < feeders; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					batch := make([]ipfix.FlowRecord, 0, 64)
					perRecord := false
					flush := func() {
						if perRecord {
							for i := range batch {
								agg.Record(wan.Hour(batch[i].StartSecs/3600), wan.LinkID(batch[i].Ingress), &batch[i])
							}
						} else {
							agg.RecordBatch(batch)
						}
						batch, perRecord = batch[:0], !perRecord
					}
					for i := w; i < n; i += feeders {
						if batch = append(batch, raceBatchRecord(i)); len(batch) == cap(batch) {
							flush()
						}
					}
					flush()
				}(w)
			}
			wg.Wait()
			if raw, dropped, pending := agg.Stats(); raw != n || dropped != 0 || pending != len(want) {
				t.Errorf("GOMAXPROCS %d, %d feeders: Stats (%d, %d, %d) with no batch in flight, want (%d, 0, %d)",
					procs, feeders, raw, dropped, pending, n, len(want))
			}
			if got := agg.Records(); !reflect.DeepEqual(want, got) {
				t.Errorf("GOMAXPROCS %d, %d feeders: drain differs from the single-map reference (%d vs %d aggregates)",
					procs, feeders, len(got), len(want))
			}
		}
	}
}

// TestAggregatorBatchMatchesRecord feeds one stream through Record and
// through RecordBatch in message-sized chunks and requires identical
// drains — the equivalence RecordBatch's documentation promises.
func TestAggregatorBatchMatchesRecord(t *testing.T) {
	const n = 5000
	perRec := raceAggregator()
	batched := raceAggregator()

	recs := make([]ipfix.FlowRecord, n)
	for i := range recs {
		recs[i] = raceBatchRecord(i)
	}
	for i := range recs {
		r := recs[i]
		perRec.Record(wan.Hour(r.StartSecs/3600), wan.LinkID(r.Ingress), &r)
	}
	for off := 0; off < n; off += 64 {
		end := min(off+64, n)
		batched.RecordBatch(recs[off:end])
	}

	a, b := perRec.Records(), batched.Records()
	if len(a) == 0 {
		t.Fatal("workload produced no aggregates")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("batch ingest diverged from per-record ingest: %d vs %d aggregates", len(a), len(b))
	}
}

// TestAggregatorConcurrentMixedStress hammers Record, RecordBatch, and
// Records (the drain) concurrently. Under -race this proves the
// locking sound; in any mode it checks conservation — every ingested
// byte comes back out exactly once across the interleaved drains.
func TestAggregatorConcurrentMixedStress(t *testing.T) {
	const n, workers = 12000, 4
	agg := raceAggregator()

	var mu sync.Mutex
	drained := make(map[string]uint64) // serialized key -> bytes
	keyOf := func(r features.Record) string {
		return string(rune(r.Hour)) + string(rune(r.Flow.AS)) + string(rune(r.Flow.Prefix)) +
			string(rune(r.Flow.Loc)) + string(rune(r.Flow.Region)) + string(rune(r.Flow.Type)) +
			string(rune(r.Link))
	}
	collect := func(recs []features.Record) {
		mu.Lock()
		for _, r := range recs {
			drained[keyOf(r)] += uint64(r.Bytes)
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				for i := w; i < n; i += workers {
					h, l, r := raceRecord(i)
					agg.Record(h, l, &r)
				}
				return
			}
			batch := make([]ipfix.FlowRecord, 0, 64)
			for i := w; i < n; i += workers {
				batch = append(batch, raceBatchRecord(i))
				if len(batch) == 64 {
					agg.RecordBatch(batch)
					batch = batch[:0]
				}
			}
			agg.RecordBatch(batch)
		}(w)
	}
	// Concurrent drains race the writers; whatever they swap out must
	// still be accounted for.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for d := 0; d < 50; d++ {
			collect(agg.Records())
		}
	}()
	wg.Wait()
	collect(agg.Records())

	raw, dropped, pending := agg.Stats()
	if raw != n {
		t.Errorf("raw = %d, want %d", raw, n)
	}
	if pending != 0 {
		t.Errorf("pending = %d after final drain, want 0", pending)
	}

	// Serial reference over the identical workload.
	serial := raceAggregator()
	for i := 0; i < n; i++ {
		h, l, r := raceRecord(i)
		serial.Record(h, l, &r)
	}
	sraw, sdropped, _ := serial.Stats()
	if sraw != raw || sdropped != dropped {
		t.Errorf("stats diverge: serial (%d,%d) concurrent (%d,%d)", sraw, sdropped, raw, dropped)
	}
	want := make(map[string]uint64)
	for _, r := range serial.Records() {
		want[keyOf(r)] += uint64(r.Bytes)
	}
	if !reflect.DeepEqual(want, drained) {
		t.Fatalf("conservation violated: serial %d keys, concurrent drains %d keys", len(want), len(drained))
	}
}
