package pipeline

import (
	"reflect"
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

// TestAggregatorShardedDrainMatchesSingleMap locks the sharded drain
// to the seed's single-map semantics: a straight-line reference
// aggregation — one map, no shards, no interning, no packed sort keys
// — must produce byte-identical output, and a registered TruthSink
// must observe exactly that output in that order.
func TestAggregatorShardedDrainMatchesSingleMap(t *testing.T) {
	const n = 5000
	agg := raceAggregator()
	var truth truthCapture
	agg.SetTruthSink(&truth)

	// Reference state: the geoip/meta construction mirrors
	// raceAggregator exactly.
	g := geo.NewGeoIP(geo.World(), 0, 1)
	for i := uint32(0); i < 16; i++ {
		g.Register(0x0b000000+i<<8, geo.MetroID(1+i%5))
	}
	meta := staticMeta(2, 1)
	type aggKey struct {
		h wan.Hour
		f features.FlowFeatures
		l wan.LinkID
	}
	ref := make(map[aggKey]float64)

	for i := 0; i < n; i++ {
		h, l, rec := raceRecord(i)
		agg.Record(h, l, &rec)

		region, svc, ok := meta(rec.DstAddr)
		if !ok {
			continue
		}
		prefix := bgp.Slash24(rec.SrcAddr)
		f := features.FlowFeatures{
			AS:     bgp.ASN(rec.SrcAS),
			Prefix: prefix,
			Loc:    g.Lookup(prefix),
			Region: region,
			Type:   svc,
		}
		// Per-key accumulation order equals stream order on both
		// sides (a key lives on exactly one shard), so the float sums
		// are bit-identical, not merely close.
		ref[aggKey{h, f, l}] += float64(rec.Octets)
	}

	want := make([]features.Record, 0, len(ref))
	for k, b := range ref {
		want = append(want, features.Record{Hour: k.h, Flow: k.f, Link: k.l, Bytes: b})
	}
	slices.SortFunc(want, features.Record.Compare)

	got := agg.Records()
	if len(got) == 0 {
		t.Fatal("workload produced no aggregates")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("sharded drain diverged from single-map reference: %d vs %d aggregates", len(want), len(got))
	}
	if !reflect.DeepEqual(truth.recs, got) {
		t.Fatalf("truth sink saw %d records, drain returned %d — order or content diverged", len(truth.recs), len(got))
	}
}

type truthCapture struct{ recs []features.Record }

func (tc *truthCapture) ObserveTruth(rec features.Record) { tc.recs = append(tc.recs, rec) }

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
// Octet counts are small integers, so the per-key float sums are exact
// and the check is equality, not tolerance.
func TestAggregatorConcurrentMixedStress(t *testing.T) {
	const n, workers = 12000, 4
	agg := raceAggregator()

	var mu sync.Mutex
	drained := make(map[string]float64) // serialized key -> bytes
	keyOf := func(r features.Record) string {
		return string(rune(r.Hour)) + string(rune(r.Flow.AS)) + string(rune(r.Flow.Prefix)) +
			string(rune(r.Flow.Loc)) + string(rune(r.Flow.Region)) + string(rune(r.Flow.Type)) +
			string(rune(r.Link))
	}
	collect := func(recs []features.Record) {
		mu.Lock()
		for _, r := range recs {
			drained[keyOf(r)] += r.Bytes
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
	want := make(map[string]float64)
	for _, r := range serial.Records() {
		want[keyOf(r)] += r.Bytes
	}
	if !reflect.DeepEqual(want, drained) {
		t.Fatalf("conservation violated: serial %d keys, concurrent drains %d keys", len(want), len(drained))
	}
}
