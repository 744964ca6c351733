package pipeline

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"tipsy/internal/alloctest"
	"tipsy/internal/geo"
	"tipsy/internal/ipfix"
	"tipsy/internal/wan"
)

// BenchmarkAggregatorRecord measures the per-flow-record ingest cost
// through the aggregation join — one slot lookup and a counter row
// update — with a steady-state accumulator (24 hot aggregates, no
// drain). TestRecordAllocs pins the allocation count; this measures
// the time per record.
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
// with 64 Record calls, the lock is taken and the pending count
// published once per batch, so per-record cost should land under
// BenchmarkAggregatorRecord's.
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
// slots and counter rows are warm.
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

// drainWindow is a 24-hour window shaped like a simulated day: 12,000
// (flow, link) pairs over 4,000 prefixes, each present in an hour with
// probability 0.6, as one 64-record batch list per hour.
func drainWindow(hours int) (batches [][]ipfix.FlowRecord) {
	rng := rand.New(rand.NewSource(1))
	for h := 0; h < hours; h++ {
		var recs []ipfix.FlowRecord
		for pair := 0; pair < 12000; pair++ {
			if rng.Intn(10) >= 6 {
				continue
			}
			prefix := uint32(pair / 3)
			recs = append(recs, ipfix.FlowRecord{
				SrcAddr: 0x0b000000 + prefix<<8 + 5, DstAddr: 40<<24 + prefix%7,
				Octets: uint64(1000 + pair), SrcAS: 64496 + prefix%50,
				Ingress: 1 + (prefix+uint32(pair%3)*17)%64, StartSecs: uint32(h) * 3600,
			})
		}
		batches = append(batches, recs)
	}
	return batches
}

func feedWindow(a *Aggregator, batches [][]ipfix.FlowRecord) {
	for _, recs := range batches {
		for off := 0; off < len(recs); off += 64 {
			a.RecordBatch(recs[off:min(off+64, len(recs))])
		}
	}
}

// BenchmarkAggregatorDrain measures Records alone on a 24-hour window:
// the window is fed with the timer stopped. ns/record is per drained
// aggregate. shuffled-hours feeds the hours out of order; the drain
// orders hours itself, so the two should read alike.
func BenchmarkAggregatorDrain(b *testing.B) {
	batches := drainWindow(24)
	shuffled := append([][]ipfix.FlowRecord(nil), batches...)
	rand.New(rand.NewSource(2)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, c := range []struct {
		name    string
		batches [][]ipfix.FlowRecord
	}{{"drain-order", batches}, {"shuffled-hours", shuffled}} {
		b.Run(c.name, func(b *testing.B) {
			a := NewAggregator(geo.NewGeoIP(geo.World(), 0, 1), staticMeta(3, 2))
			drained := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				feedWindow(a, c.batches)
				b.StartTimer()
				drained += len(a.Records())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(drained), "ns/record")
		})
	}
}

// drainAllocs is what Records allocates on a warmed aggregator holding
// a window of any number of hours, by GOMAXPROCS: at 1, its five work
// arrays, the output and the fresh hours map; at 2, also the
// WaitGroup and the second worker's goroutine (its closure and its
// copy of the shared drain state). The pins are exact; a lower number
// is committed by editing it.
var drainAllocs = []struct{ procs, allocs int }{{1, 7}, {2, 10}}

// warmScheduler refills the runtime's caches of goroutine descriptors
// and of wait-queue entries (sudogs) on every P. A drain at GOMAXPROCS
// 2 takes one of each: starting its worker takes a descriptor, and the
// caller waiting for the worker takes an entry. Each comes from the
// current P's cache or the global one, and the runtime allocates one
// only when both are empty. Whether they are depends on which P
// earlier goroutines exited or woke on, and a GC empties the global
// entry cache, so without this the count reads one more on some runs.
// Many goroutines parking at once and waking together refill both
// caches on every P that runs them.
func warmScheduler() {
	var wg sync.WaitGroup
	release := make(chan struct{})
	for range 256 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
		}()
	}
	close(release)
	wg.Wait()
}

// TestDrainAllocs pins the drain's allocation count and shows it does
// not grow with the hours drained: ordering happens once per drain,
// and an hour is a sweep over arrays the drain already holds.
func TestDrainAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, pin := range drainAllocs {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", pin.procs), func(t *testing.T) {
			runtime.GOMAXPROCS(pin.procs)
			batches := drainWindow(48)
			a := NewAggregator(geo.NewGeoIP(geo.World(), 0, 1), staticMeta(3, 2))
			feedWindow(a, batches)
			a.Records() // every slot is interned from here on
			for _, hours := range []int{2, 48} {
				// The runtime's own goroutines allocate now and then, and
				// MemStats counts them too; that noise only adds, so the
				// smallest of a few drains is the drain's own count.
				allocs := ^uint64(0)
				for trial := 0; trial < 5; trial++ {
					feedWindow(a, batches[:hours])
					warmScheduler()
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					recs := a.Records()
					runtime.ReadMemStats(&after)
					if len(recs) < hours*6000 {
						t.Fatalf("%d hours drained only %d records", hours, len(recs))
					}
					allocs = min(allocs, after.Mallocs-before.Mallocs)
				}
				if allocs != uint64(pin.allocs) {
					t.Errorf("Records allocates %d times draining %d hours, want %d", allocs, hours, pin.allocs)
				}
			}
		})
	}
}
