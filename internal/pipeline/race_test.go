package pipeline

import (
	"reflect"
	"sync"
	"testing"

	"tipsy/internal/ipfix"
	"tipsy/internal/wan"
)

// raceAggregator builds an aggregator whose geoip knows the /24s the
// synthetic workload below uses.
func raceAggregator() *Aggregator {
	return NewAggregator(raceGeoIP(), staticMeta(2, 1))
}

// raceRecord derives the i-th record of a deterministic workload that
// exercises many distinct (hour, link, flow) aggregation keys.
func raceRecord(i int) (wan.Hour, wan.LinkID, ipfix.FlowRecord) {
	return wan.Hour(i % 6), wan.LinkID(1 + i%9), ipfix.FlowRecord{
		SrcAddr: 0x0b000000 + uint32(i%16)<<8 + 5,
		DstAddr: 40<<24 + uint32(i%11),
		Octets:  uint64(1 + i%97),
		SrcAS:   uint32(100 + i%13),
	}
}

// TestAggregatorConcurrentRecordMatchesSerial hammers Record from many
// goroutines — the shape of a collector fed by parallel exporters —
// and requires the drained aggregates to be identical to a serial run
// over the same workload. Run under -race this also proves Record's
// locking is sound.
func TestAggregatorConcurrentRecordMatchesSerial(t *testing.T) {
	const n, workers = 6000, 8

	serial := raceAggregator()
	for i := 0; i < n; i++ {
		h, l, r := raceRecord(i)
		serial.Record(h, l, &r)
	}

	conc := raceAggregator()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				h, l, r := raceRecord(i)
				conc.Record(h, l, &r)
			}
		}(w)
	}
	wg.Wait()

	sr, sd, sp := serial.Stats()
	cr, cd, cp := conc.Stats()
	if sr != cr || sd != cd || sp != cp {
		t.Errorf("stats diverge: serial (%d,%d,%d) concurrent (%d,%d,%d)",
			sr, sd, sp, cr, cd, cp)
	}
	a, b := serial.Records(), conc.Records()
	if len(a) == 0 {
		t.Fatal("workload produced no aggregates")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("concurrent aggregation diverged from serial: %d vs %d aggregates", len(a), len(b))
	}
}
