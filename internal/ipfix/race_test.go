package ipfix

import (
	"sync"
	"testing"
)

// exportStream renders n sampled records for one observation domain
// into the framed messages its exporter would emit.
func exportStream(t testing.TB, domain uint32, n int) [][]byte {
	t.Helper()
	var msgs [][]byte
	w := writerFunc(func(p []byte) (int, error) {
		msgs = append(msgs, append([]byte(nil), p...))
		return len(p), nil
	})
	exp := NewExporter(w, domain)
	for i := 0; i < n; i++ {
		if err := exp.Export(sampleRecord(uint32(i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := exp.Flush(0); err != nil {
		t.Fatal(err)
	}
	return msgs
}

// TestCollectorConcurrentDomainsMatchSerial hammers HandleMessageBatch from
// one goroutine per observation domain — the deployment shape of a
// collector fronting many edge routers — and requires per-domain
// record counts and the global counters to match a serial run over the
// same streams. Under -race this also proves the collector's internal
// locking is sound.
func TestCollectorConcurrentDomainsMatchSerial(t *testing.T) {
	const domains, perDomain = 8, 300
	streams := make([][][]byte, domains)
	for d := 0; d < domains; d++ {
		streams[d] = exportStream(t, uint32(100+d), perDomain)
	}

	serial := NewCollector()
	serialCounts := make([]int, domains)
	for d, msgs := range streams {
		for _, m := range msgs {
			if err := serial.HandleMessageBatch(m, func(_ uint32, recs []FlowRecord) { serialCounts[d] += len(recs) }); err != nil {
				t.Fatal(err)
			}
		}
	}

	conc := NewCollector()
	concCounts := make([]int, domains)
	var wg sync.WaitGroup
	errs := make(chan error, domains)
	for d := 0; d < domains; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for _, m := range streams[d] {
				// Per-domain message order is preserved, as a TCP
				// transport would; only cross-domain order interleaves.
				if err := conc.HandleMessageBatch(m, func(_ uint32, recs []FlowRecord) { concCounts[d] += len(recs) }); err != nil {
					errs <- err
					return
				}
			}
		}(d)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for d := 0; d < domains; d++ {
		if serialCounts[d] != perDomain {
			t.Fatalf("serial run domain %d decoded %d of %d records", d, serialCounts[d], perDomain)
		}
		if concCounts[d] != serialCounts[d] {
			t.Errorf("domain %d: concurrent decoded %d records, serial %d", d, concCounts[d], serialCounts[d])
		}
	}
	// Sequence accounting is per-domain, so global counters must not
	// depend on cross-domain interleaving.
	if ss, cs := serial.Stats(), conc.Stats(); ss != cs {
		t.Errorf("stats diverge:\n serial     %+v\n concurrent %+v", ss, cs)
	}
}
