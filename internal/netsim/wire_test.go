package netsim

import (
	"bytes"
	"testing"

	"tipsy/internal/ipfix"
	"tipsy/internal/wan"
)

// TestWirePathEquivalence verifies that telemetry which rides the real
// IPFIX encoding (exporter -> bytes -> collector) is record-for-record
// identical to what the in-memory sink sees: nothing in the learning
// pipeline depends on skipping the wire.
func TestWirePathEquivalence(t *testing.T) {
	s := testSim(t, 51)

	var direct []ipfix.FlowRecord
	var stream bytes.Buffer
	exp := ipfix.NewExporter(&stream, 9)
	s.Run(RunOptions{
		From: 0, To: 3,
		Sink: RecordSinkFunc(func(h wan.Hour, link wan.LinkID, rec *ipfix.FlowRecord) {
			direct = append(direct, *rec)
			if err := exp.Export(rec, uint32(h)*3600); err != nil {
				t.Fatal(err)
			}
		}),
	})
	if err := exp.Flush(3 * 3600); err != nil {
		t.Fatal(err)
	}
	if len(direct) == 0 {
		t.Fatal("no records produced")
	}

	col := ipfix.NewCollector()
	var decoded []ipfix.FlowRecord
	if err := col.ReadStreamBatch(&stream, func(domain uint32, recs []ipfix.FlowRecord) {
		if domain != 9 {
			t.Fatalf("domain %d", domain)
		}
		decoded = append(decoded, recs...)
	}); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(direct) {
		t.Fatalf("wire path decoded %d of %d records", len(decoded), len(direct))
	}
	for i := range direct {
		if decoded[i] != direct[i] {
			t.Fatalf("record %d differs across the wire:\n direct %+v\n  wire  %+v", i, direct[i], decoded[i])
		}
	}
	if st := col.Stats(); st.Lost != 0 {
		t.Errorf("sequence loss on a lossless stream: %d", st.Lost)
	}
}
