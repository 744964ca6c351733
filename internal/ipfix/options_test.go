package ipfix

import (
	"bytes"
	"testing"
)

func TestAnnounceSamplingRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	exp := NewExporter(&buf, 77)
	if err := exp.AnnounceSampling(4096, 100); err != nil {
		t.Fatal(err)
	}
	// Follow with ordinary flow records on the same stream.
	exp.Export(sampleRecord(1), 100)
	exp.Flush(100)

	col := NewCollector()
	n := 0
	if err := col.ReadStreamBatch(&buf, func(_ uint32, recs []FlowRecord) { n += len(recs) }); err != nil {
		t.Fatal(err)
	}
	if got := col.SamplingInterval(77); got != 4096 {
		t.Errorf("SamplingInterval = %d, want 4096", got)
	}
	if got := col.SamplingInterval(99); got != 0 {
		t.Errorf("unknown domain should report 0, got %d", got)
	}
	if n != 1 {
		t.Errorf("flow records decoded = %d, want 1", n)
	}
	// The options record must not register as loss.
	if st := col.Stats(); st.Lost != 0 {
		t.Errorf("lost = %d after options announcement", st.Lost)
	}
}

func TestOptionsTemplateParse(t *testing.T) {
	set := marshalOptionsTemplateSet(samplingTemplate())
	msg := marshalMessage(0, 0, 5, [][]byte{set})
	tmpl := map[uint16]Template{}
	decoded, err := Decode(msg, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded.Templates) != 1 || decoded.Templates[0].ID != SamplingTemplateID {
		t.Fatalf("options template not registered: %+v", decoded.Templates)
	}
	st := tmpl[SamplingTemplateID]
	if st.RecordLen() != 4 {
		t.Errorf("record length %d, want 4", st.RecordLen())
	}
}
