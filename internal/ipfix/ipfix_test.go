package ipfix

import (
	"bytes"
	"testing"
	"testing/quick"
)

func sampleRecord(i uint32) *FlowRecord {
	return &FlowRecord{
		SrcAddr:   0x0a000000 + i,
		DstAddr:   0xc0000200 + i,
		Octets:    uint64(1000+i) * 4096,
		Packets:   uint64(1+i) * 4096,
		Ingress:   100 + i,
		SrcAS:     64512 + i,
		StartSecs: 3600,
		EndSecs:   7200,
	}
}

func TestFlowRecordRoundTrip(t *testing.T) {
	r := sampleRecord(7)
	got, err := UnmarshalFlowRecord(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != *r {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, *r)
	}
}

func TestFlowRecordRoundTripProperty(t *testing.T) {
	f := func(src, dst, ing, as, st, en uint32, oct, pkt uint64) bool {
		r := FlowRecord{src, dst, oct, pkt, ing, as, st, en}
		got, err := UnmarshalFlowRecord(r.Marshal())
		return err == nil && got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestFlowRecordBadLength(t *testing.T) {
	if _, err := UnmarshalFlowRecord(make([]byte, flowRecordLen-1)); err == nil {
		t.Error("short record should fail")
	}
}

func TestTemplateRecordLen(t *testing.T) {
	tmpl := FlowTemplate()
	if got := tmpl.RecordLen(); got != flowRecordLen {
		t.Errorf("RecordLen = %d, want %d", got, flowRecordLen)
	}
}

func TestExporterCollectorRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	exp := NewExporter(&buf, 42)
	want := make([]FlowRecord, 100)
	for i := range want {
		want[i] = *sampleRecord(uint32(i))
		if err := exp.Export(&want[i], 1000); err != nil {
			t.Fatal(err)
		}
	}
	if err := exp.Flush(1000); err != nil {
		t.Fatal(err)
	}
	if exp.Sequence() != 100 {
		t.Errorf("sequence = %d, want 100", exp.Sequence())
	}

	col := NewCollector()
	var got []FlowRecord
	err := col.ReadStreamBatch(&buf, func(domain uint32, recs []FlowRecord) {
		if domain != 42 {
			t.Errorf("domain = %d, want 42", domain)
		}
		got = append(got, recs...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	st := col.Stats()
	if st.Records != 100 || st.Lost != 0 {
		t.Errorf("stats: %+v", st)
	}
	if st.Messages < 2 {
		t.Errorf("100 records should span multiple messages under the MTU cap, got %d", st.Messages)
	}
}

func TestMessagesRespectSizeCap(t *testing.T) {
	var msgs [][]byte
	w := writerFunc(func(p []byte) (int, error) {
		msgs = append(msgs, append([]byte(nil), p...))
		return len(p), nil
	})
	exp := NewExporter(w, 1)
	for i := 0; i < 500; i++ {
		if err := exp.Export(sampleRecord(uint32(i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	exp.Flush(0)
	for i, m := range msgs {
		if len(m) > maxMessageLen {
			t.Errorf("message %d is %d bytes, exceeds cap %d", i, len(m), maxMessageLen)
		}
		if got := WireLen(m); got != len(m) {
			t.Errorf("message %d: header length %d != actual %d", i, got, len(m))
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestCollectorDetectsLoss(t *testing.T) {
	var msgs [][]byte
	w := writerFunc(func(p []byte) (int, error) {
		msgs = append(msgs, append([]byte(nil), p...))
		return len(p), nil
	})
	exp := NewExporter(w, 9)
	for i := 0; i < 400; i++ {
		exp.Export(sampleRecord(uint32(i)), 0)
	}
	exp.Flush(0)
	if len(msgs) < 3 {
		t.Skip("need at least 3 messages to drop the middle one")
	}
	col := NewCollector()
	n := 0
	// Drop the second message to create a sequence gap. Templates are
	// carried in message 0, so decoding still works.
	for i, m := range msgs {
		if i == 1 {
			continue
		}
		if err := col.HandleMessageBatch(m, func(_ uint32, recs []FlowRecord) { n += len(recs) }); err != nil {
			t.Fatal(err)
		}
	}
	if st := col.Stats(); st.Lost == 0 {
		t.Error("dropped message should register as sequence loss")
	}
}

func TestCollectorBuffersDataBeforeTemplate(t *testing.T) {
	// A data set arriving before its template is parked, not fatal,
	// and replays once the template set shows up.
	rec := sampleRecord(0)
	data := marshalMessage(0, 0, 5, [][]byte{
		marshalDataSet(FlowTemplateID, [][]byte{rec.Marshal()}),
	})
	col := NewCollector()
	var got []FlowRecord
	fn := func(_ uint32, recs []FlowRecord) { got = append(got, recs...) }
	if err := col.HandleMessageBatch(data, fn); err != nil {
		t.Fatalf("data before template should not be fatal: %v", err)
	}
	if len(got) != 0 || col.PendingSets(5) != 1 {
		t.Fatalf("expected 1 buffered set and no records, got %d records, %d pending",
			len(got), col.PendingSets(5))
	}
	tmplMsg := marshalMessage(0, 1, 5, [][]byte{
		marshalTemplateSet([]Template{FlowTemplate()}),
	})
	if err := col.HandleMessageBatch(tmplMsg, fn); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != *rec {
		t.Fatalf("buffered set not replayed after template resync: %+v", got)
	}
	st := col.Stats()
	if st.Buffered != 1 || st.Replayed != 1 || col.PendingSets(5) != 0 {
		t.Errorf("stats after resync: %+v, pending %d", st, col.PendingSets(5))
	}
}

func TestCollectorReorderIsNotLoss(t *testing.T) {
	// Exported messages delivered out of order: a backward sequence
	// jump must count as a reorder, and a late message must refill
	// the gap its absence opened — not wrap into a ~2^32 loss.
	var msgs [][]byte
	w := writerFunc(func(p []byte) (int, error) {
		msgs = append(msgs, append([]byte(nil), p...))
		return len(p), nil
	})
	exp := NewExporter(w, 9)
	for i := 0; i < 400; i++ {
		exp.Export(sampleRecord(uint32(i)), 0)
	}
	exp.Flush(0)
	if len(msgs) < 3 {
		t.Skip("need at least 3 messages to swap a pair")
	}
	col := NewCollector()
	n := 0
	// Deliver message 2 before message 1.
	order := []int{0, 2, 1}
	for i := 3; i < len(msgs); i++ {
		order = append(order, i)
	}
	for _, i := range order {
		if err := col.HandleMessageBatch(msgs[i], func(_ uint32, recs []FlowRecord) { n += len(recs) }); err != nil {
			t.Fatal(err)
		}
	}
	st := col.Stats()
	if st.Reordered != 1 {
		t.Errorf("reordered = %d, want 1", st.Reordered)
	}
	if st.Lost != 0 {
		t.Errorf("lost = %d; the late message should have refilled the gap", st.Lost)
	}
	if n != 400 {
		t.Errorf("decoded %d of 400 records", n)
	}
}

func TestCollectorDuplicateDoesNotRefill(t *testing.T) {
	var msgs [][]byte
	w := writerFunc(func(p []byte) (int, error) {
		msgs = append(msgs, append([]byte(nil), p...))
		return len(p), nil
	})
	exp := NewExporter(w, 9)
	for i := 0; i < 400; i++ {
		exp.Export(sampleRecord(uint32(i)), 0)
	}
	exp.Flush(0)
	if len(msgs) < 3 {
		t.Skip("need at least 3 messages")
	}
	col := NewCollector()
	fn := func(uint32, []FlowRecord) {}
	// Drop message 1 (a real gap), then duplicate message 2: the
	// duplicate must not be credited against the dropped records.
	col.HandleMessageBatch(msgs[0], fn)
	col.HandleMessageBatch(msgs[2], fn)
	lostAfterGap := col.Stats().Lost
	if lostAfterGap == 0 {
		t.Fatal("gap not detected")
	}
	col.HandleMessageBatch(msgs[2], fn)
	st := col.Stats()
	if st.Lost != lostAfterGap {
		t.Errorf("duplicate changed lost from %d to %d", lostAfterGap, st.Lost)
	}
	if st.Reordered != 1 {
		t.Errorf("duplicate should count as reordered, got %d", st.Reordered)
	}
}

func TestCollectorSequenceWraparound(t *testing.T) {
	// An exporter whose sequence crosses 2^32 must not register a
	// catastrophic loss at the wrap point.
	near := ^uint32(0) - 3 // 4294967292
	col := NewCollector()
	fn := func(uint32, []FlowRecord) {}
	recs := [][]byte{sampleRecord(0).Marshal(), sampleRecord(1).Marshal()}
	tmpl := marshalTemplateSet([]Template{FlowTemplate()})
	// seq near wrap with 2 records, then the continuation past 0.
	m1 := marshalMessage(0, near, 6, [][]byte{tmpl, marshalDataSet(FlowTemplateID, recs)})
	m2 := marshalMessage(0, near+2, 6, [][]byte{marshalDataSet(FlowTemplateID, recs)})
	m3 := marshalMessage(0, near+4, 6, [][]byte{marshalDataSet(FlowTemplateID, recs)}) // seq 0: past the wrap
	if near+4 != 0 {
		t.Fatal("test arithmetic wrong")
	}
	for _, m := range [][]byte{m1, m2, m3} {
		if err := col.HandleMessageBatch(m, fn); err != nil {
			t.Fatal(err)
		}
	}
	st := col.Stats()
	if st.Lost != 0 || st.Reordered != 0 {
		t.Errorf("wraparound misaccounted: %+v", st)
	}
}

func TestCollectorQuarantinesMalformed(t *testing.T) {
	var buf bytes.Buffer
	exp := NewExporter(&buf, 3)
	for i := 0; i < 20; i++ { // few enough to stay in one framed message
		exp.Export(sampleRecord(uint32(i)), 0)
	}
	exp.Flush(0)
	col := NewCollector()
	n := 0
	fn := func(_ uint32, recs []FlowRecord) { n += len(recs) }
	// A hopelessly short message and one with a corrupted version
	// field are quarantined; a good message then processes normally.
	if err := col.HandleMessageBatch([]byte{1, 2, 3}, fn); err == nil {
		t.Error("short message should return an error")
	}
	good := buf.Bytes()
	bad := append([]byte(nil), good...)
	bad[0] = 0xFF
	if err := col.HandleMessageBatch(bad, fn); err == nil {
		t.Error("bad version should return an error")
	}
	if err := col.HandleMessageBatch(good, fn); err != nil {
		t.Fatal(err)
	}
	st := col.Stats()
	if st.Quarantined != 2 {
		t.Errorf("quarantined = %d, want 2", st.Quarantined)
	}
	if n != 20 || st.Records != 20 {
		t.Errorf("good message not processed after quarantines: n=%d stats=%+v", n, st)
	}
}

// TestCollectorRecordsCountedPerMessage holds CollectorStats.Records,
// which the collector adds once per message, to the records each
// message hands its callback: after every message of every case the
// counter equals what the callbacks have received, and the quarantine
// counter what that message quarantined.
func TestCollectorRecordsCountedPerMessage(t *testing.T) {
	recs := func(from, n int) [][]byte {
		var out [][]byte
		for i := from; i < from+n; i++ {
			out = append(out, sampleRecord(uint32(i)).Marshal())
		}
		return out
	}
	flow := marshalTemplateSet([]Template{FlowTemplate()})
	zeroLen := marshalTemplateSet([]Template{{ID: 300}}) // describes zero bytes: its sets are quarantined on replay
	reduced := FlowTemplate()
	reduced.Fields = reduced.Fields[:len(reduced.Fields)-1] // 36 bytes, not a flow record
	var short [][]byte
	for _, r := range recs(0, 3) {
		short = append(short, r[:36])
	}
	sampling := [][]byte{marshalOptionsTemplateSet(samplingTemplate()), marshalDataSet(SamplingTemplateID, [][]byte{{0, 0, 16, 0}})}
	type msg struct {
		sets                 [][]byte // nil: a three-byte malformed message
		records, quarantined uint64   // what this message hands over and quarantines
	}
	cases := []struct {
		name string
		msgs []msg
	}{
		{"direct records", []msg{{[][]byte{flow, marshalDataSet(FlowTemplateID, recs(0, 3))}, 3, 0}}},
		{"replayed pending set", []msg{
			{[][]byte{marshalDataSet(FlowTemplateID, recs(0, 2))}, 0, 0},
			{[][]byte{flow, marshalDataSet(FlowTemplateID, recs(2, 3))}, 5, 0},
		}},
		{"direct, replayed and quarantined in one message", []msg{
			{[][]byte{marshalDataSet(FlowTemplateID, recs(0, 2)), marshalDataSet(300, [][]byte{{1, 2, 3, 4}})}, 0, 0},
			{[][]byte{flow, zeroLen, marshalDataSet(FlowTemplateID, recs(2, 3))}, 5, 1},
			{[][]byte{marshalDataSet(FlowTemplateID, recs(5, 1))}, 1, 0},
		}},
		{"records of a reduced-size flow template", []msg{{[][]byte{marshalTemplateSet([]Template{reduced}), marshalDataSet(FlowTemplateID, short)}, 0, 3}}},
		{"sampling options record among records", []msg{{append(sampling, flow, marshalDataSet(FlowTemplateID, recs(0, 4))), 4, 0}}},
		{"malformed message between good ones", []msg{
			{[][]byte{flow, marshalDataSet(FlowTemplateID, recs(0, 2))}, 2, 0},
			{nil, 0, 1},
			{[][]byte{marshalDataSet(FlowTemplateID, recs(2, 2))}, 2, 0},
		}},
	}
	for _, c := range cases {
		col := NewCollector()
		var handed, records, quarantined uint64
		fn := func(_ uint32, recs []FlowRecord) { handed += uint64(len(recs)) }
		for i, m := range c.msgs {
			buf := []byte{1, 2, 3}
			if m.sets != nil {
				buf = marshalMessage(0, 0, 5, m.sets)
			}
			_ = col.HandleMessageBatch(buf, fn) // a malformed message's error is the quarantine counted below
			records += m.records
			quarantined += m.quarantined
			if st := col.Stats(); st.Records != records || handed != records || st.Quarantined != quarantined {
				t.Errorf("%s, after message %d: Records %d, handed to the callback %d, Quarantined %d; want %d, %d, %d",
					c.name, i, st.Records, handed, st.Quarantined, records, records, quarantined)
			}
		}
	}
}

func TestReadStreamSurvivesQuarantinedMessage(t *testing.T) {
	// A stream with one undecodable (but correctly framed) message in
	// the middle keeps going; only framing loss aborts.
	var m1, m2 bytes.Buffer
	exp1 := NewExporter(&m1, 4)
	exp1.Export(sampleRecord(1), 0)
	exp1.Flush(0)
	exp2 := NewExporter(&m2, 4)
	exp2.Export(sampleRecord(2), 0)
	exp2.Flush(0)

	var stream bytes.Buffer
	stream.Write(m1.Bytes())
	// Build a framed message whose body is garbage: valid version and
	// length, unparseable template set inside.
	garbage := marshalMessage(0, 9, 4, [][]byte{{0, 2, 0, 7, 1, 2, 3}})
	stream.Write(garbage)
	stream.Write(m2.Bytes())

	col := NewCollector()
	n := 0
	if err := col.ReadStreamBatch(&stream, func(_ uint32, recs []FlowRecord) { n += len(recs) }); err != nil {
		t.Fatalf("stream aborted on a quarantinable message: %v", err)
	}
	if n != 2 {
		t.Errorf("decoded %d of 2 good records", n)
	}
	if st := col.Stats(); st.Quarantined == 0 {
		t.Error("garbage message not quarantined")
	}
}

func TestCollectorPendingBufferBounded(t *testing.T) {
	col := NewCollector()
	fn := func(uint32, []FlowRecord) {}
	rec := sampleRecord(0).Marshal()
	for i := 0; i < maxPendingSets+10; i++ {
		msg := marshalMessage(0, uint32(i), 7, [][]byte{marshalDataSet(FlowTemplateID, [][]byte{rec})})
		col.HandleMessageBatch(msg, fn)
	}
	if got := col.PendingSets(7); got != maxPendingSets {
		t.Errorf("pending = %d, want capped at %d", got, maxPendingSets)
	}
	if st := col.Stats(); st.Evicted != 10 {
		t.Errorf("evicted = %d, want 10", st.Evicted)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	msg := marshalMessage(0, 0, 1, nil)
	msg[0], msg[1] = 0, 9 // NetFlow v9, not IPFIX
	if _, err := Decode(msg, map[uint16]Template{}); err != ErrBadVersion {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	var buf bytes.Buffer
	exp := NewExporter(&buf, 1)
	exp.Export(sampleRecord(1), 0)
	exp.Flush(0)
	msg := buf.Bytes()
	for cut := 1; cut < len(msg); cut += 11 {
		_, err := Decode(msg[:cut], map[uint16]Template{})
		if err == nil && cut < msgHeaderLen {
			t.Errorf("truncation at %d decoded", cut)
		}
	}
}

func TestTemplatePeriodicResend(t *testing.T) {
	var msgs [][]byte
	w := writerFunc(func(p []byte) (int, error) {
		msgs = append(msgs, append([]byte(nil), p...))
		return len(p), nil
	})
	exp := NewExporter(w, 1)
	for m := 0; m < templateResendEvery+1; m++ {
		for i := 0; i < 40; i++ { // enough to force one flush per batch
			exp.Export(sampleRecord(uint32(i)), 0)
		}
		exp.Flush(0)
	}
	// A collector that starts listening after the first message must
	// eventually recover once the template is re-announced.
	col := NewCollector()
	recovered := 0
	for _, m := range msgs[1:] {
		if err := col.HandleMessageBatch(m, func(_ uint32, recs []FlowRecord) { recovered += len(recs) }); err == nil && recovered > 0 {
			break
		}
	}
	if recovered == 0 {
		t.Error("late-joining collector never recovered a template")
	}
}
