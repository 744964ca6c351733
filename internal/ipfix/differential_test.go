package ipfix

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// This file holds the differential harness that locks the compiled
// decode path to the reference path. Decode (and decodeFlowReference)
// re-derive everything from template metadata per call; DecodeInto
// (and CompiledTemplate.DecodeFlow) run precompiled per-template
// plans. The two implementations share no decoding logic, so
// agreement over generated, adversarial, and fuzz-corpus inputs is
// strong evidence the compiled path is faithful.

// diffRNG is a tiny deterministic generator (splitmix64) so the chaos
// variants are reproducible run to run.
type diffRNG uint64

func (r *diffRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *diffRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// diffTemplates are the template shapes the generator exercises: the
// standard layout, permutations, reduced-size counters, unknown and
// enterprise fields, and a zero-length degenerate.
func diffTemplates() []Template {
	std := FlowTemplate()
	permuted := Template{ID: 300, Fields: []FieldSpec{
		{ID: IEFlowEndSeconds, Length: 4},
		{ID: IEOctetDeltaCount, Length: 8},
		{ID: IESourceIPv4Address, Length: 4},
		{ID: IEIngressInterface, Length: 4},
		{ID: IEBgpSourceAsNumber, Length: 4},
		{ID: IEPacketDeltaCount, Length: 8},
		{ID: IEDestinationIPv4, Length: 4},
		{ID: IEFlowStartSeconds, Length: 4},
	}}
	reduced := Template{ID: 301, Fields: []FieldSpec{
		{ID: IESourceIPv4Address, Length: 4},
		{ID: IEOctetDeltaCount, Length: 4}, // reduced-size encoding
		{ID: IEPacketDeltaCount, Length: 2},
		{ID: IEIngressInterface, Length: 4},
	}}
	withUnknown := Template{ID: 302, Fields: []FieldSpec{
		{ID: IESourceIPv4Address, Length: 4},
		{ID: 999, Length: 6}, // unknown IE: skipped, offset advances
		{ID: IEDestinationIPv4, Length: 4},
		{ID: IESamplingInterval, Length: 4}, // known IE outside the flow schema
		{ID: IEOctetDeltaCount, Length: 8},
	}}
	enterprise := Template{ID: 303, Fields: []FieldSpec{
		{ID: IESourceIPv4Address, Length: 4},
		{ID: IEOctetDeltaCount, Length: 8, Enterprise: 4242},
		{ID: IEDestinationIPv4, Length: 4},
	}}
	oversize := Template{ID: 304, Fields: []FieldSpec{
		{ID: IEOctetDeltaCount, Length: 12}, // longer than 8: big-endian tail
		{ID: IESourceIPv4Address, Length: 4},
	}}
	empty := Template{ID: 305}
	return []Template{std, permuted, reduced, withUnknown, enterprise, oversize, empty}
}

// diffStream builds one generated message stream: template sets (plain
// and options), data sets in and out of template order, padding, and
// multi-record sets.
func diffStream(rng *diffRNG) [][]byte {
	tmpls := diffTemplates()
	recordFor := func(t Template) []byte {
		n := (&t).RecordLen()
		rec := make([]byte, n)
		for i := range rec {
			rec[i] = byte(rng.next())
		}
		return rec
	}
	dataSet := func(t Template, nrec, pad int) []byte {
		var recs [][]byte
		for i := 0; i < nrec; i++ {
			recs = append(recs, recordFor(t))
		}
		if pad > 0 {
			recs = append(recs, make([]byte, pad))
		}
		return marshalDataSet(t.ID, recs)
	}
	var msgs [][]byte
	seq := uint32(0)
	add := func(sets ...[]byte) {
		msgs = append(msgs, marshalMessage(1000+uint32(len(msgs)), seq, 7, sets))
		seq += 100
	}

	// Data before template: unknown sets surface via Message.Unknown.
	add(dataSet(tmpls[1], 2, 0))
	// Templates announced two ways — plain set with several templates,
	// and an options template set.
	add(marshalTemplateSet(tmpls[:2]), marshalOptionsTemplateSet(tmpls[2]))
	add(marshalTemplateSet(tmpls[3:6]))
	// Template and dependent data in one message, template first.
	add(marshalTemplateSet([]Template{tmpls[6]}))
	// Data sets over every template, varying record counts and padding.
	for _, t := range tmpls {
		if (&t).RecordLen() == 0 {
			continue
		}
		add(dataSet(t, 1+rng.intn(4), rng.intn(3)))
	}
	// One big multi-set message.
	add(dataSet(tmpls[0], 3, 1), dataSet(tmpls[2], 2, 0), dataSet(tmpls[4], 1, 2))
	// Data set for a template nobody announced.
	add(dataSet(Template{ID: 400, Fields: []FieldSpec{{ID: 1, Length: 4}}}, 2, 0))
	return msgs
}

// runDifferential feeds one buffer through both decode paths with
// synchronized template state and asserts equivalent outcomes: same
// accept/reject, and on accept identical headers, templates, records,
// unknown sets, and — for every record — bit-identical flow decodes.
func runDifferential(t *testing.T, buf []byte, ref map[uint16]Template, tt *TemplateTable) {
	t.Helper()
	msg := GetMessage()
	defer PutMessage(msg)
	slowMsg, slowErr := Decode(buf, ref)
	fastErr := DecodeInto(msg, buf, tt)
	if (slowErr != nil) != (fastErr != nil) {
		t.Fatalf("decode disagreement: reference err=%v, compiled err=%v\nbuf=%x", slowErr, fastErr, buf)
	}
	if slowErr != nil {
		return
	}
	if slowMsg.Header != msg.Header {
		t.Fatalf("header mismatch: reference %+v, compiled %+v", slowMsg.Header, msg.Header)
	}
	// Element-wise: the pooled message reuses slice headers, so an
	// empty-vs-nil difference is not a real divergence.
	if len(slowMsg.Templates) != len(msg.Templates) {
		t.Fatalf("template count mismatch: reference %d, compiled %d", len(slowMsg.Templates), len(msg.Templates))
	}
	for i := range slowMsg.Templates {
		if !reflect.DeepEqual(slowMsg.Templates[i], msg.Templates[i]) {
			t.Fatalf("template %d mismatch:\nreference %+v\ncompiled  %+v", i, slowMsg.Templates[i], msg.Templates[i])
		}
	}
	if len(slowMsg.Records) != len(msg.Records) {
		t.Fatalf("record count mismatch: reference %d, compiled %d", len(slowMsg.Records), len(msg.Records))
	}
	for i := range slowMsg.Records {
		sr, fr := slowMsg.Records[i], msg.Records[i]
		if sr.TemplateID != fr.TemplateID || !bytes.Equal(sr.Data, fr.Data) {
			t.Fatalf("record %d mismatch: reference {%d %x}, compiled {%d %x}",
				i, sr.TemplateID, sr.Data, fr.TemplateID, fr.Data)
		}
		// Flow-decode differential on the raw record bytes.
		tmpl, ok := ref[sr.TemplateID]
		if !ok {
			t.Fatalf("record %d references template %d missing from reference state", i, sr.TemplateID)
		}
		ct := tt.Get(fr.TemplateID)
		if ct == nil {
			t.Fatalf("record %d references template %d missing from compiled table", i, fr.TemplateID)
		}
		var want, got FlowRecord
		wantOK := decodeFlowReference(tmpl, sr.Data, &want)
		gotOK := ct.DecodeFlow(fr.Data, &got)
		if wantOK != gotOK {
			t.Fatalf("flow decode disagreement on template %d: reference ok=%v, compiled ok=%v", sr.TemplateID, wantOK, gotOK)
		}
		if wantOK && want != got {
			t.Fatalf("flow record mismatch on template %d:\nreference %+v\ncompiled  %+v", sr.TemplateID, want, got)
		}
	}
	if len(slowMsg.Unknown) != len(msg.Unknown) {
		t.Fatalf("unknown set count mismatch: reference %d, compiled %d", len(slowMsg.Unknown), len(msg.Unknown))
	}
	for i := range slowMsg.Unknown {
		su, fu := slowMsg.Unknown[i], msg.Unknown[i]
		if su.SetID != fu.SetID || !bytes.Equal(su.Body, fu.Body) {
			t.Fatalf("unknown set %d mismatch: reference {%d %x}, compiled {%d %x}",
				i, su.SetID, su.Body, fu.SetID, fu.Body)
		}
	}
}

// TestDifferentialDecode drives generated streams — valid, reordered,
// and chaos-corrupted — through both paths.
func TestDifferentialDecode(t *testing.T) {
	for seed := 0; seed < 8; seed++ {
		rng := diffRNG(seed * 7919)
		msgs := diffStream(&rng)
		ref := make(map[uint16]Template)
		tt := NewTemplateTable()
		for _, m := range msgs {
			runDifferential(t, m, ref, tt)
		}

		// Chaos variants: corrupt bytes and truncate. Template state
		// is rebuilt per variant so a corrupted template set cannot
		// leak into the next comparison's baseline.
		for _, m := range msgs {
			for v := 0; v < 6; v++ {
				mut := append([]byte(nil), m...)
				for flips := 1 + rng.intn(4); flips > 0; flips-- {
					mut[rng.intn(len(mut))] ^= byte(1 + rng.intn(255))
				}
				if rng.intn(3) == 0 {
					mut = mut[:rng.intn(len(mut)+1)]
				}
				runDifferential(t, mut, make(map[uint16]Template), NewTemplateTable())
			}
		}
	}
}

// TestDifferentialDecodeFuzzCorpus replays the fuzz seed corpus — the
// same inputs FuzzIPFIXDecode starts from — through the differential
// oracle, with and without pre-known flow template state.
func TestDifferentialDecodeFuzzCorpus(t *testing.T) {
	for i, seed := range fuzzSeeds() {
		t.Run(fmt.Sprintf("seed%02d", i), func(t *testing.T) {
			runDifferential(t, seed, make(map[uint16]Template), NewTemplateTable())

			ref := map[uint16]Template{FlowTemplateID: FlowTemplate()}
			tt := NewTemplateTable()
			tt.Register(FlowTemplate())
			runDifferential(t, seed, ref, tt)
		})
	}
}

// TestDifferentialCollectorBatch holds the collector to the reference
// decoder: the same stream through HandleMessageBatch and through
// Decode + UnmarshalFlowRecord must produce the same records in the
// same order, and the collector's counters must account for exactly
// those.
func TestDifferentialCollectorBatch(t *testing.T) {
	var buf bytes.Buffer
	e := NewExporter(&buf, 9)
	for i := 0; i < 257; i++ {
		rec := FlowRecord{
			SrcAddr: 0x0a000000 + uint32(i), DstAddr: 0x0b000001,
			Octets: uint64(1000 + i), Packets: 2, Ingress: uint32(1 + i%5),
			SrcAS: 64500, StartSecs: uint32(i * 14), EndSecs: uint32(i*14 + 10),
		}
		if err := e.Export(&rec, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(9999); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()

	type emitted struct {
		domain uint32
		rec    FlowRecord
	}
	var reference, batched []emitted
	templates := map[uint16]Template{}
	col := NewCollector()
	messages := 0
	for off := 0; off < len(stream); messages++ {
		n := WireLen(stream[off:])
		if n <= 0 || off+n > len(stream) {
			t.Fatalf("bad frame at %d", off)
		}
		msg := stream[off : off+n]
		off += n
		ref, err := Decode(msg, templates)
		if err != nil {
			t.Fatal(err)
		}
		for _, dr := range ref.Records {
			if dr.TemplateID != FlowTemplateID {
				continue
			}
			rec, err := UnmarshalFlowRecord(dr.Data)
			if err != nil {
				t.Fatal(err)
			}
			reference = append(reference, emitted{ref.Header.DomainID, rec})
		}
		if err := col.HandleMessageBatch(msg, func(domain uint32, recs []FlowRecord) {
			for _, rec := range recs {
				batched = append(batched, emitted{domain, rec})
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(reference) != 257 {
		t.Fatalf("reference decoded %d records, exported 257", len(reference))
	}
	if !reflect.DeepEqual(reference, batched) {
		t.Fatalf("reference decoder and HandleMessageBatch diverged: %d vs %d records", len(reference), len(batched))
	}
	want := CollectorStats{Messages: uint64(messages), Records: uint64(len(reference))}
	if got := col.Stats(); got != want {
		t.Fatalf("collector stats %+v, want %+v", got, want)
	}
}
