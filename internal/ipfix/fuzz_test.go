package ipfix

import (
	"bytes"
	"testing"
)

// fuzzSeeds builds a corpus in the shape the collector actually sees:
// real exporter frames (template + data sets), plus the quarantine
// classes — truncated, version-corrupted, length-corrupted, and junk.
func fuzzSeeds() [][]byte {
	var buf bytes.Buffer
	e := NewExporter(&buf, 7)
	for i := 0; i < 3; i++ {
		rec := FlowRecord{
			SrcAddr: 0x0a000001 + uint32(i), DstAddr: 0x0b000001,
			Octets: 1500, Packets: 2, Ingress: 3, SrcAS: 64500,
			StartSecs: 100, EndSecs: 160,
		}
		e.Export(&rec, 1000)
	}
	e.Flush(1001)
	stream := buf.Bytes()

	var seeds [][]byte
	// Each framed message on the stream is its own seed.
	for off := 0; off < len(stream); {
		n := WireLen(stream[off:])
		if n <= 0 || off+n > len(stream) {
			break
		}
		seeds = append(seeds, stream[off:off+n])
		off += n
	}
	if len(seeds) == 0 {
		panic("exporter produced no frames")
	}
	first := seeds[0]
	// Truncations at interesting boundaries.
	for _, n := range []int{0, 1, msgHeaderLen - 1, msgHeaderLen, msgHeaderLen + setHeaderLen - 1} {
		if n <= len(first) {
			seeds = append(seeds, first[:n])
		}
	}
	// Bad version.
	bad := append([]byte(nil), first...)
	bad[0], bad[1] = 0xff, 0xfe
	seeds = append(seeds, bad)
	// Header length lies beyond the buffer.
	long := append([]byte(nil), first...)
	long[2], long[3] = 0xff, 0xff
	seeds = append(seeds, long)
	// Header length lies short (mid-set).
	short := append([]byte(nil), first...)
	short[2], short[3] = 0, msgHeaderLen+2
	seeds = append(seeds, short)
	// Junk.
	seeds = append(seeds, []byte("not ipfix at all"), bytes.Repeat([]byte{0}, 64))
	return seeds
}

// FuzzIPFIXDecode drives the decoder and the full collector over
// arbitrary bytes. The contract under test: malformed input is
// quarantined (an error return, a counter bump) — never a panic, and
// never an accepted record that violates the template length.
func FuzzIPFIXDecode(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if n := WireLen(data); n < 0 {
			t.Fatalf("WireLen = %d, want >= 0", n)
		}

		// Bare decoder, with and without the flow template known. Each
		// state also runs the compiled path through the differential
		// oracle: reference and compiled decoders must agree on every
		// input the fuzzer invents.
		known := map[uint16]Template{FlowTemplateID: FlowTemplate()}
		for _, tmpl := range []map[uint16]Template{nil, known} {
			ref := make(map[uint16]Template, len(tmpl))
			tt := NewTemplateTable()
			for _, mt := range tmpl {
				ref[mt.ID] = mt
				tt.Register(mt)
			}
			runDifferential(t, data, ref, tt)

			msg, err := Decode(data, tmpl)
			if err != nil {
				continue
			}
			recLen := 0
			if tmpl != nil {
				ft := known[FlowTemplateID]
				recLen = ft.RecordLen()
			}
			for _, dr := range msg.Records {
				if dr.TemplateID == FlowTemplateID && recLen > 0 && len(dr.Data) != recLen {
					t.Fatalf("accepted flow record of %d bytes, template says %d", len(dr.Data), recLen)
				}
			}
		}

		// Full collector path: template learning, sequence accounting,
		// pending-set buffering. Must never panic; errors quarantine.
		c := NewCollector()
		_ = c.HandleMessageBatch(data, func(domain uint32, recs []FlowRecord) {})
		c.Stats() // counter decomposition stays readable
	})
}
