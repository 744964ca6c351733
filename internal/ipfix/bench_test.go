package ipfix

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"

	"tipsy/internal/alloctest"
)

// BenchmarkIPFIXDecode measures the reference decoder's steady-state
// per-message cost on a 64-record data set with the template already
// learned — the yardstick BenchmarkDecodeInto is read against.
//
// Baseline (2026-08-08, linux/amd64, go1.22 toolchain era):
//
//	BenchmarkIPFIXDecode   ~1930 ns/op   4728 B/op   14 allocs/op
//
// i.e. ~74 B and ~0.22 allocs per flow record.
func BenchmarkIPFIXDecode(b *testing.B) {
	msg := benchMessage()
	templates := map[uint16]Template{}
	if _, err := Decode(msg, templates); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(msg, templates); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMessage builds the 64-record warmed-template message both
// decode benchmarks share.
func benchMessage() []byte {
	tmpl := FlowTemplate()
	recs := make([][]byte, 64)
	for i := range recs {
		rec := FlowRecord{
			SrcAddr: 0x0b000000 | uint32(i),
			DstAddr: 40 << 24,
			Octets:  uint64(1000 + i),
			SrcAS:   64496,
		}
		recs[i] = rec.Marshal()
	}
	return marshalMessage(100, 0, 7, [][]byte{
		marshalTemplateSet([]Template{tmpl}),
		marshalDataSet(tmpl.ID, recs),
	})
}

// BenchmarkDecodeInto measures the compiled decode path over the same
// 64-record message as BenchmarkIPFIXDecode: template-compiled set
// walking into a pooled, reused Message. Steady state is allocation-
// free (TestDecodeIntoSteadyStateZeroAlloc pins exactly that), so
// ns/op here is pure decode work.
func BenchmarkDecodeInto(b *testing.B) {
	buf := benchMessage()
	tt := NewTemplateTable()
	msg := GetMessage()
	defer PutMessage(msg)
	if err := DecodeInto(msg, buf, tt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(msg, buf, tt); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeIntoSteadyStateZeroAlloc pins the tentpole claim: once the
// template is compiled and the message's internal slices have grown to
// the message shape, DecodeInto performs zero heap allocations — not
// per record, zero for the whole 64-record message.
func TestDecodeIntoSteadyStateZeroAlloc(t *testing.T) {
	buf := benchMessage()
	tt := NewTemplateTable()
	msg := GetMessage()
	defer PutMessage(msg)
	if err := DecodeInto(msg, buf, tt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeInto(msg, buf, tt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeInto allocates %.1f times per 64-record message, want 0", allocs)
	}
	if len(msg.Records) != 64 {
		t.Fatalf("decoded %d records, want 64", len(msg.Records))
	}
}

// handleMessageBatchAllocs is what HandleMessageBatch allocates per
// warmed 64-record message. The pin is exact; a lower number is
// committed by editing it.
const handleMessageBatchAllocs = 0

// TestHandleMessageBatchAllocs pins the collector's whole per-message
// path — pooled Message, compiled decode, sequence accounting, the
// batch hand-off — on in-order messages from one domain.
func TestHandleMessageBatchAllocs(t *testing.T) {
	alloctest.SkipPooledUnderRace(t)
	buf := benchMessage()
	col := NewCollector()
	var seq uint32
	got := 0
	handle := func() {
		binary.BigEndian.PutUint32(buf[8:12], seq)
		seq += 64
		if err := col.HandleMessageBatch(buf, func(_ uint32, recs []FlowRecord) { got = len(recs) }); err != nil {
			t.Fatal(err)
		}
	}
	handle() // learn the template, grow the batch
	if allocs := testing.AllocsPerRun(100, handle); allocs != handleMessageBatchAllocs {
		t.Fatalf("HandleMessageBatch allocates %v times per 64-record message, want %d", allocs, handleMessageBatchAllocs)
	}
	if st := col.Stats(); got != 64 || st.Lost != 0 || st.Reordered != 0 {
		t.Fatalf("last batch had %d records, %d lost, %d reordered; want 64, 0, 0", got, st.Lost, st.Reordered)
	}
}

// BenchmarkReadStreamBatch measures the stream reader with a no-op
// consumer on 60,000 records in ~1.3 kB messages: framing, the
// collector's per-message path and what it costs to get bytes off the
// reader. memory reads from a bytes.Reader, where a read is a copy;
// pipe reads from a net.Pipe fed 64 KiB at a time, where every read is
// a hand-off between goroutines, as a socket read is a system call.
func BenchmarkReadStreamBatch(b *testing.B) {
	stream, _ := streamOf(b, 7, 60000)
	fn := func(uint32, []FlowRecord) {}
	b.Run("memory", func(b *testing.B) {
		b.SetBytes(int64(len(stream)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := NewCollector().ReadStreamBatch(bytes.NewReader(stream), fn); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pipe", func(b *testing.B) {
		b.SetBytes(int64(len(stream)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, w := net.Pipe()
			sent := make(chan error, 1)
			go func() {
				var err error
				for rest := stream; len(rest) > 0 && err == nil; {
					var n int
					n, err = w.Write(rest[:min(64<<10, len(rest))])
					rest = rest[n:]
				}
				w.Close()
				sent <- err
			}()
			err := NewCollector().ReadStreamBatch(r, fn)
			r.Close()
			if werr := <-sent; err != nil || werr != nil {
				b.Fatal(err, werr)
			}
		}
	})
}
