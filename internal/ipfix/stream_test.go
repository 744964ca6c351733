package ipfix

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// streamOf renders n sampled records of one domain as the byte stream
// a router would send, and reports how many messages it holds.
func streamOf(t testing.TB, domain uint32, n int) (stream []byte, messages int) {
	msgs := exportStream(t, domain, n)
	return bytes.Join(msgs, nil), len(msgs)
}

// handled is what one run of a stream reader did: every batch it
// handed on, the collector's counters, and how it ended.
type handled struct {
	batches [][]FlowRecord
	domains []uint32
	stats   CollectorStats
	err     error
}

type streamReader func(c *Collector, r io.Reader, fn func(uint32, []FlowRecord)) error

func runStream(read streamReader, r io.Reader) handled {
	var h handled
	c := NewCollector()
	h.err = read(c, r, func(domain uint32, recs []FlowRecord) {
		h.domains = append(h.domains, domain)
		h.batches = append(h.batches, append([]FlowRecord(nil), recs...))
	})
	h.stats = c.Stats()
	return h
}

// stallingReader returns (0, nil) stalls times before every read that
// makes progress; stalls < 0 stalls for ever.
type stallingReader struct {
	r              io.Reader
	stalls, waited int
}

func (s *stallingReader) Read(p []byte) (int, error) {
	if s.stalls < 0 || s.waited < s.stalls {
		s.waited++
		return 0, nil
	}
	s.waited = 0
	return s.r.Read(p)
}

// TestReadStreamBatchSemantics pins what ReadStreamBatch promises about
// how a stream ends, whatever sizes the reader delivers it in.
func TestReadStreamBatchSemantics(t *testing.T) {
	stream, messages := streamOf(t, 4, 200)
	first := WireLen(stream)
	// A framed message whose body cannot be decoded: quarantined.
	garbage := marshalMessage(0, 9, 4, [][]byte{{0, 2, 0, 7, 1, 2, 3}})
	// The largest message the 16-bit length field allows: one data set
	// for a template nobody announced, which the collector parks.
	huge := marshalMessage(0, 0, 4, [][]byte{marshalDataSet(400, [][]byte{make([]byte, 0xFFFF-msgHeaderLen-setHeaderLen)})})
	if len(huge) != 0xFFFF {
		t.Fatalf("huge message is %d bytes", len(huge))
	}
	shortLen := append([]byte(nil), stream[:first]...)
	binary.BigEndian.PutUint16(shortLen[2:4], msgHeaderLen-1)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	identity := func(r io.Reader) io.Reader { return r }

	cases := []struct {
		name     string
		stream   []byte
		wrap     func(io.Reader) io.Reader
		wantErr  error
		messages int // decoded; -1: do not check
		records  int
		quar     int
	}{
		{"EOF on a message boundary", stream, identity, nil, messages, 200, 0},
		{"one byte at a time", stream, iotest.OneByteReader, nil, messages, 200, 0},
		{"half of what is asked", stream, iotest.HalfReader, nil, messages, 200, 0},
		{"EOF arrives with the last bytes", stream, iotest.DataErrReader, nil, messages, 200, 0},
		{"empty stream", nil, identity, nil, 0, 0, 0},
		{"EOF inside a header", stream[:first+2], identity, io.ErrUnexpectedEOF, 1, -1, 0},
		{"EOF after the length, before the rest of the header", stream[:first+4], identity, io.ErrUnexpectedEOF, 1, -1, 0},
		{"EOF inside a body", stream[:len(stream)-1], iotest.OneByteReader, io.ErrUnexpectedEOF, messages - 1, -1, 0},
		{"length below the header size", cat(stream[:first], shortLen, stream[first:]), identity, ErrShortMessage, 1, -1, 0},
		{"wrong version where a message should start", cat(stream, []byte("junk")), iotest.HalfReader, ErrShortMessage, messages, 200, 0},
		{"a 65,535-byte message fits", cat(stream[:first], huge, huge, stream[first:]), iotest.HalfReader, nil, messages + 2, 200, 0},
		{"decode failure is quarantined, stream continues", cat(stream[:first], garbage, stream[first:]), identity, nil, messages, 200, 1},
		{"timeout after a read that brought whole messages", stream, iotest.TimeoutReader, iotest.ErrTimeout, messages, 200, 0},
		{"timeout mid-message", stream, func(r io.Reader) io.Reader { return iotest.TimeoutReader(iotest.OneByteReader(r)) }, iotest.ErrTimeout, 0, 0, 0},
		{"reader that stalls, then delivers", stream, func(r io.Reader) io.Reader {
			return &stallingReader{r: iotest.HalfReader(r), stalls: maxEmptyReads - 1}
		}, nil, messages, 200, 0},
		{"reader that never delivers", stream, func(r io.Reader) io.Reader { return &stallingReader{r: r, stalls: -1} }, io.ErrNoProgress, 0, 0, 0},
	}
	for _, c := range cases {
		got := runStream((*Collector).ReadStreamBatch, c.wrap(bytes.NewReader(c.stream)))
		if !errors.Is(got.err, c.wantErr) {
			t.Errorf("%s: error %v, want %v", c.name, got.err, c.wantErr)
		}
		if c.wantErr == ErrShortMessage && !strings.Contains(got.err.Error(), "stream framing lost") {
			t.Errorf("%s: error %q does not say the framing is lost", c.name, got.err)
		}
		if c.messages >= 0 && int(got.stats.Messages) != c.messages {
			t.Errorf("%s: decoded %d messages, want %d", c.name, got.stats.Messages, c.messages)
		}
		if c.records >= 0 && int(got.stats.Records) != c.records {
			t.Errorf("%s: decoded %d records, want %d", c.name, got.stats.Records, c.records)
		}
		if int(got.stats.Quarantined) != c.quar {
			t.Errorf("%s: %d quarantined, want %d", c.name, got.stats.Quarantined, c.quar)
		}
	}
}

// chunkReader delivers data in chunks whose sizes follow cuts, two
// bytes a chunk, and ends as end says: 0 io.EOF on the read after the
// last bytes, 1 io.EOF together with them, 2 a transport error in
// place of EOF, 3 the same together with the last bytes.
type chunkReader struct {
	data, cuts []byte
	end        uint8
	at         int
}

var errTransport = errors.New("transport failed")

func (r *chunkReader) Read(p []byte) (int, error) {
	endErr := io.EOF
	if r.end&2 != 0 {
		endErr = errTransport
	}
	if len(r.data) == 0 {
		return 0, endErr
	}
	size := len(r.data)
	if len(r.cuts) >= 2 {
		i := r.at % (len(r.cuts) / 2)
		size = 1 + int(binary.LittleEndian.Uint16(r.cuts[2*i:]))
		r.at++
	}
	n := copy(p, r.data[:min(size, len(r.data))])
	r.data = r.data[n:]
	if len(r.data) == 0 && r.end&1 != 0 {
		return n, endErr
	}
	return n, nil
}

// streamErrClass names how a stream ended. The reference reader
// reports a stream that ends right after a message's four-byte length
// prefix as a bare io.EOF (io.ReadFull read nothing of the rest);
// ReadStreamBatch calls every EOF inside a message unexpected, so the
// two are one class here.
func streamErrClass(err error) string {
	switch {
	case err == nil:
		return "clean end"
	case err == io.EOF, errors.Is(err, io.ErrUnexpectedEOF):
		return "EOF inside a message"
	case errors.Is(err, ErrShortMessage):
		return "framing lost"
	}
	return err.Error()
}

// FuzzReadStreamBatch cuts an arbitrary byte stream into arbitrary
// chunks and holds ReadStreamBatch to the two-ReadFull reference: the
// same batches in the same order, the same collector counters, the
// same class of ending.
func FuzzReadStreamBatch(f *testing.F) {
	// A short stream of small messages: the fuzzer minimizes every
	// interesting input it finds, which takes minutes on long seeds.
	tmpl := FlowTemplate()
	msgs := [][]byte{marshalMessage(0, 0, 7, [][]byte{marshalTemplateSet([]Template{tmpl})})}
	for i := uint32(0); i < 4; i++ {
		recs := [][]byte{sampleRecord(2 * i).Marshal(), sampleRecord(2*i + 1).Marshal()}
		msgs = append(msgs, marshalMessage(0, 2*i, 7, [][]byte{marshalDataSet(tmpl.ID, recs)}))
	}
	stream := bytes.Join(msgs, nil)
	first := len(msgs[0])
	garbage := marshalMessage(0, 9, 7, [][]byte{{0, 2, 0, 7, 1, 2, 3}})
	f.Add(stream, []byte(nil), uint8(0))
	f.Add(stream, []byte{0, 0}, uint8(1))
	f.Add(stream, []byte{2, 0, 200, 0, 0, 5}, uint8(2))
	f.Add(stream[:len(stream)-3], []byte{99, 1}, uint8(3))
	f.Add(stream[:first+4], []byte{6, 0}, uint8(0))
	f.Add(bytes.Join([][]byte{stream[:first], garbage, stream[first:]}, nil), []byte{40, 0}, uint8(0))
	f.Add(bytes.Join([][]byte{stream[:first], {0, 10, 0, 3}, stream[first:]}, nil), []byte{255, 255}, uint8(1))
	f.Add(bytes.Join([][]byte{msgs[2], msgs[0], msgs[1]}, nil), []byte{7, 0}, uint8(0)) // data overtakes its template
	for _, s := range fuzzSeeds() {
		f.Add(s, []byte{3, 0}, uint8(0))
	}
	f.Fuzz(func(t *testing.T, data, cuts []byte, end uint8) {
		want := runStream(readStreamReference, &chunkReader{data: data, cuts: cuts, end: end})
		got := runStream((*Collector).ReadStreamBatch, &chunkReader{data: data, cuts: cuts, end: end})
		if w, g := streamErrClass(want.err), streamErrClass(got.err); w != g {
			t.Errorf("stream ended with %q (%v), the reference with %q (%v)", g, got.err, w, want.err)
		}
		if got.stats != want.stats {
			t.Errorf("collector counters %+v, the reference's %+v", got.stats, want.stats)
		}
		if !reflect.DeepEqual(got.domains, want.domains) || !reflect.DeepEqual(got.batches, want.batches) {
			t.Errorf("handed on %d batches that differ from the reference's %d", len(got.batches), len(want.batches))
		}
	})
}
