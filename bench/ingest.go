package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"os"
	"sync"
	"time"

	"tipsy/internal/features"
	"tipsy/internal/ipfix"
	"tipsy/internal/netsim"
	"tipsy/internal/pipeline"
	"tipsy/internal/wan"
)

// ingestStreams is how many exporters replay at once: one per core.
const ingestStreams = 2

// ingest replays a pre-encoded IPFIX byte stream over loopback TCP
// into a fresh collector and aggregator, then drains the aggregates:
// the §4.1 collection path. Decode, sharded aggregation and drain do
// all the work; core does none.
type ingest struct {
	cfg  config
	days int

	env      *env
	ln       net.Listener
	streams  [ingestStreams][]byte
	exported int
	messages int
	simDur   time.Duration
	// refCount and refHash describe the same records fed one by one
	// through Aggregator.Record, the per-record reference path.
	refCount int
	refHash  uint64

	// last is the collector's view of the most recent op.
	last ipfix.CollectorStats
}

func newIngest(cfg config) *ingest {
	in := &ingest{cfg: cfg, days: 4}
	if cfg.tiny {
		in.days = 1
	}
	return in
}

func (in *ingest) numClients() int { return 1 } // one replay at a time, over two streams
func (in *ingest) limit() time.Duration {
	return 1500 * time.Millisecond
}
func (in *ingest) sutPID() int { return os.Getpid() }

func (in *ingest) setup(ctx context.Context) error {
	in.env = mediumEnv(in.cfg.seed, in.days, in.cfg.tiny)
	var bufs [ingestStreams]bytes.Buffer
	var exps [ingestStreams]*ipfix.Exporter
	for i := range exps {
		exps[i] = ipfix.NewExporter(&bufs[i], uint32(i+1))
	}
	ref := pipeline.NewAggregator(in.env.sim.GeoIP(), in.env.sim.DstMetadata)
	in.exported = 0
	var expErr error
	t0 := time.Now()
	in.env.sim.Run(netsim.RunOptions{
		From: 0, To: wan.Hour(in.days * 24),
		Sink: netsim.RecordSinkFunc(func(h wan.Hour, link wan.LinkID, rec *ipfix.FlowRecord) {
			in.exported++
			// An exporter is an edge router; links alternate between the two.
			if err := exps[int(link)%ingestStreams].Export(rec, uint32(h)*3600); err != nil && expErr == nil {
				expErr = err
			}
			ref.Record(h, link, rec)
		}),
	})
	in.simDur = time.Since(t0)
	in.messages = 0
	for i := range exps {
		if err := exps[i].Flush(uint32(in.days) * 24 * 3600); err != nil && expErr == nil {
			expErr = err
		}
		in.streams[i] = bufs[i].Bytes()
		in.messages += countMessages(in.streams[i])
	}
	if expErr != nil {
		return fmt.Errorf("export: %w", expErr)
	}
	recs := ref.Records()
	in.refCount, in.refHash = len(recs), hashRecords(recs)

	var err error
	in.ln, err = net.Listen("tcp", "127.0.0.1:0")
	return err
}

func (in *ingest) teardown() {
	if in.ln != nil {
		in.ln.Close()
		in.ln = nil
	}
}

func countMessages(stream []byte) int {
	n := 0
	for len(stream) >= 4 {
		stream = stream[ipfix.WireLen(stream):]
		n++
	}
	return n
}

// hashRecords fingerprints drained records in order. Records() is
// sorted, so equal aggregates hash equal however the streams
// interleaved.
func hashRecords(recs []features.Record) uint64 {
	h := fnv.New64a()
	var b [36]byte
	for i := range recs {
		r := &recs[i]
		binary.LittleEndian.PutUint32(b[0:], uint32(r.Hour))
		binary.LittleEndian.PutUint32(b[4:], uint32(r.Flow.AS))
		binary.LittleEndian.PutUint32(b[8:], r.Flow.Prefix)
		binary.LittleEndian.PutUint32(b[12:], uint32(r.Flow.Loc))
		binary.LittleEndian.PutUint32(b[16:], uint32(r.Flow.Region))
		binary.LittleEndian.PutUint32(b[20:], uint32(r.Flow.Type))
		binary.LittleEndian.PutUint32(b[24:], uint32(r.Link))
		binary.LittleEndian.PutUint64(b[28:], math.Float64bits(r.Bytes))
		h.Write(b[:])
	}
	return h.Sum64()
}

func (in *ingest) op(client, seq int, tr *tracer, root int) opOutcome {
	col := ipfix.NewCollector()
	agg := pipeline.NewAggregator(in.env.sim.GeoIP(), in.env.sim.DstMetadata)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		opErr  error
		failed = func(err error) {
			mu.Lock()
			defer mu.Unlock()
			if opErr == nil {
				opErr = err
			}
		}
	)
	t0 := time.Now()
	for i := range in.streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", in.ln.Addr().String())
			if err != nil {
				failed(err)
				return
			}
			defer conn.Close()
			// A span outside the op: the writer mostly waits for the
			// reader, and the table's wall clock belongs to the readers.
			w0 := time.Now()
			_, err = conn.Write(in.streams[i])
			tr.add("loadgen.write_blocked", 0, ingestStreams+i, w0, time.Since(w0))
			if err != nil {
				failed(err)
			}
		}(i)
	}
	// A sender that could not dial must fail the op, not hang it.
	_ = in.ln.(*net.TCPListener).SetDeadline(t0.Add(30 * time.Second))
	for i := range in.streams {
		conn, err := in.ln.Accept()
		if err != nil {
			failed(err)
			break
		}
		wg.Add(1)
		go func(i int, conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			sp := tr.start("ipfix.stream", root, i)
			var inBatch time.Duration
			began := time.Now()
			fn := func(domain uint32, recs []ipfix.FlowRecord) { agg.RecordBatch(recs) }
			if tr != nil {
				fn = func(domain uint32, recs []ipfix.FlowRecord) {
					b0 := time.Now()
					agg.RecordBatch(recs)
					inBatch += time.Since(b0)
				}
			}
			err := col.ReadStreamBatch(conn, fn)
			tr.add("pipeline.record_batch", sp, i, began, inBatch)
			tr.end(sp)
			if err != nil {
				failed(err)
			}
		}(i, conn)
	}
	wg.Wait()
	sp := tr.start("pipeline.drain", root, 0)
	recs := agg.Records()
	tr.end(sp)
	lat := time.Since(t0)

	sp = tr.start("loadgen.verify", root, 0)
	st := col.Stats()
	in.last = st
	switch {
	case opErr != nil:
	case int(st.Records) != in.exported:
		opErr = fmt.Errorf("decoded %d records, exported %d", st.Records, in.exported)
	case st.Lost != 0 || st.Quarantined != 0:
		opErr = fmt.Errorf("%d records lost, %d quarantined", st.Lost, st.Quarantined)
	case len(recs) != in.refCount || hashRecords(recs) != in.refHash:
		opErr = fmt.Errorf("drained %d records that differ from the per-record reference's %d", len(recs), in.refCount)
	}
	tr.end(sp)
	return opOutcome{lat, in.exported, opErr}
}

func (in *ingest) beginWindow() error { return nil }

func (in *ingest) endWindow(st loopStats, res *result) error {
	m := res.metrics
	m["ipfix.messages"] = float64(in.last.Messages)
	m["ipfix.records"] = float64(in.last.Records)
	m["ipfix.lost"] = float64(in.last.Lost)
	m["ipfix.quarantined"] = float64(in.last.Quarantined)
	m["pipeline.drained_records"] = float64(in.refCount)
	if int(in.last.Messages) != in.messages {
		res.problemf("collector decoded %d messages, the exporters wrote %d", in.last.Messages, in.messages)
	}
	return nil
}

// layers times the compiled decoder alone, from memory: the floor
// under ipfix.stream_self_ms_per_op, which also pays socket reads and
// framing.
func (in *ingest) layers(res *result) {
	decoded := 0
	flowID := ipfix.FlowTemplate().ID
	t0 := time.Now()
	for _, stream := range in.streams {
		tt := ipfix.NewTemplateTable()
		msg := ipfix.GetMessage()
		for len(stream) >= 4 {
			n := ipfix.WireLen(stream)
			if err := ipfix.DecodeInto(msg, stream[:n], tt); err != nil {
				res.problemf("DecodeInto: %v", err)
				break
			}
			ct := tt.Get(flowID)
			var rec ipfix.FlowRecord
			for i := range msg.Records {
				if ct.DecodeFlow(msg.Records[i].Data, &rec) {
					decoded++
				}
			}
			stream = stream[n:]
		}
		ipfix.PutMessage(msg)
	}
	res.metrics["ipfix.decode_ns_per_record"] = float64(time.Since(t0)) / float64(max(decoded, 1))
	if decoded != in.exported {
		res.problemf("DecodeInto decoded %d records from memory, exported %d", decoded, in.exported)
	}
	res.metrics["netsim.run_ms"] = ms(in.simDur)
}
