package ipfix

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"tipsy/internal/obsv"
)

// maxPendingSets bounds, per observation domain, how many data sets
// the collector buffers while waiting for their template. Overflow
// evicts the oldest buffered set.
const maxPendingSets = 256

// maxTrackedGaps bounds, per observation domain, how many sequence
// gaps the collector remembers for reorder/loss disambiguation.
const maxTrackedGaps = 64

// CollectorStats is a snapshot of the collector's counters.
type CollectorStats struct {
	// Messages is the number of messages decoded successfully.
	Messages uint64
	// Records is the number of flow records handed to the callback.
	Records uint64
	// Lost is the net count of data records presumed lost to
	// sequence gaps: gaps opened minus gaps later back-filled by
	// reordered arrivals.
	Lost uint64
	// Reordered counts messages whose sequence number was behind the
	// expected one — late, duplicated, or re-transmitted traffic that
	// a naive counter would have booked as a ~2^32 record loss.
	Reordered uint64
	// Quarantined counts malformed inputs: messages that failed to
	// decode and individual records that failed to unmarshal. They
	// are counted and skipped, never fatal.
	Quarantined uint64
	// Buffered counts data sets parked because their template had
	// not arrived yet; Replayed counts the ones decoded after the
	// template showed up. Evicted counts sets dropped when the
	// pending buffer overflowed.
	Buffered, Replayed, Evicted uint64
}

// seqGap is a half-open range [start, start+count) of sequence
// numbers whose records were presumed lost.
type seqGap struct {
	start uint32
	count uint32
}

// domainState is the collector's per-observation-domain decode state.
type domainState struct {
	table      *TemplateTable
	haveSeq    bool
	nextSeq    uint32   // sequence number expected on the next message
	gaps       []seqGap // open loss gaps, oldest first
	gapScratch []seqGap // refillGaps work area, swapped with gaps
	pending    []RawSet // data sets awaiting their template
	sampling   uint32   // announced sampling interval
}

// collectorMetrics are the collector's registry-backed counters. Lost
// is kept as two monotonic counters (gaps opened, gaps back-filled) so
// the exported metrics never decrease; the net loss is derived in
// Stats.
type collectorMetrics struct {
	messages    *obsv.Counter
	records     *obsv.Counter
	seqLost     *obsv.Counter
	seqRefilled *obsv.Counter
	reordered   *obsv.Counter
	quarantined *obsv.Counter
	buffered    *obsv.Counter
	replayed    *obsv.Counter
	evicted     *obsv.Counter
}

func newCollectorMetrics(reg *obsv.Registry) collectorMetrics {
	return collectorMetrics{
		messages:    reg.Counter("ipfix_messages_total"),
		records:     reg.Counter("ipfix_records_total"),
		seqLost:     reg.Counter("ipfix_seq_gap_lost_total"),
		seqRefilled: reg.Counter("ipfix_seq_gap_refilled_total"),
		reordered:   reg.Counter("ipfix_reordered_total"),
		quarantined: reg.Counter("ipfix_quarantined_total"),
		buffered:    reg.Counter("ipfix_pending_buffered_total"),
		replayed:    reg.Counter("ipfix_pending_replayed_total"),
		evicted:     reg.Counter("ipfix_pending_evicted_total"),
	}
}

// Collector is an IPFIX collecting process. It consumes framed
// messages (one or many exporters can share it if their domains
// differ), tracks templates per observation domain, and hands decoded
// flow records to a callback. It is the receiving end of the paper's
// "distributed collectors that consolidate the flow data", and it is
// built to survive a faulty transport: malformed messages are
// quarantined (counted, never fatal), data sets that overtake their
// template are buffered and replayed when the template arrives, and
// reordered messages are distinguished from genuine loss.
type Collector struct {
	mu sync.Mutex
	// guarded by mu
	domains map[uint32]*domainState
	// lock-free: set in NewCollector; the registry's counters synchronize themselves
	m collectorMetrics
	// batch accumulates the flow records of the message being handled
	// (direct and replayed), reused across messages under mu. Handing
	// the whole slice to a batch consumer amortizes downstream lock
	// traffic over the ~64 records a message carries.
	// guarded by mu
	batch []FlowRecord
}

// NewCollector creates an empty collector with a private metrics
// registry.
func NewCollector() *Collector {
	return NewCollectorOn(obsv.NewRegistry())
}

// NewCollectorOn creates a collector whose counters live in reg under
// the ipfix_ prefix, so /metrics exports them alongside every other
// subsystem's.
func NewCollectorOn(reg *obsv.Registry) *Collector {
	return &Collector{
		domains: make(map[uint32]*domainState),
		m:       newCollectorMetrics(reg),
	}
}

// domain returns (creating if needed) the state for one observation
// domain. Callers hold c.mu.
func (c *Collector) domain(id uint32) *domainState {
	d := c.domains[id]
	if d == nil {
		d = &domainState{table: NewTemplateTable()}
		c.domains[id] = d
	}
	return d
}

// HandleMessageBatch decodes one framed message and invokes fn at most
// once, with every flow record the message produced (direct and
// replayed). The slice is owned by the collector and only valid for
// the duration of the callback. A malformed message is quarantined:
// the error is returned for observability, but the collector remains
// consistent and the next message is processed normally.
func (c *Collector) HandleMessageBatch(buf []byte, fn func(domain uint32, recs []FlowRecord)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.batch = c.batch[:0]
	if len(buf) < msgHeaderLen {
		c.m.quarantined.Inc()
		return ErrShortMessage
	}
	// Peek the domain to select the template table.
	id := binary.BigEndian.Uint32(buf[12:16])
	d := c.domain(id)
	msg := GetMessage()
	if err := DecodeInto(msg, buf, d.table); err != nil {
		PutMessage(msg)
		c.m.quarantined.Inc()
		return err
	}
	c.accountSequence(d, msg)
	c.m.messages.Inc()
	// Data sets arrive as runs of records sharing one template, so
	// the compiled-template lookup is cached across the run.
	lastID := uint16(0)
	var lastCT *CompiledTemplate
	for i := range msg.Records {
		dr := &msg.Records[i]
		if dr.TemplateID != lastID || lastCT == nil {
			lastID = dr.TemplateID
			lastCT = d.table.Get(lastID)
		}
		c.processOne(d, dr.TemplateID, dr.Data, lastCT)
	}
	for i := range msg.Unknown {
		c.bufferPending(d, msg.Unknown[i])
	}
	hadTemplates := len(msg.Templates) > 0
	PutMessage(msg)
	if hadTemplates {
		c.replayPending(d)
	}
	if len(c.batch) > 0 {
		c.m.records.Add(uint64(len(c.batch)))
		fn(id, c.batch)
	}
	return nil
}

// accountSequence updates loss/reorder accounting for one decoded
// message. RFC 7011 sequence numbers count exported data records; the
// naive uint32 subtraction would book a reordered (backward) message
// as a ~2^32 record loss, so the signed 32-bit difference is used:
// it classifies backward jumps as reorders and handles genuine
// wraparound at 2^32 transparently.
func (c *Collector) accountSequence(d *domainState, msg *Message) {
	n := uint32(len(msg.Records))
	seq := msg.Header.Sequence
	if !d.haveSeq {
		d.haveSeq = true
		d.nextSeq = seq + n
		return
	}
	switch diff := int32(seq - d.nextSeq); {
	case diff > 0:
		// Records [nextSeq, seq) never arrived — presumed lost until
		// a reordered message back-fills the gap.
		c.m.seqLost.Add(uint64(diff))
		d.gaps = append(d.gaps, seqGap{start: d.nextSeq, count: uint32(diff)})
		if len(d.gaps) > maxTrackedGaps {
			// Copy down instead of reslicing forward so the backing
			// array keeps its capacity — the gap list must reach a
			// steady state with no per-message allocation.
			kept := copy(d.gaps, d.gaps[len(d.gaps)-maxTrackedGaps:])
			d.gaps = d.gaps[:kept]
		}
		d.nextSeq = seq + n
	case diff < 0:
		// A message from the past: reordered, duplicated, or
		// retransmitted. If it covers an open gap, those records were
		// never lost after all.
		c.m.reordered.Inc()
		c.refillGaps(d, seq, n)
		if int32(seq+n-d.nextSeq) > 0 {
			d.nextSeq = seq + n
		}
	default:
		d.nextSeq = seq + n
	}
}

// refillGaps subtracts the arrived range [seq, seq+n) from the open
// loss gaps, crediting Lost back for records that were merely late.
// The surviving gaps are written by index into a scratch slice that
// is swapped with the live list, so steady-state refills allocate
// nothing. One arrival interval splits at most one gap into head and
// tail, so the output never exceeds len(gaps)+1 entries.
func (c *Collector) refillGaps(d *domainState, seq, n uint32) {
	if n == 0 || len(d.gaps) == 0 {
		return
	}
	if cap(d.gapScratch) < len(d.gaps)+1 {
		d.gapScratch = make([]seqGap, maxTrackedGaps+1)
	}
	kept := d.gapScratch[:cap(d.gapScratch)]
	w := 0
	for _, g := range d.gaps {
		// Overlap of [seq, seq+n) with [g.start, g.start+g.count),
		// computed as signed offsets relative to g.start so sequence
		// wraparound cancels out.
		lo := int64(int32(seq - g.start))
		hi := lo + int64(n)
		if hi <= 0 || lo >= int64(g.count) {
			kept[w] = g // no overlap
			w++
			continue
		}
		if lo < 0 {
			lo = 0
		}
		if hi > int64(g.count) {
			hi = int64(g.count)
		}
		covered := uint32(hi - lo)
		c.m.seqRefilled.Add(uint64(covered))
		// The gap may split into a head and a tail remainder.
		if lo > 0 {
			kept[w].start = g.start
			kept[w].count = uint32(lo)
			w++
		}
		if uint32(hi) < g.count {
			kept[w].start = g.start + uint32(hi)
			kept[w].count = g.count - uint32(hi)
			w++
		}
	}
	d.gaps, d.gapScratch = kept[:w], d.gaps
}

// processOne dispatches one data record: sampling options records
// update the domain's announced interval, flow records decode through
// the compiled template straight into c.batch, and records whose
// template cannot describe a flow record are quarantined. The records
// counter is not touched here: HandleMessageBatch adds the batch's
// length once per message.
func (c *Collector) processOne(d *domainState, tid uint16, data []byte, ct *CompiledTemplate) {
	if tid == SamplingTemplateID && len(data) == 4 {
		d.sampling = binary.BigEndian.Uint32(data[0:4])
		return
	}
	if tid != FlowTemplateID {
		return
	}
	if ct == nil || ct.recLen != flowRecordLen {
		c.m.quarantined.Inc()
		return
	}
	n := len(c.batch)
	c.batch = append(c.batch, FlowRecord{})
	if !ct.DecodeFlow(data, &c.batch[n]) {
		c.batch = c.batch[:n]
		c.m.quarantined.Inc()
	}
}

// bufferPending parks a data set whose template has not arrived,
// bounded by maxPendingSets per domain.
func (c *Collector) bufferPending(d *domainState, raw RawSet) {
	body := append([]byte(nil), raw.Body...) // Body aliases the message buffer
	d.pending = append(d.pending, RawSet{SetID: raw.SetID, Body: body})
	c.m.buffered.Inc()
	if len(d.pending) > maxPendingSets {
		// Copy down (keeping the backing array) rather than reslice
		// forward, and drop the evicted body reference.
		kept := copy(d.pending, d.pending[1:])
		d.pending[kept].SetID = 0
		d.pending[kept].Body = nil
		d.pending = d.pending[:kept]
		c.m.evicted.Inc()
	}
}

// replayPending re-decodes buffered data sets after new templates
// arrived — the resync point for sets that overtook their template.
// Sets still missing a template are compacted in place (w never
// passes i, so the two-pointer walk is safe) and the dropped tail is
// cleared so replayed bodies don't pin their buffers.
func (c *Collector) replayPending(d *domainState) {
	w := 0
	for i := range d.pending {
		raw := d.pending[i]
		ct := d.table.Get(raw.SetID)
		if ct == nil {
			d.pending[w] = raw
			w++
			continue
		}
		c.m.replayed.Inc()
		rl := ct.recLen
		if rl == 0 {
			c.m.quarantined.Inc()
			continue
		}
		body := raw.Body
		for len(body) >= rl {
			c.processOne(d, raw.SetID, body[:rl], ct)
			body = body[rl:]
		}
	}
	clear(d.pending[w:])
	d.pending = d.pending[:w]
}

// streamBufLen is ReadStreamBatch's read buffer: two maximal messages
// (the length field is 16 bits), so after an incomplete message has
// moved to the front there is always room to read a whole one, and a
// read off a busy socket brings in ~100 typical messages.
const streamBufLen = 128 << 10

// maxEmptyReads is how many consecutive (0, nil) reads ReadStreamBatch
// takes from a reader before giving up with io.ErrNoProgress.
const maxEmptyReads = 100

// ReadStreamBatch consumes a stream of back-to-back framed messages
// from r until EOF, invoking fn once per message that produced
// records, with the whole record batch; the slice is only valid during
// the callback. It is used when collectors are attached to routers
// over TCP. Per-message decode failures are quarantined (counted
// inside HandleMessageBatch) and the stream continues — only a framing
// failure, after which message boundaries are unrecoverable, aborts.
// EOF between messages ends the stream cleanly; EOF inside one is
// io.ErrUnexpectedEOF.
//
// Reads go into one buffer: every complete message in it is handled in
// place, the incomplete tail moves to the front, and the next read
// fills the rest.
func (c *Collector) ReadStreamBatch(r io.Reader, fn func(domain uint32, recs []FlowRecord)) error {
	buf := make([]byte, streamBufLen)
	have, empty := 0, 0 // buf[:have] is unhandled; empty counts (0, nil) reads in a row
	for {
		n, err := r.Read(buf[have:])
		have += n
		off := 0
		for have-off >= 4 {
			total := WireLen(buf[off:have])
			if total < msgHeaderLen {
				return fmt.Errorf("%w: stream framing lost", ErrShortMessage)
			}
			if have-off < total {
				break
			}
			_ = c.HandleMessageBatch(buf[off:off+total], fn) // a failure is quarantined and counted there
			off += total
		}
		have = copy(buf, buf[off:have])
		switch {
		case err == io.EOF && have == 0:
			return nil
		case err == io.EOF:
			return io.ErrUnexpectedEOF
		case err != nil:
			return err
		case n > 0:
			empty = 0
		default:
			if empty++; empty == maxEmptyReads {
				return io.ErrNoProgress
			}
		}
	}
}

// SamplingInterval returns the sampling interval a domain announced
// via its options record, or 0 if none seen.
func (c *Collector) SamplingInterval(domain uint32) uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d := c.domains[domain]; d != nil {
		return d.sampling
	}
	return 0
}

// PendingSets reports how many data sets a domain has parked waiting
// for their template.
func (c *Collector) PendingSets(domain uint32) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d := c.domains[domain]; d != nil {
		return len(d.pending)
	}
	return 0
}

// Stats returns a snapshot of the collector's counters, read from the
// registry metrics. Lost is the net figure: gaps opened minus gaps
// back-filled by reordered arrivals.
func (c *Collector) Stats() CollectorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CollectorStats{
		Messages:    c.m.messages.Value(),
		Records:     c.m.records.Value(),
		Lost:        c.m.seqLost.Value() - c.m.seqRefilled.Value(),
		Reordered:   c.m.reordered.Value(),
		Quarantined: c.m.quarantined.Value(),
		Buffered:    c.m.buffered.Value(),
		Replayed:    c.m.replayed.Value(),
		Evicted:     c.m.evicted.Value(),
	}
}
