package ipfix

import (
	"io"
	"sync"
)

// maxMessageLen bounds emitted message size so messages fit a typical
// path MTU with headroom.
const maxMessageLen = 1400

// templateResendEvery re-announces templates once per this many
// messages, as collectors may start listening mid-stream (RFC 7011
// §8 recommends periodic retransmission over unreliable transports).
const templateResendEvery = 32

// Exporter is an IPFIX exporting process for one observation domain
// (one edge router in the substrate). It batches flow records into
// framed messages on an io.Writer, manages template (re)transmission,
// and maintains the per-stream sequence number, which counts data
// records per RFC 7011 §3.1.
//
// An Exporter is safe for concurrent use.
type Exporter struct {
	// lock-free: set in NewExporter and never written afterwards
	domain uint32
	// lock-free: set in NewExporter and never written afterwards
	template Template

	mu sync.Mutex
	// w is only assigned in NewExporter, but mu keeps one message's
	// bytes from interleaving with another's.
	// guarded by mu
	w io.Writer
	// guarded by mu
	seq uint32
	// guarded by mu
	msgsSinceStart int
	// guarded by mu
	pending [][]byte
	// guarded by mu
	pendLen int
	// guarded by mu
	tmplLen int // wire size of the template set, for budgeting
}

// NewExporter creates an exporter for the given observation domain
// writing framed IPFIX messages to w using the flow template.
func NewExporter(w io.Writer, domain uint32) *Exporter {
	t := FlowTemplate()
	return &Exporter{w: w, domain: domain, template: t,
		tmplLen: len(marshalTemplateSet([]Template{t}))}
}

// Export queues one flow record, flushing a message if the batch is
// full. exportTime is the simulated export timestamp in seconds.
func (e *Exporter) Export(rec *FlowRecord, exportTime uint32) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	enc := rec.Marshal()
	e.pending = append(e.pending, enc)
	e.pendLen += len(enc)
	// Budget for the worst case: header, a re-announced template set,
	// the data set header, and one more record.
	if msgHeaderLen+e.tmplLen+setHeaderLen+e.pendLen >= maxMessageLen-flowRecordLen {
		return e.flushLocked(exportTime)
	}
	return nil
}

// Flush writes any batched records immediately.
func (e *Exporter) Flush(exportTime uint32) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.flushLocked(exportTime)
}

func (e *Exporter) flushLocked(exportTime uint32) error {
	if len(e.pending) == 0 {
		return nil
	}
	var sets [][]byte
	if e.msgsSinceStart%templateResendEvery == 0 {
		sets = append(sets, marshalTemplateSet([]Template{e.template}))
	}
	sets = append(sets, marshalDataSet(e.template.ID, e.pending))
	msg := marshalMessage(exportTime, e.seq, e.domain, sets)
	e.seq += uint32(len(e.pending))
	e.msgsSinceStart++
	e.pending = e.pending[:0]
	e.pendLen = 0
	_, err := e.w.Write(msg)
	return err
}

// Sequence returns the current data-record sequence number.
func (e *Exporter) Sequence() uint32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seq
}
