package netsim

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"tipsy/internal/ipfix"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

// RecordSink receives sampled flow observations as the simulation
// runs — the role of the paper's distributed IPFIX collectors feeding
// the data lake. Calls arrive from a single goroutine in
// deterministic order. The record is only valid during the call.
type RecordSink interface {
	Record(h wan.Hour, link wan.LinkID, rec *ipfix.FlowRecord)
}

// RecordSinkFunc adapts a function to the RecordSink interface.
type RecordSinkFunc func(h wan.Hour, link wan.LinkID, rec *ipfix.FlowRecord)

// Record implements RecordSink.
func (f RecordSinkFunc) Record(h wan.Hour, link wan.LinkID, rec *ipfix.FlowRecord) {
	f(h, link, rec)
}

// BatchSink is an optional fast path a RecordSink may implement. When
// the sink does, Run delivers each hour's records as one RecordBatch
// call instead of per-record Record calls, amortizing the sink's
// locking across the hour. Records arrive in exactly the order the
// per-record path would deliver them; the hour is StartSecs/3600 and
// the link is Ingress of each record. The slice is reused by Run and
// must not be retained past the call.
type BatchSink interface {
	RecordBatch(recs []ipfix.FlowRecord)
}

// RunOptions controls one simulation run.
type RunOptions struct {
	From, To wan.Hour
	Sink     RecordSink
	// OnHourEnd, if set, runs after each simulated hour with ground
	// truth fully accumulated — the hook the congestion mitigation
	// system uses to observe utilization and inject withdrawals that
	// take effect the next hour.
	OnHourEnd func(h wan.Hour)
}

// runChunk is how many consecutive flows a Run worker claims at a
// time.
const runChunk = 128

// chunkOut is one chunk's output for the hour being simulated, in flow
// order: its sampled records, each flow's sorted by link, and its
// ground-truth (link, bytes) contributions. Run reuses the buffers
// across hours.
type chunkOut struct {
	recs []ipfix.FlowRecord
	lb   []LinkShare // Frac holds bytes
}

// Run simulates hours [From, To): it computes each active flow's
// volume, resolves its ingress links under the current announcement
// and outage state, accumulates ground-truth link loads, applies
// 1-in-N packet sampling, and emits IPFIX flow records to the sink.
//
// GOMAXPROCS workers claim chunks of runChunk consecutive flows. Run
// then delivers the chunks in order, so records arrive sorted by
// (flow ID, link), and sums ground truth in flow order, so LinkBytes
// is bit for bit a single-threaded sum whatever the core count.
func (s *Sim) Run(opts RunOptions) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	flows := s.w.Flows
	nChunks := (len(flows) + runChunk - 1) / runChunk
	if len(s.memo) != len(flows) {
		s.memo = make([]flowMemo, len(flows))
		s.chunks = make([]chunkOut, nChunks)
	}
	memo, chunks := s.memo, s.chunks
	workers := min(runtime.GOMAXPROCS(0), nChunks)
	bs, _ := opts.Sink.(BatchSink)
	var batch []ipfix.FlowRecord

	for h := opts.From; h < opts.To; h++ {
		var next atomic.Int64
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := s.getResolver()
				for c := int(next.Add(1) - 1); c < nChunks; c = int(next.Add(1) - 1) {
					lo, hi := c*runChunk, min((c+1)*runChunk, len(flows))
					s.runFlows(r, flows[lo:hi], memo[lo:hi], &chunks[c], h)
				}
				r.memo = nil
				s.putResolver(r)
			}()
		}
		wg.Wait()

		s.lbMu.Lock()
		sl := &s.linkBytes[ledgerIndex(h)]
		if sl.row == nil {
			sl.row = make([]float64, len(s.links))
		}
		sl.h = h
		clear(sl.row)
		for c := range chunks {
			for _, ld := range chunks[c].lb {
				sl.row[ld.Link-1] += ld.Frac
			}
		}
		s.lbMu.Unlock()

		if bs != nil {
			batch = batch[:0]
			for c := range chunks {
				batch = append(batch, chunks[c].recs...)
			}
			if len(batch) > 0 {
				bs.RecordBatch(batch)
			}
		} else if opts.Sink != nil {
			for c := range chunks {
				for i := range chunks[c].recs {
					rec := &chunks[c].recs[i]
					opts.Sink.Record(h, wan.LinkID(rec.Ingress), rec)
				}
			}
		}
		if opts.OnHourEnd != nil {
			opts.OnHourEnd(h)
		}
	}
}

// runFlows simulates one chunk of flows for hour h into out, keeping
// each flow's resolutions in its memo entry.
func (s *Sim) runFlows(r *resolver, flows []traffic.FlowSpec, memo []flowMemo, out *chunkOut, h wan.Hour) {
	out.recs, out.lb = out.recs[:0], out.lb[:0]
	for i := range flows {
		f := &flows[i]
		bytes, packets := traffic.VolumeAt(f, s.metros, h)
		if bytes <= 0 {
			continue
		}
		r.memo = &memo[i]
		start := len(out.recs)
		for _, sh := range r.resolveFlow(f, h) {
			b := bytes * sh.Frac
			p := packets * sh.Frac
			out.lb = append(out.lb, LinkShare{Link: sh.Link, Frac: b})
			oct, pkt, ok := s.sampleFlow(f, sh.Link, h, b, p)
			if !ok {
				continue
			}
			out.recs = append(out.recs, ipfix.FlowRecord{
				SrcAddr:   f.SrcAddr,
				DstAddr:   f.DstAddr,
				Octets:    oct,
				Packets:   pkt,
				Ingress:   uint32(sh.Link),
				SrcAS:     uint32(f.SrcAS),
				StartSecs: uint32(h) * 3600,
				EndSecs:   uint32(h)*3600 + 3599,
			})
		}
		// Sort the flow's records by link; at most a handful of
		// shares, insertion sort.
		seg := out.recs[start:]
		for a := 1; a < len(seg); a++ {
			for j := a; j > 0 && seg[j].Ingress < seg[j-1].Ingress; j-- {
				seg[j], seg[j-1] = seg[j-1], seg[j]
			}
		}
	}
}

// sampleFlow applies the router's 1-in-N random packet sampling to
// one (flow, link, hour) byte share, deterministically keyed so the
// result is independent of scheduling. Returns scaled-up estimates,
// matching IPFIX semantics of counts multiplied by the sampling rate.
func (s *Sim) sampleFlow(f *traffic.FlowSpec, link wan.LinkID, h wan.Hour, bytes, packets float64) (uint64, uint64, bool) {
	n := s.cfg.SamplingInterval
	if n <= 1 {
		if bytes <= 0 {
			return 0, 0, false
		}
		return uint64(bytes), uint64(math.Max(1, packets)), true
	}
	key := traffic.Hash(uint64(f.ID)<<32 ^ uint64(link)<<8 ^ uint64(uint32(h)))
	observed := poissonHash(key, packets/float64(n))
	if observed == 0 {
		return 0, 0, false
	}
	scaledPkts := observed * uint64(n)
	bytesPerPkt := bytes / packets
	return uint64(float64(scaledPkts) * bytesPerPkt), scaledPkts, true
}

// poissonHash draws Poisson(lambda) using a counter-mode hash stream,
// so the draw depends only on the key.
func poissonHash(key uint64, lambda float64) uint64 {
	if lambda <= 0 {
		return 0
	}
	u := func(i uint64) float64 {
		return (float64(traffic.Hash(key^(i*0x9e3779b97f4a7c15)) >> 11)) / (1 << 53)
	}
	if lambda > 30 {
		// Normal approximation via Box-Muller.
		u1, u2 := u(1), u(2)
		if u1 < 1e-15 {
			u1 = 1e-15
		}
		z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		v := lambda + math.Sqrt(lambda)*z
		if v < 0 {
			return 0
		}
		return uint64(v + 0.5)
	}
	l := math.Exp(-lambda)
	p := 1.0
	var k, i uint64
	for {
		i++
		p *= u(i)
		if p <= l {
			return k
		}
		k++
	}
}
