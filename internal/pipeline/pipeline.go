// Package pipeline implements TIPSY's data aggregation stage (§4.2 of
// the paper): IPFIX flow records are joined with network metadata
// (destination region and service type) and Geo-IP (source location),
// aggregated into hour-long chunks indexed by exactly the features
// TIPSY uses, and ordinally encoded. Aggregation merely sums bytes
// per (hour, feature tuple, link), so it loses nothing the models
// need while shrinking the data by orders of magnitude.
package pipeline

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"tipsy/internal/bgp"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/ipfix"
	"tipsy/internal/obsv"
	"tipsy/internal/wan"
)

// Metadata resolves a destination address inside the WAN to its
// region and service type.
type Metadata func(dstAddr uint32) (wan.Region, wan.ServiceType, bool)

// TruthSink receives the ground-truth feature records the aggregator
// drains — the (hour, flow, link, bytes) tuples that say where each
// flow aggregate actually ingressed. The online quality monitor
// implements this to join served predictions against reality; the
// aggregator always knew the actual ingress link of every flow, it
// just never fed it back until now. Records arrive in the same
// deterministic order Records returns them.
type TruthSink interface {
	ObserveTruth(rec features.Record)
}

// The aggregator is sharded by source prefix: each shard owns its own
// lock, its own slot table and its own hourly counter rows, so
// concurrent ingest only contends when two records hash to the same
// shard. Eight shards covers typical collector fan-in; the drain ranks
// (flow, link) pairs globally, so shard count never leaks into output.
const aggShardBits = 3

// slotKey is everything a record's counter slot depends on: the join
// inputs (source /24, destination address, source AS) and the ingress
// link. Flow records repeat these combinations constantly, so one
// lookup on it stands for the metadata and Geo-IP joins and the
// interning of their result.
type slotKey struct {
	prefix, dst, as uint32
	link            wan.LinkID
}

// pair is what a slot counts: a flow aggregate on a link.
type pair struct {
	flow features.FlowFeatures
	link wan.LinkID
}

// hourRow is one shard's counters for one hour: a sum per slot and a
// presence bit per slot. Presence is the bit, not a non-zero sum, so a
// zero-octet record still yields an aggregate.
type hourRow struct {
	hour    wan.Hour
	sum     []float64
	present []uint64
}

// grow extends the row to n slots, rounded up to whole presence words.
// append sizes a new row exactly and doubles one that keeps finding
// new slots, so an hour of a warmed-up shard allocates once.
func (r *hourRow) grow(n int) {
	n = (n + 63) &^ 63
	r.sum = append(r.sum, make([]float64, n-len(r.sum))...)
	r.present = append(r.present, make([]uint64, n/64-len(r.present))...)
}

// aggShard is one lock's worth of aggregator state. Pairs are interned
// per shard to dense slots, and an hour's counters are a row indexed by
// slot. Interning deduplicates by value, so two joins that land on the
// same feature tuple (different destination addresses with the same
// region and service) share one slot and therefore one accumulator,
// exactly as a struct-keyed map would. Slots live as long as the
// aggregator; rows leave with the drain.
type aggShard struct {
	mu sync.Mutex
	//tipsy:guardedby mu
	slots map[slotKey]int32 // -1: destination has no metadata, drop
	// pairs maps a slot back to what it counts; pairIndex dedupes on
	// slots misses. Entries of pairs are immutable once appended, so a
	// slice header captured under the lock stays valid after release.
	//tipsy:guardedby mu
	pairs []pair
	//tipsy:guardedby mu
	pairIndex map[pair]int32
	//tipsy:guardedby mu
	hours map[wan.Hour]*hourRow
	// cur caches the last hour's row: records arrive in long same-hour
	// runs, so the hours lookup almost always skips.
	//tipsy:guardedby mu
	cur *hourRow
}

// aggregatorMetrics are the aggregator's registry-backed counters:
// raw ingested records, records dropped for missing metadata, and a
// gauge tracking how many hourly aggregates are pending drain.
type aggregatorMetrics struct {
	raw     *obsv.Counter
	dropped *obsv.Counter
	pending *obsv.Gauge
}

func newAggregatorMetrics(reg *obsv.Registry) aggregatorMetrics {
	return aggregatorMetrics{
		raw:     reg.Counter("pipeline_records_raw_total"),
		dropped: reg.Counter("pipeline_records_dropped_total"),
		pending: reg.Gauge("pipeline_aggregates_pending"),
	}
}

// Aggregator consumes IPFIX flow records and produces hourly
// aggregated feature records. It implements netsim.RecordSink and
// netsim.BatchSink. Safe for concurrent use; ingest is sharded by
// source prefix so concurrent callers rarely share a lock.
//
// The Geo-IP database and Metadata func are treated as immutable
// mappings for the aggregator's lifetime — join results are cached.
type Aggregator struct {
	geoip *geo.GeoIP
	meta  Metadata

	shards     []aggShard
	shardShift uint32
	// keys counts distinct aggregates across all shards — the drain
	// capacity hint and the pending gauge's source of truth. Ingest
	// publishes to it once per shard visit, before releasing the shard
	// lock.
	keys atomic.Int64
	m    aggregatorMetrics

	truthMu sync.Mutex
	//tipsy:guardedby truthMu
	truth TruthSink

	// tracer + traceCtx attach the aggregator's spans (aggregate_batch,
	// drain, truth_join) to the ingest cycle's trace. Set via SetTrace
	// before ingest begins; the nil tracer / zero context default
	// disables span emission at the cost of one nil check per batch.
	//tipsy:nolock set via SetTrace before ingest begins, constant after
	tracer *obsv.Tracer
	//tipsy:nolock set via SetTrace before ingest begins, constant after
	traceCtx obsv.SpanContext
}

// NewAggregator builds an aggregator joining against the given Geo-IP
// database and destination metadata, with a private metrics registry.
func NewAggregator(geoip *geo.GeoIP, meta Metadata) *Aggregator {
	return NewAggregatorOn(obsv.NewRegistry(), geoip, meta)
}

// NewAggregatorOn builds an aggregator whose counters live in reg
// under the pipeline_ prefix.
func NewAggregatorOn(reg *obsv.Registry, geoip *geo.GeoIP, meta Metadata) *Aggregator {
	return newAggregator(reg, geoip, meta, aggShardBits)
}

// newAggregator is NewAggregatorOn with 1<<shardBits shards; tests
// sweep the shard count through it.
func newAggregator(reg *obsv.Registry, geoip *geo.GeoIP, meta Metadata, shardBits uint32) *Aggregator {
	a := &Aggregator{
		geoip: geoip, meta: meta,
		shards:     make([]aggShard, 1<<shardBits),
		shardShift: 32 - shardBits,
		m:          newAggregatorMetrics(reg),
	}
	for i := range a.shards {
		s := &a.shards[i]
		s.slots = make(map[slotKey]int32)
		s.pairIndex = make(map[pair]int32)
		s.hours = make(map[wan.Hour]*hourRow)
	}
	return a
}

// shardOf places a source /24 prefix on a shard. Fibonacci hashing
// spreads the sequential prefixes simulators generate. (The uint64
// shift makes a one-shard aggregator's shift of 32 yield 0.)
func (a *Aggregator) shardOf(prefix uint32) uint32 {
	return uint32(uint64(prefix*0x9E3779B1) >> a.shardShift)
}

// Record ingests one sampled flow record observed during hour h.
// Records whose destination has no metadata are dropped and counted —
// the paper's pipeline likewise only processes flows destined to
// known cloud services.
func (a *Aggregator) Record(h wan.Hour, link wan.LinkID, rec *ipfix.FlowRecord) {
	a.m.raw.Inc()
	prefix := bgp.Slash24(rec.SrcAddr)
	s := &a.shards[a.shardOf(prefix)]
	s.mu.Lock()
	a.publish(a.applyLocked(s, h, link, prefix, rec))
	s.mu.Unlock()
}

// publish adds newly created aggregates to the pending count. Callers
// hold the lock of the shard that created them, so a drain, which holds
// every shard lock, never takes an aggregate it does not count.
func (a *Aggregator) publish(fresh int64) {
	if fresh != 0 {
		a.m.pending.Set(a.keys.Add(fresh))
	}
}

// scratchPool holds RecordBatch's per-call work area: record indices
// grouped by destination shard.
var scratchPool = sync.Pool{New: func() any { return new([][]int32) }}

// RecordBatch ingests a batch of flow records, deriving the hour from
// each record's start timestamp and the link from its ingress
// interface (the collector fills both from the wire). Records are
// grouped by shard first so each shard lock is taken, and the pending
// count published, at most once per batch — with ~64-record IPFIX
// messages that amortizes both roughly an order of magnitude versus
// per-record Record calls. Within a shard, records apply in batch
// order, so per-key float accumulation order — and therefore the
// drained output — is bit-identical to feeding the same stream
// through Record.
func (a *Aggregator) RecordBatch(recs []ipfix.FlowRecord) {
	if len(recs) == 0 {
		return
	}
	sp := a.tracer.StartFrom(a.traceCtx, "aggregate_batch")
	a.m.raw.Add(uint64(len(recs)))
	sc := scratchPool.Get().(*[][]int32)
	if len(*sc) < len(a.shards) {
		*sc = append(*sc, make([][]int32, len(a.shards)-len(*sc))...)
	}
	byShard := *sc
	for i := range recs {
		sh := a.shardOf(bgp.Slash24(recs[i].SrcAddr))
		byShard[sh] = append(byShard[sh], int32(i))
	}
	for si := range a.shards {
		idx := byShard[si]
		if len(idx) == 0 {
			continue
		}
		s := &a.shards[si]
		var fresh int64
		s.mu.Lock()
		for _, i := range idx {
			rec := &recs[i]
			fresh += a.applyLocked(s, wan.Hour(rec.StartSecs/3600), wan.LinkID(rec.Ingress),
				bgp.Slash24(rec.SrcAddr), rec)
		}
		a.publish(fresh)
		s.mu.Unlock()
		byShard[si] = idx[:0]
	}
	scratchPool.Put(sc)
	sp.SetInt("records", int64(len(recs)))
	sp.End()
}

// applyLocked joins and accumulates one record into shard s and
// reports how many aggregates that created (0 or 1). The caller holds
// s.mu and has already counted the record as raw.
func (a *Aggregator) applyLocked(s *aggShard, h wan.Hour, link wan.LinkID, prefix uint32, rec *ipfix.FlowRecord) int64 {
	k := slotKey{prefix: prefix, dst: rec.DstAddr, as: rec.SrcAS, link: link}
	slot, seen := s.slots[k]
	if !seen {
		slot = a.slotMiss(s, k)
	}
	if slot < 0 {
		a.m.dropped.Inc()
		return 0
	}
	row := s.cur
	if row == nil || row.hour != h {
		if row = s.hours[h]; row == nil {
			row = &hourRow{hour: h}
			s.hours[h] = row
		}
		s.cur = row
	}
	if int(slot) >= len(row.sum) {
		row.grow(len(s.pairs))
	}
	row.sum[slot] += float64(rec.Octets)
	w := &row.present[slot>>6]
	fresh := int64(^*w >> (slot & 63) & 1)
	*w |= 1 << (slot & 63)
	return fresh
}

// slotMiss performs the metadata and Geo-IP joins for a key not yet
// cached, interns the resulting pair, and records the mapping. Returns
// the slot, or -1 when the destination has no metadata.
func (a *Aggregator) slotMiss(s *aggShard, k slotKey) int32 {
	region, svc, ok := a.meta(k.dst)
	slot := int32(-1)
	if ok {
		p := pair{link: k.link, flow: features.FlowFeatures{
			AS:     bgp.ASN(k.as),
			Prefix: k.prefix,
			Loc:    a.geoip.Lookup(k.prefix),
			Region: region,
			Type:   svc,
		}}
		var have bool
		if slot, have = s.pairIndex[p]; !have {
			slot = int32(len(s.pairs))
			s.pairs = append(s.pairs, p)
			s.pairIndex[p] = slot
		}
	}
	s.slots[k] = slot
	return slot
}

// SetTruthSink registers a sink that receives every drained record as
// ground truth. Set it before the drain whose records it should see.
func (a *Aggregator) SetTruthSink(ts TruthSink) {
	a.truthMu.Lock()
	a.truth = ts
	a.truthMu.Unlock()
}

// SetTrace attaches the aggregator's spans to the given trace
// context. Call before ingest begins; a nil tracer or zero context
// disables tracing entirely.
func (a *Aggregator) SetTrace(t *obsv.Tracer, sc obsv.SpanContext) {
	a.tracer = t
	a.traceCtx = sc
}

// drainedShard is what the drain takes from one shard under its lock:
// the hour rows (the shard starts over with none) and the slot table
// as it stood.
type drainedShard struct {
	hours map[wan.Hour]*hourRow
	pairs []pair
	base  int // index of the shard's slot 0 in the drain's rank table
}

// rankedPair is a pair with the rank-table index of its slot.
type rankedPair struct {
	pair
	at int32
}

// Records drains the aggregator, returning the hourly feature records
// in deterministic order (hour, then feature tuple, then link). All
// shard locks are held together — in shard order, so lock acquisition
// is totally ordered — while the hour rows are swapped out, making the
// drain an atomic snapshot.
//
// Hours of one window carry mostly the same (flow, link) pairs, so the
// drain orders pairs, not records: the slots of all shards are sorted
// once by flow then link (a pair lives on exactly one shard, so there
// are no ties and no trace of the sharding), each gets its rank, and an
// hour is emitted by scattering its present slots into a rank-indexed
// bitset and value array and sweeping the bitset. The output is
// byte-identical to a single-map aggregator's sorted by
// features.Record.Compare. When a truth sink is registered, the
// drained records are also streamed to it in the same order.
//
//tipsy:guardedby-skip every shard lock is taken in a loop before any shard is touched; the must-hold dataflow cannot see this quantified all-shards critical section
func (a *Aggregator) Records() []features.Record {
	sp := a.tracer.StartFrom(a.traceCtx, "drain")
	drained := make([]drainedShard, len(a.shards))
	for i := range a.shards {
		a.shards[i].mu.Lock()
	}
	nslots, nrows := 0, 0
	for i := range a.shards {
		s := &a.shards[i]
		drained[i] = drainedShard{hours: s.hours, pairs: s.pairs, base: nslots}
		nslots += len(s.pairs)
		nrows += len(s.hours)
		s.hours = make(map[wan.Hour]*hourRow)
		s.cur = nil
	}
	total := a.keys.Swap(0)
	a.m.pending.Set(0)
	for i := range a.shards {
		a.shards[i].mu.Unlock()
	}

	order := make([]rankedPair, 0, nslots)
	hs := make([]wan.Hour, 0, nrows)
	for i := range drained {
		d := &drained[i]
		for slot, p := range d.pairs {
			order = append(order, rankedPair{p, int32(d.base + slot)})
		}
		for h := range d.hours {
			hs = append(hs, h)
		}
	}
	slices.SortFunc(order, func(p, q rankedPair) int {
		return cmp.Or(p.flow.Compare(q.flow), cmp.Compare(p.link, q.link))
	})
	rank := make([]int32, nslots)
	for r := range order {
		rank[order[r].at] = int32(r)
	}
	slices.Sort(hs)
	hs = slices.Compact(hs)

	mark := make([]uint64, (nslots+63)/64) // the ranks present in the hour being emitted
	vals := make([]float64, nslots)        // their sums, by rank
	out := make([]features.Record, 0, total)
	for _, h := range hs {
		for i := range drained {
			d := &drained[i]
			row := d.hours[h]
			if row == nil {
				continue
			}
			for w, word := range row.present {
				for ; word != 0; word &= word - 1 {
					slot := w<<6 + bits.TrailingZeros64(word)
					r := rank[d.base+slot]
					mark[r>>6] |= 1 << (r & 63)
					vals[r] = row.sum[slot]
				}
			}
		}
		for w, word := range mark {
			for ; word != 0; word &= word - 1 {
				r := w<<6 + bits.TrailingZeros64(word)
				out = append(out, features.Record{Hour: h, Flow: order[r].flow, Link: order[r].link, Bytes: vals[r]})
			}
			mark[w] = 0
		}
	}

	a.truthMu.Lock()
	truth := a.truth
	a.truthMu.Unlock()
	if truth != nil {
		tj := a.tracer.StartChild(sp, "truth_join")
		for i := range out {
			truth.ObserveTruth(out[i])
		}
		tj.SetInt("records", int64(len(out)))
		tj.End()
	}
	sp.SetInt("records", int64(len(out)))
	sp.End()
	return out
}

// Stats reports how many raw records were ingested, how many were
// dropped for missing metadata, and how many aggregates are pending.
func (a *Aggregator) Stats() (raw, dropped, pending int) {
	return int(a.m.raw.Value()), int(a.m.dropped.Value()), int(a.keys.Load())
}

// Encoded compresses feature records with ordinal dictionaries — the
// §4.2 compression step. It exists to quantify the size reduction
// (EncodedSize) and to exercise the dictionary path end to end.
type Encoded struct {
	AS, Prefix, Loc, Region, Type features.Dict
	Rows                          []EncodedRow
}

// EncodedRow is one dictionary-encoded aggregate.
type EncodedRow struct {
	Hour                          wan.Hour
	AS, Prefix, Loc, Region, Type uint32
	Link                          wan.LinkID
	Bytes                         float64
}

// Encode dictionary-encodes the records. A record whose flow and link
// also occur in the preceding hour (most records of a drained window)
// takes its five codes from that row; the rest go through the
// dictionaries, which therefore see every value in the same first
// order as if all did.
func Encode(recs []features.Record) *Encoded {
	e := &Encoded{Rows: make([]EncodedRow, len(recs))}
	runs := features.NewRunCursor(recs)
	for i := range recs {
		r := &recs[i]
		if j := runs.Match(i); j >= 0 {
			e.Rows[i] = e.Rows[j]
			e.Rows[i].Hour, e.Rows[i].Bytes = r.Hour, r.Bytes
			continue
		}
		e.Rows[i] = EncodedRow{
			Hour:   r.Hour,
			AS:     e.AS.Code(uint64(r.Flow.AS)),
			Prefix: e.Prefix.Code(uint64(r.Flow.Prefix)),
			Loc:    e.Loc.Code(uint64(r.Flow.Loc)),
			Region: e.Region.Code(uint64(r.Flow.Region)),
			Type:   e.Type.Code(uint64(r.Flow.Type)),
			Link:   r.Link,
			Bytes:  r.Bytes,
		}
	}
	return e
}

// Decode reverses Encode.
func (e *Encoded) Decode() []features.Record {
	out := make([]features.Record, len(e.Rows))
	for i, row := range e.Rows {
		as, _ := e.AS.Value(row.AS)
		prefix, _ := e.Prefix.Value(row.Prefix)
		loc, _ := e.Loc.Value(row.Loc)
		region, _ := e.Region.Value(row.Region)
		typ, _ := e.Type.Value(row.Type)
		out[i] = features.Record{
			Hour: row.Hour,
			Flow: features.FlowFeatures{
				AS:     bgp.ASN(as),
				Prefix: uint32(prefix),
				Loc:    geo.MetroID(loc),
				Region: wan.Region(region),
				Type:   wan.ServiceType(typ),
			},
			Link:  row.Link,
			Bytes: row.Bytes,
		}
	}
	return out
}
