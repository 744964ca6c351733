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
// lock, its own slice of the hourly counter maps, and its own slice of
// the metadata join cache, so concurrent ingest only contends when two
// records hash to the same shard. Eight shards keeps per-(shard, hour)
// maps small enough to stay cache-resident at simulator scale while
// covering typical collector fan-in; the drain re-establishes one
// global deterministic order, so shard count never leaks into output.
const (
	aggShardBits = 3
	aggShards    = 1 << aggShardBits
)

// shardOf places a source /24 prefix on a shard. Fibonacci hashing
// spreads the sequential prefixes simulators generate.
func shardOf(prefix uint32) uint32 {
	return (prefix * 0x9E3779B1) >> (32 - aggShardBits)
}

// joinKey identifies one distinct metadata join: everything the
// joined FlowFeatures depends on. Flow records repeat (src, dst, AS)
// combinations constantly, so caching the join skips the Geo-IP and
// metadata lookups on the hot path.
type joinKey struct {
	prefix uint32
	dst    uint32
	as     uint32
}

// aggShard is one lock's worth of aggregator state. Feature tuples
// are interned per shard: join results resolve to a small feature ID,
// and the hourly counters are keyed by the packed (feature ID, link)
// uint64 — integer-keyed map operations are several times cheaper
// than hashing the full feature struct per record. Interning
// deduplicates by feature value, so two joins that land on the same
// feature tuple (different destination addresses with the same
// region and service) share one ID and therefore one accumulator,
// exactly as a struct-keyed map would.
type aggShard struct {
	mu sync.Mutex
	//tipsy:guardedby mu
	join map[joinKey]int32 // -1: destination has no metadata, drop
	// feats maps feature ID back to the tuple; featIndex dedupes
	// tuples on join misses. feats entries are immutable once
	// appended, so a slice header captured under the lock stays
	// valid after release.
	//tipsy:guardedby mu
	feats []features.FlowFeatures
	//tipsy:guardedby mu
	featIndex map[features.FlowFeatures]int32
	//tipsy:guardedby mu
	hours map[wan.Hour]map[uint64]float64
	// curHour/cur cache the last hour's counter map: records arrive
	// in long same-hour runs, so the hours lookup almost always skips.
	//tipsy:guardedby mu
	curHour wan.Hour
	//tipsy:guardedby mu
	cur map[uint64]float64
	// lastKey/lastID memoize the most recent join: batches arrive
	// flow-sorted, so consecutive records usually share the join key.
	//tipsy:guardedby mu
	lastKey joinKey
	//tipsy:guardedby mu
	lastID int32
	//tipsy:guardedby mu
	lastValid bool
}

// counterKey packs an interned feature ID and a link into the hourly
// counter map key.
func counterKey(id int32, link wan.LinkID) uint64 {
	return uint64(uint32(id))<<32 | uint64(uint32(link))
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

	shards [aggShards]aggShard
	// keys counts distinct aggregates across all shards — the drain
	// capacity hint and the pending gauge's source of truth.
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
	a := &Aggregator{
		geoip: geoip, meta: meta,
		m: newAggregatorMetrics(reg),
	}
	for i := range a.shards {
		a.shards[i].join = make(map[joinKey]int32)
		a.shards[i].featIndex = make(map[features.FlowFeatures]int32)
		a.shards[i].hours = make(map[wan.Hour]map[uint64]float64)
	}
	return a
}

// Record ingests one sampled flow record observed during hour h.
// Records whose destination has no metadata are dropped and counted —
// the paper's pipeline likewise only processes flows destined to
// known cloud services.
func (a *Aggregator) Record(h wan.Hour, link wan.LinkID, rec *ipfix.FlowRecord) {
	a.m.raw.Inc()
	prefix := bgp.Slash24(rec.SrcAddr)
	s := &a.shards[shardOf(prefix)]
	s.mu.Lock()
	a.applyLocked(s, h, link, prefix, rec)
	s.mu.Unlock()
}

// batchScratch is RecordBatch's pooled per-call work area: record
// indices grouped by destination shard.
type batchScratch struct {
	idx [aggShards][]int32
}

func (s *batchScratch) assign(sh uint32, i int32) {
	s.idx[sh] = append(s.idx[sh], i)
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// RecordBatch ingests a batch of flow records, deriving the hour from
// each record's start timestamp and the link from its ingress
// interface (the collector fills both from the wire). Records are
// grouped by shard first so each shard lock is taken at most once per
// batch — with ~64-record IPFIX messages that amortizes lock traffic
// roughly an order of magnitude versus per-record Record calls.
// Within a shard, records apply in batch order, so per-key float
// accumulation order — and therefore the drained output — is
// bit-identical to feeding the same stream through Record.
func (a *Aggregator) RecordBatch(recs []ipfix.FlowRecord) {
	if len(recs) == 0 {
		return
	}
	sp := a.tracer.StartFrom(a.traceCtx, "aggregate_batch")
	a.m.raw.Add(uint64(len(recs)))
	sc := scratchPool.Get().(*batchScratch)
	for i := range recs {
		sc.assign(shardOf(bgp.Slash24(recs[i].SrcAddr)), int32(i))
	}
	for si := range sc.idx {
		idx := sc.idx[si]
		if len(idx) == 0 {
			continue
		}
		s := &a.shards[si]
		s.mu.Lock()
		for _, i := range idx {
			rec := &recs[i]
			a.applyLocked(s, wan.Hour(rec.StartSecs/3600), wan.LinkID(rec.Ingress),
				bgp.Slash24(rec.SrcAddr), rec)
		}
		s.mu.Unlock()
		sc.idx[si] = idx[:0]
	}
	scratchPool.Put(sc)
	sp.SetInt("records", int64(len(recs)))
	sp.End()
}

// applyLocked joins and accumulates one record into shard s. The
// caller holds s.mu and has already counted the record as raw.
func (a *Aggregator) applyLocked(s *aggShard, h wan.Hour, link wan.LinkID, prefix uint32, rec *ipfix.FlowRecord) {
	jk := joinKey{prefix: prefix, dst: rec.DstAddr, as: rec.SrcAS}
	var id int32
	if s.lastValid && jk == s.lastKey {
		id = s.lastID
	} else {
		var seen bool
		id, seen = s.join[jk]
		if !seen {
			id = a.joinMiss(s, jk, prefix, rec)
		}
		s.lastKey, s.lastID, s.lastValid = jk, id, true
	}
	if id < 0 {
		a.m.dropped.Inc()
		return
	}
	m := s.cur
	if m == nil || s.curHour != h {
		m = s.hours[h]
		if m == nil {
			m = make(map[uint64]float64)
			s.hours[h] = m
		}
		s.curHour = h
		s.cur = m
	}
	k := counterKey(id, link)
	before := len(m)
	m[k] += float64(rec.Octets)
	if len(m) != before {
		a.m.pending.Set(a.keys.Add(1))
	}
}

// joinMiss performs the metadata and Geo-IP joins for a key not yet
// cached, interns the resulting feature tuple, and records the
// mapping. Returns the feature ID, or -1 when the destination has no
// metadata.
func (a *Aggregator) joinMiss(s *aggShard, jk joinKey, prefix uint32, rec *ipfix.FlowRecord) int32 {
	region, svc, ok := a.meta(rec.DstAddr)
	id := int32(-1)
	if ok {
		f := features.FlowFeatures{
			AS:     bgp.ASN(rec.SrcAS),
			Prefix: prefix,
			Loc:    a.geoip.Lookup(prefix),
			Region: region,
			Type:   svc,
		}
		var have bool
		if id, have = s.featIndex[f]; !have {
			id = int32(len(s.feats))
			s.feats = append(s.feats, f)
			s.featIndex[f] = id
		}
	}
	s.join[jk] = id
	return id
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

// Records drains the aggregator, returning the hourly feature records
// in deterministic order (hour, then feature tuple, then link). All
// shard locks are held together — in shard order, so lock acquisition
// is totally ordered — while the counter maps are swapped out, making
// the drain an atomic snapshot; the merged sort then erases any trace
// of the sharding, so output order is byte-identical to a single-map
// aggregator's. When a truth sink is registered, the drained records
// are also streamed to it in the same order.
//
//tipsy:guardedby-skip every shard lock is taken in a loop before any shard is touched; the must-hold dataflow cannot see this quantified all-shards critical section
func (a *Aggregator) Records() []features.Record {
	sp := a.tracer.StartFrom(a.traceCtx, "drain")
	var hours [aggShards]map[wan.Hour]map[uint64]float64
	var feats [aggShards][]features.FlowFeatures
	for i := range a.shards {
		a.shards[i].mu.Lock()
	}
	for i := range a.shards {
		s := &a.shards[i]
		hours[i] = s.hours
		feats[i] = s.feats
		s.hours = make(map[wan.Hour]map[uint64]float64)
		s.cur = nil
		s.curHour = 0
	}
	total := a.keys.Swap(0)
	a.m.pending.Set(0)
	for i := range a.shards {
		a.shards[i].mu.Unlock()
	}
	// Sort hour by hour: the hour is the leading sort key and
	// aggregate keys are unique, so concatenating per-hour sorted
	// segments is byte-identical to one global sort while the n·log n
	// term pays only for the (much smaller) per-hour record counts.
	var hs []wan.Hour
	seenHour := make(map[wan.Hour]bool)
	for i := range hours {
		for h := range hours[i] {
			if !seenHour[h] {
				seenHour[h] = true
				hs = append(hs, h)
			}
		}
	}
	slices.Sort(hs)
	// Fast path: when every feature tuple packs into two uint64 sort
	// keys (region needs 8 bits; locations and types always fit), the
	// per-hour sort compares integers instead of walking struct
	// fields. Key order is exactly Record.Compare's field order, so both
	// paths emit identical output.
	canPack := true
	for i := range feats {
		for j := range feats[i] {
			if feats[i][j].Region > 0xFF {
				canPack = false
			}
		}
	}
	out := make([]features.Record, 0, total)
	var packed []packedRec
	for _, h := range hs {
		if canPack {
			packed = packed[:0]
			for i := range hours {
				ff := feats[i]
				for k, b := range hours[i][h] {
					f := &ff[k>>32]
					packed = append(packed, packedRec{
						k1: uint64(f.AS)<<32 | uint64(f.Prefix),
						k2: uint64(f.Loc)<<48 | uint64(f.Region)<<40 |
							uint64(f.Type)<<32 | uint64(uint32(k)),
						bytes: b,
					})
				}
			}
			slices.SortFunc(packed, func(a, b packedRec) int {
				if a.k1 != b.k1 {
					return cmp.Compare(a.k1, b.k1)
				}
				return cmp.Compare(a.k2, b.k2)
			})
			for _, p := range packed {
				out = append(out, features.Record{
					Hour: h,
					Flow: features.FlowFeatures{
						AS:     bgp.ASN(p.k1 >> 32),
						Prefix: uint32(p.k1),
						Loc:    geo.MetroID(p.k2 >> 48),
						Region: wan.Region(p.k2 >> 40 & 0xFF),
						Type:   wan.ServiceType(p.k2 >> 32 & 0xFF),
					},
					Link:  wan.LinkID(uint32(p.k2)),
					Bytes: p.bytes,
				})
			}
			continue
		}
		start := len(out)
		for i := range hours {
			ff := feats[i]
			for k, b := range hours[i][h] {
				out = append(out, features.Record{
					Hour:  h,
					Flow:  ff[k>>32],
					Link:  wan.LinkID(uint32(k)),
					Bytes: b,
				})
			}
		}
		slices.SortFunc(out[start:], features.Record.Compare)
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

// packedRec is one drained aggregate with its feature tuple and link
// packed into two integer sort keys (see Records).
type packedRec struct {
	k1, k2 uint64
	bytes  float64
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
