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
	"math"
	"math/bits"
	"slices"
	"sync"

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

// keyOf packs everything a record's counter slot depends on into an
// index key's two words: the source /24 and destination address, then
// the source AS and ingress link. Flow records repeat these
// combinations constantly, so one lookup on it stands for the metadata
// and Geo-IP joins and the interning of their result.
func keyOf(prefix, dst, as uint32, link wan.LinkID) features.Key {
	return features.Key{A: uint64(prefix)<<32 | uint64(dst), B: uint64(as)<<32 | uint64(link)}
}

// pair is what a slot counts: a flow aggregate on a link.
type pair struct {
	flow features.FlowFeatures
	link wan.LinkID
}

// hourRow is the counters for one hour: a sum per slot and a presence
// bit per slot. Presence is the bit, not a non-zero sum, so a
// zero-octet record still yields an aggregate.
type hourRow struct {
	hour    wan.Hour
	sum     []float64
	present []uint64
}

// grow extends the row to n slots, rounded up to whole presence words.
// append sizes a new row exactly and doubles one that keeps finding
// new slots, so an hour of a warmed-up aggregator allocates once.
func (r *hourRow) grow(n int) {
	n = (n + 63) &^ 63
	r.sum = append(r.sum, make([]float64, n-len(r.sum))...)
	r.present = append(r.present, make([]uint64, n/64-len(r.present))...)
}

// dropSlot is the slot of a key whose destination has no metadata.
const dropSlot = math.MaxInt32

// indexMinKeys sizes a fresh index here: 1,024 cells, 24 KiB.
const indexMinKeys = 512

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
// netsim.BatchSink. Safe for concurrent use: one mutex guards the
// table, and a batch takes it once.
//
// The Geo-IP database and Metadata func are treated as immutable
// mappings for the aggregator's lifetime — join results are cached.
type Aggregator struct {
	geoip *geo.GeoIP
	meta  Metadata
	m     aggregatorMetrics

	// Pairs are interned to dense slots through features.Index, and an
	// hour's counters are a row indexed by slot. Interning deduplicates
	// by value, so two joins that land on the same feature tuple
	// (different destination addresses with the same region and
	// service) share one slot and therefore one accumulator, exactly as
	// a struct-keyed map would. Slots live as long as the aggregator;
	// rows leave with the drain.
	mu sync.Mutex
	//tipsy:guardedby mu
	index features.Index
	// pairs maps a slot back to what it counts; pairIndex dedupes on
	// index misses by flow and link. Entries of pairs are immutable once
	// appended, so a slice header captured under the lock stays valid
	// after release.
	//tipsy:guardedby mu
	pairs []pair
	//tipsy:guardedby mu
	pairIndex features.Index
	//tipsy:guardedby mu
	hours map[wan.Hour]*hourRow
	// cur caches the last hour's row: records arrive in long same-hour
	// runs, so the hours lookup almost always skips.
	//tipsy:guardedby mu
	cur *hourRow
	// keys counts the aggregates pending drain — the drain's capacity
	// hint and the pending gauge's source of truth.
	//tipsy:guardedby mu
	keys int

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
	return &Aggregator{
		geoip: geoip, meta: meta,
		m:         newAggregatorMetrics(reg),
		index:     features.NewIndex(indexMinKeys),
		pairIndex: features.NewIndex(indexMinKeys),
		hours:     make(map[wan.Hour]*hourRow),
	}
}

// Record ingests one sampled flow record observed during hour h.
// Records whose destination has no metadata are dropped and counted —
// the paper's pipeline likewise only processes flows destined to
// known cloud services.
func (a *Aggregator) Record(h wan.Hour, link wan.LinkID, rec *ipfix.FlowRecord) {
	a.m.raw.Inc()
	a.mu.Lock()
	a.publishLocked(a.applyLocked(h, link, rec))
	a.mu.Unlock()
}

// publishLocked adds newly created aggregates to the pending count.
// Callers hold mu, so a drain never takes an aggregate it does not
// count.
func (a *Aggregator) publishLocked(fresh int) {
	if fresh != 0 {
		a.keys += fresh
		a.m.pending.Set(int64(a.keys))
	}
}

// RecordBatch ingests a batch of flow records, deriving the hour from
// each record's start timestamp and the link from its ingress
// interface (the collector fills both from the wire). The lock is
// taken, and the pending count published, once per batch — with
// ~64-record IPFIX messages that amortizes both over the message.
// Records apply in batch order, so per-key float accumulation order —
// and therefore the drained output — is bit-identical to feeding the
// same stream through Record.
func (a *Aggregator) RecordBatch(recs []ipfix.FlowRecord) {
	if len(recs) == 0 {
		return
	}
	sp := a.tracer.StartFrom(a.traceCtx, "aggregate_batch")
	a.m.raw.Add(uint64(len(recs)))
	fresh := 0
	a.mu.Lock()
	for i := range recs {
		rec := &recs[i]
		fresh += a.applyLocked(wan.Hour(rec.StartSecs/3600), wan.LinkID(rec.Ingress), rec)
	}
	a.publishLocked(fresh)
	a.mu.Unlock()
	sp.SetInt("records", int64(len(recs)))
	sp.End()
}

// applyLocked joins and accumulates one record and reports how many
// aggregates that created (0 or 1). The caller holds mu and has already
// counted the record as raw.
func (a *Aggregator) applyLocked(h wan.Hour, link wan.LinkID, rec *ipfix.FlowRecord) int {
	prefix := bgp.Slash24(rec.SrcAddr)
	k := keyOf(prefix, rec.DstAddr, rec.SrcAS, link)
	slot, ok := a.index.Find(k)
	if !ok {
		slot = a.slotMiss(prefix, link, rec)
		a.index.Intern(k, slot)
	}
	if slot == dropSlot {
		a.m.dropped.Inc()
		return 0
	}
	row := a.cur
	if row == nil || row.hour != h {
		if row = a.hours[h]; row == nil {
			row = &hourRow{hour: h}
			a.hours[h] = row
		}
		a.cur = row
	}
	if int(slot) >= len(row.sum) {
		row.grow(len(a.pairs))
	}
	row.sum[slot] += float64(rec.Octets)
	w := &row.present[slot>>6]
	fresh := int(^*w >> (slot & 63) & 1)
	*w |= 1 << (slot & 63)
	return fresh
}

// slotMiss performs the metadata and Geo-IP joins for a key the index
// does not hold and interns the resulting pair. Returns the slot, or
// dropSlot when the destination has no metadata.
func (a *Aggregator) slotMiss(prefix uint32, link wan.LinkID, rec *ipfix.FlowRecord) int32 {
	region, svc, ok := a.meta(rec.DstAddr)
	if !ok {
		return dropSlot
	}
	p := pair{link: link, flow: features.FlowFeatures{
		AS:     bgp.ASN(rec.SrcAS),
		Prefix: prefix,
		Loc:    a.geoip.Lookup(prefix),
		Region: region,
		Type:   svc,
	}}
	slot, have := a.pairIndex.Intern(p.flow.Key(link), int32(len(a.pairs)))
	if !have {
		a.pairs = append(a.pairs, p)
	}
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

// rankedPair is a pair with its slot.
type rankedPair struct {
	pair
	slot int32
}

// Records drains the aggregator, returning the hourly feature records
// in deterministic order (hour, then feature tuple, then link). The
// hour rows are swapped out under the lock, so the drain is an atomic
// snapshot, and everything after runs without it.
//
// Hours of one window carry mostly the same (flow, link) pairs, so the
// drain orders pairs, not records: the slots are sorted once by flow
// then link (pairs are interned by value, so there are no ties), each
// gets its rank, and an hour is emitted by scattering its present
// slots into a rank-indexed bitset and value array and sweeping the
// bitset. The output is byte-identical to a single-map aggregator's
// sorted by features.Record.Compare. When a truth sink is registered,
// the drained records are also streamed to it in the same order.
func (a *Aggregator) Records() []features.Record {
	sp := a.tracer.StartFrom(a.traceCtx, "drain")
	a.mu.Lock()
	hours, pairs, total := a.hours, a.pairs, a.keys
	a.hours, a.cur, a.keys = make(map[wan.Hour]*hourRow), nil, 0
	a.m.pending.Set(0)
	a.mu.Unlock()

	order := make([]rankedPair, len(pairs))
	for slot, p := range pairs {
		order[slot] = rankedPair{p, int32(slot)}
	}
	slices.SortFunc(order, func(p, q rankedPair) int {
		return cmp.Or(p.flow.Compare(q.flow), cmp.Compare(p.link, q.link))
	})
	rank := make([]int32, len(pairs))
	for r := range order {
		rank[order[r].slot] = int32(r)
	}
	rows := make([]*hourRow, 0, len(hours))
	for _, row := range hours {
		rows = append(rows, row)
	}
	slices.SortFunc(rows, func(p, q *hourRow) int { return cmp.Compare(p.hour, q.hour) })

	mark := make([]uint64, (len(pairs)+63)/64) // the ranks present in the hour being emitted
	vals := make([]float64, len(pairs))        // their sums, by rank
	out := make([]features.Record, 0, total)
	for _, row := range rows {
		for w, word := range row.present {
			for ; word != 0; word &= word - 1 {
				slot := w<<6 + bits.TrailingZeros64(word)
				r := rank[slot]
				mark[r>>6] |= 1 << (r & 63)
				vals[r] = row.sum[slot]
			}
		}
		for w, word := range mark {
			for ; word != 0; word &= word - 1 {
				r := w<<6 + bits.TrailingZeros64(word)
				out = append(out, features.Record{Hour: row.hour, Flow: order[r].flow, Link: order[r].link, Bytes: vals[r]})
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
	a.mu.Lock()
	pending = a.keys
	a.mu.Unlock()
	return int(a.m.raw.Value()), int(a.m.dropped.Value()), pending
}

// Encoded compresses feature records with ordinal dictionaries — the
// §4.2 compression step. A window repeats each (flow, link) pair in
// every hour it carries bytes, so the pair is stored once: Pairs holds
// each distinct pair's five dictionary codes and its link in
// first-seen order, and a row is the hour, the pair's index and the
// bytes — 16 bytes against a features.Record's 32. On the medium env's
// 1,553,179-record training window (14,533 pairs), Encode allocates
// 18.3 bytes per row, pair table, dictionaries and maps included (root
// BenchmarkEncode's B/row), 57 % of the window it encodes.
type Encoded struct {
	AS, Prefix, Loc, Region, Type features.Dict
	Pairs                         []EncodedPair
	Rows                          []EncodedRow
}

// EncodedPair is one distinct (flow, link) pair: the dictionary codes
// of its five features, and its link.
type EncodedPair struct {
	AS, Prefix, Loc, Region, Type uint32
	Link                          wan.LinkID
}

// EncodedRow is one dictionary-encoded aggregate: Bytes of pair
// Pairs[Pair] during Hour.
type EncodedRow struct {
	Hour  wan.Hour
	Pair  uint32
	Bytes float64
}

// Encode dictionary-encodes the records. Each record finds its pair
// by one features.Index lookup on its flow and link, and only a pair
// not seen before goes through the dictionaries, which therefore see
// every value in the same first order as if all records did.
func Encode(recs []features.Record) *Encoded {
	e := &Encoded{Rows: make([]EncodedRow, len(recs))}
	index := features.NewIndex(indexMinKeys)
	for i := range recs {
		r := &recs[i]
		k := r.Flow.Key(r.Link)
		p, ok := index.Find(k)
		if !ok {
			p, _ = index.Intern(k, int32(len(e.Pairs)))
			e.Pairs = append(e.Pairs, EncodedPair{
				AS:     e.AS.Code(uint64(r.Flow.AS)),
				Prefix: e.Prefix.Code(uint64(r.Flow.Prefix)),
				Loc:    e.Loc.Code(uint64(r.Flow.Loc)),
				Region: e.Region.Code(uint64(r.Flow.Region)),
				Type:   e.Type.Code(uint64(r.Flow.Type)),
				Link:   r.Link,
			})
		}
		e.Rows[i] = EncodedRow{Hour: r.Hour, Pair: uint32(p), Bytes: r.Bytes}
	}
	return e
}

// Decode reverses Encode. Each pair is decoded once, and every row
// copies its pair's flow and link.
func (e *Encoded) Decode() []features.Record {
	pairs := make([]pair, len(e.Pairs))
	for i, p := range e.Pairs {
		as, _ := e.AS.Value(p.AS)
		prefix, _ := e.Prefix.Value(p.Prefix)
		loc, _ := e.Loc.Value(p.Loc)
		region, _ := e.Region.Value(p.Region)
		typ, _ := e.Type.Value(p.Type)
		pairs[i] = pair{link: p.Link, flow: features.FlowFeatures{
			AS:     bgp.ASN(as),
			Prefix: uint32(prefix),
			Loc:    geo.MetroID(loc),
			Region: wan.Region(region),
			Type:   wan.ServiceType(typ),
		}}
	}
	out := make([]features.Record, len(e.Rows))
	for i, row := range e.Rows {
		p := &pairs[row.Pair]
		out[i] = features.Record{Hour: row.Hour, Flow: p.flow, Link: p.link, Bytes: row.Bytes}
	}
	return out
}
