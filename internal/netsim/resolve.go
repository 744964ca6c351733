package netsim

import (
	"slices"

	"tipsy/internal/bgp"
	"tipsy/internal/geo"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

// maxWalkDepth bounds the AS-level path length; valley-free chains in
// the generated topologies are at most ~6 hops.
const maxWalkDepth = 10

// resolver holds one goroutine's worth of resolution scratch: a
// per-depth frame of candidate/share buffers plus the walk's visited
// set as a fixed array. Resolution runs millions of times per
// simulated run, and with the scratch reused a steady-state resolve
// performs no heap allocation at all. A resolver is not safe for
// concurrent use; Truth and each of Run's workers draw one from a
// pool.
type resolver struct {
	s        *Sim
	frames   [maxWalkDepth + 2]walkFrame
	visited  [maxWalkDepth + 2]bgp.ASN
	excluded []wan.LinkID
	bad      []wan.LinkID
	conc     []LinkShare
	// decided is how the last walk's source AS chose its exits.
	decided Decided
	// memo, when set, is the flow's one-day memo that resolve reads
	// and fills; nil walks every resolution afresh.
	memo *flowMemo
}

// flowMemo holds one flow's resolutions for one day: its steady split
// and any failover split it needed, keyed by the exclusion set's hash
// (0 for the steady split). Resolutions depend only on (flow, day,
// exclusion set), so a memo never needs invalidating within its day;
// a new day resets it. The first n entries are live; the rest keep
// their buffers for reuse.
type flowMemo struct {
	day     int32 // the memo's day + 1; 0 when empty
	n       int
	entries []memoEntry
}

type memoEntry struct {
	excl  uint64
	split []LinkShare
}

// walkFrame is the scratch of one recursion depth. Buffers at
// different depths never alias, so a parent's candidate list survives
// its children's recursion.
type walkFrame struct {
	cands    []exitCand // direct peering candidates
	tcands   []exitCand // transit hand-off candidates
	inIsland []geo.MetroID
	pairs    []LinkShare // transit pre-merge (link, weighted frac) pairs
	out      []LinkShare // transit merged result
	shares   []LinkShare // ecmp result
}

// Decided names the mechanism that chose a flow's ingress in its
// source AS. The zero value means the flow has no route.
type Decided uint8

const (
	// HotPotato: the source AS used its single cheapest direct exit.
	HotPotato Decided = iota + 1
	// ECMP: two or more near-tie direct exits share the flow.
	ECMP
	// Policy: the source AS handed the flow to transit, lacking a
	// usable direct exit or by its local-exit rule.
	Policy
)

// Truth is where a flow's bytes ingress the WAN at one hour, and why.
type Truth struct {
	// Shares are the ingress links with fractional byte shares summing
	// to 1, empty if the flow has no route (e.g. every reachable link
	// lost the prefix).
	Shares []LinkShare
	// Excluded is the sorted set of links the walk routed around:
	// those down, withdrawn or excluded when the flow reached them.
	Excluded []wan.LinkID
	// Decided is how the source AS chose among its exits.
	Decided Decided
}

// Truth computes where the flow's bytes ingress the WAN at hour h
// under the current announcement and outage state, with the links in
// exclude withdrawn from the flow's prefix as well. The returned
// slices are freshly allocated and owned by the caller. Truth walks
// afresh on every call, with no memo, so it is the oracle for Run's.
//
// Resolution follows the paper's model of reality: each AS along the
// way makes an independent Gao-Rexford choice — direct peer routes
// beat transit, then hot-potato geographic cost with per-(AS, prefix)
// policy noise that re-rolls on that AS's drift schedule, with
// near-tie candidates sharing load (ECMP / flow spraying).
func (s *Sim) Truth(f *traffic.FlowSpec, h wan.Hour, exclude []wan.LinkID) Truth {
	r := s.getResolver()
	t := Truth{Shares: slices.Clone(r.resolveFlow(f, h, exclude))}
	t.Excluded = slices.Clone(r.excluded)
	if len(t.Shares) > 0 {
		t.Decided = r.decided
	}
	s.putResolver(r)
	return t
}

// resolveFlow is Truth's shares against the resolver's scratch and
// memo: it runs the availability-exclusion loop from the flow's steady
// split for h's day and concentrates the surviving split. A link in
// exclude fails the availability test as a withdrawn one does, so
// excluding a link and withdrawing the flow's prefix from it resolve
// alike. The returned slice is only valid until the resolver's next
// call.
func (r *resolver) resolveFlow(f *traffic.FlowSpec, h wan.Hour, exclude []wan.LinkID) []LinkShare {
	s := r.s
	prefix := s.dstPrefix[f.ID]
	day := int32(h.Day())
	r.excluded = r.excluded[:0]
	shares := r.resolve(f, day)
	for iter := 0; iter < 16; iter++ {
		r.bad = r.bad[:0]
		for _, sh := range shares {
			if !s.Available(sh.Link, prefix, h) || containsLink(exclude, sh.Link) {
				r.bad = append(r.bad, sh.Link)
			}
		}
		if len(r.bad) == 0 {
			return r.concentrate(f, h, shares)
		}
		r.excluded = append(r.excluded, r.bad...)
		slices.Sort(r.excluded)
		shares = r.resolve(f, day)
		if len(shares) == 0 {
			return nil
		}
	}
	return nil
}

// concentrateBucketHours is the period of the load-balancing
// schedule: within one bucket a flow rides a single dominant link;
// across buckets the winner rotates according to the steady split.
const concentrateBucketHours = 6

// concentrationFrac is the share of a flow's bytes its current winner
// carries at any instant.
const concentrationFrac = 0.92

// concentrate converts the steady multi-link split into what traffic
// looks like at one instant: mostly on a single winner that rotates
// over multi-hour buckets, with winners drawn proportionally to the
// steady split. The paper observes exactly this — flows touch many
// links across a week (the overall oracle's top-1 is only ~80%), yet
// during a short outage window traffic is concentrated (the
// seen-outage oracle's top-1 is ~95%).
func (r *resolver) concentrate(f *traffic.FlowSpec, h wan.Hour, steady []LinkShare) []LinkShare {
	if len(steady) <= 1 {
		return steady
	}
	bucket := uint64(h) / concentrateBucketHours
	u := float64(traffic.Hash(uint64(f.ID)*0x51b5297f+bucket)>>11) / (1 << 53)
	winner := 0
	cum := 0.0
	for i, sh := range steady {
		cum += sh.Frac
		if u < cum {
			winner = i
			break
		}
	}
	out := slices.Grow(r.conc[:0], len(steady))[:len(steady)]
	rest := 1 - steady[winner].Frac
	for i, sh := range steady {
		if i == winner {
			out[i] = LinkShare{Link: sh.Link, Frac: concentrationFrac}
			continue
		}
		frac := 0.0
		if rest > 0 {
			frac = (1 - concentrationFrac) * sh.Frac / rest
		}
		out[i] = LinkShare{Link: sh.Link, Frac: frac}
	}
	slices.SortFunc(out, func(a, b LinkShare) int {
		if a.Frac != b.Frac {
			if a.Frac > b.Frac {
				return -1
			}
			return 1
		}
		return int(a.Link) - int(b.Link)
	})
	r.conc = out
	return out
}

// resolve returns the flow's normalized split for day with the links
// in r.excluded treated as not carrying the prefix, from the
// resolver's memo when it has the entry. A memoized split stays valid
// for the rest of the day; a walked one only until the next walk.
func (r *resolver) resolve(f *traffic.FlowSpec, day int32) []LinkShare {
	excl := hashLinks(r.excluded)
	m := r.memo
	if m != nil {
		if m.day != day+1 {
			m.day, m.n = day+1, 0
		}
		for i := range m.entries[:m.n] {
			if e := &m.entries[i]; e.excl == excl {
				return e.split
			}
		}
	}
	res := r.walk(f.SrcAS, f.SrcMetro, f, day, r.excluded, excl, 0, 0)
	normalize(res)
	if m == nil {
		return res
	}
	if m.n == len(m.entries) {
		m.entries = append(m.entries, memoEntry{})
	}
	e := &m.entries[m.n]
	m.n++
	e.excl, e.split = excl, append(e.split[:0], res...)
	return e.split
}

// hashLinks summarizes an exclusion set; the empty set hashes to 0,
// which marks steady-state (non-failover) resolution.
func hashLinks(links []wan.LinkID) uint64 {
	if len(links) == 0 {
		return 0
	}
	h := uint64(0x9e3779b97f4a7c15)
	for _, l := range links {
		h = traffic.Hash(h ^ uint64(l))
	}
	return h
}

func normalize(shares []LinkShare) {
	var sum float64
	for _, sh := range shares {
		sum += sh.Frac
	}
	if sum <= 0 {
		return
	}
	for i := range shares {
		shares[i].Frac /= sum
	}
}

// Epoch returns the policy-noise epoch of an AS on a given day. When
// the epoch changes, every noise value the AS contributes re-rolls —
// the "constant change" of Internet routing (§2), and the reason
// trained models go stale (Appendix B). The cloud's own epoch never
// changes.
func (s *Sim) Epoch(asn bgp.ASN, day int32) int32 {
	per := s.driftPer[asn]
	if per <= 0 {
		per = 1 << 30
	}
	return (day + s.driftOff[asn]) / per
}

// salt keys an AS's drifting policy noise by its epoch on day.
func (s *Sim) salt(asn bgp.ASN, day int32) uint64 {
	return traffic.Hash(uint64(asn)<<20 ^ uint64(uint32(s.Epoch(asn, day))))
}

func h2u(h uint64) float64 { return float64(h%4096) / 4096 }

// noiseKm returns the deterministic policy-noise distance an AS adds
// when comparing exit candidates for a flow. The dominant component
// is keyed by (AS, current metro, destination prefix, candidate) —
// BGP selects paths per destination prefix, so flows entering an AS
// at the same place bound for the same prefix share a fate, which is
// what makes the AL feature set work. A small source-prefix component
// models intra-metro diversity (it is why AP retains an edge over
// AL), and a drifting component re-rolls on the AS's drift schedule —
// routing policy changes incrementally, flipping near-tie decisions
// rather than re-shuffling the whole AS.
func (s *Sim) noiseKm(asn bgp.ASN, m geo.MetroID, f *traffic.FlowSpec, candidate uint64, day int32, exclKey uint64) float64 {
	dst := uint64(s.dstPrefix[f.ID].Addr)
	main := uint64(asn)<<40 ^ uint64(m)<<28 ^ dst<<4 ^ candidate
	stable := traffic.Hash(main)
	srcTweak := traffic.Hash(uint64(f.SrcPrefix)<<8 ^ candidate ^ uint64(asn))
	drifting := traffic.Hash(s.salt(asn, day) ^ main)
	u := 0.53*h2u(stable) + 0.15*h2u(srcTweak) + 0.32*h2u(drifting)
	if exclKey != 0 {
		// Re-routing around failed or withdrawn links: BGP path
		// exploration and per-router convergence races make the
		// failover choice less predictable than steady-state
		// selection, though still anchored in geography. The scramble
		// is deterministic in the exclusion set, so an outage that
		// also occurred in training reproduces the same failover —
		// which is exactly why the paper finds seen outages highly
		// predictable and unseen ones hard.
		fo := traffic.Hash(stable ^ exclKey)
		u = 0.70*u + 0.30*h2u(fo)
	}
	return u * s.cfg.NoiseKm
}

type exitCand struct {
	link    wan.LinkID // 0 when the candidate is a transit AS
	via     bgp.ASN
	viaM    geo.MetroID
	cost    float64 // noisy hot-potato cost
	rawCost float64 // geographic distance only
}

// walk resolves the ingress links for a flow currently inside AS asn
// at metro m. excluded links are treated as not carrying the prefix.
// The first vlen entries of r.visited are the ASes already on the
// path. The returned slice lives in this depth's (or a child's)
// frame: callers must copy or fold it before resolving anything else.
func (r *resolver) walk(asn bgp.ASN, m geo.MetroID, f *traffic.FlowSpec, day int32,
	excluded []wan.LinkID, exclKey uint64, vlen, depth int) []LinkShare {
	if depth > maxWalkDepth {
		return nil
	}
	if r.visitedHas(vlen, asn) {
		return nil
	}
	s := r.s
	a, ok := s.g.AS(asn)
	if !ok {
		return nil
	}

	// The island the flow is in constrains which of the AS's own
	// facilities it can reach: fragmented CDNs have no backbone
	// between islands.
	var island []geo.MetroID
	if len(a.Islands) > 1 {
		if idx := a.Island(m); idx >= 0 {
			island = a.Islands[idx]
		}
	}

	fr := &r.frames[depth]
	direct := r.directCandidates(fr, asn, m, island, f, day, excluded, exclKey)

	// Gao-Rexford: the direct (peer) route wins on local-pref —
	// unless this AS prefers local public connectivity and its nearest
	// own exit is a long haul away.
	var shares []LinkShare
	how := Policy
	if len(direct) == 0 || s.localExit[asn] && direct[0].rawCost > s.cfg.LocalExitThresholdKm &&
		r.transitBeats(fr, asn, m, island, f, day, exclKey, vlen, direct[0].rawCost) {
		shares = r.transit(fr, asn, m, island, f, day, excluded, exclKey, vlen, depth)
	}
	if len(shares) == 0 && len(direct) > 0 {
		shares, how = r.ecmpLinks(fr, direct), HotPotato
		if len(shares) > 1 {
			how = ECMP
		}
	}
	if depth == 0 {
		r.decided = how
	}
	return shares
}

func (r *resolver) visitedHas(vlen int, asn bgp.ASN) bool {
	for _, v := range r.visited[:vlen] {
		if v == asn {
			return true
		}
	}
	return false
}

// directCandidates lists the AS's own cloud peering links that carry
// the prefix, with noisy hot-potato costs, sorted cheapest first.
func (r *resolver) directCandidates(fr *walkFrame, asn bgp.ASN, m geo.MetroID, island []geo.MetroID,
	f *traffic.FlowSpec, day int32, excluded []wan.LinkID, exclKey uint64) []exitCand {
	s := r.s
	links := s.linksByAS[asn]
	if len(links) == 0 {
		return nil
	}
	out := fr.cands[:0]
	for _, id := range links {
		if containsLink(excluded, id) {
			continue
		}
		l := s.links[id-1]
		if island != nil && !containsMetro(island, l.Metro) {
			continue
		}
		raw := s.metros.Distance(m, l.Metro)
		cost := raw + s.noiseKm(asn, m, f, uint64(id), day, exclKey)
		out = append(out, exitCand{link: id, cost: cost, rawCost: raw})
	}
	slices.SortFunc(out, func(a, b exitCand) int {
		if a.cost != b.cost {
			if a.cost < b.cost {
				return -1
			}
			return 1
		}
		return int(a.link) - int(b.link)
	})
	fr.cands = out
	return out
}

// ecmpLinks converts the cheapest direct candidates into load-shared
// link fractions: every candidate within EcmpTolKm of the best shares
// traffic, with geometrically decreasing weights.
func (r *resolver) ecmpLinks(fr *walkFrame, cands []exitCand) []LinkShare {
	best := cands[0].cost
	shares := fr.shares[:0]
	w := 1.0
	for _, c := range cands {
		if c.cost > best+r.s.cfg.EcmpTolKm || len(shares) == 3 {
			break
		}
		shares = append(shares, LinkShare{Link: c.link, Frac: w})
		w *= 0.45
	}
	normalize(shares)
	fr.shares = shares
	return shares
}

// transitCands lists the neighbor ASes this AS would hand
// cloud-bound traffic to, cheapest first: providers on shortest
// valley-free chains, with the peer clique as a last resort for
// transit-free networks.
func (r *resolver) transitCands(fr *walkFrame, asn bgp.ASN, m geo.MetroID, island []geo.MetroID,
	f *traffic.FlowSpec, day int32, exclKey uint64, vlen int) []exitCand {
	s := r.s
	d, reach := s.dist[asn]
	out := fr.tcands[:0]
	for _, e := range s.g.Edges(asn) {
		if e.Rel != bgp.RelProvider || r.visitedHas(vlen, e.Neighbor) {
			continue
		}
		nd, ok := s.dist[e.Neighbor]
		if !ok {
			continue
		}
		// Prefer strictly-closer providers; allow equal-distance ones
		// so rerouting after withdrawals still finds a way up.
		if reach && nd > d {
			continue
		}
		out = r.addCand(fr, out, asn, m, island, f, day, exclKey, e.Neighbor, e.Metros)
	}
	if len(out) == 0 {
		// Transit-free networks (tier-1s) whose direct links all lost
		// the prefix fall back to paid-peering arrangements with the
		// rest of the clique.
		for _, e := range s.g.Edges(asn) {
			if e.Rel != bgp.RelPeer || e.Neighbor == s.g.Cloud() || r.visitedHas(vlen, e.Neighbor) {
				continue
			}
			if _, ok := s.dist[e.Neighbor]; !ok {
				continue
			}
			out = r.addCand(fr, out, asn, m, island, f, day, exclKey, e.Neighbor, e.Metros)
		}
	}
	slices.SortFunc(out, func(a, b exitCand) int {
		da, db := s.dist[a.via], s.dist[b.via]
		if da != db {
			return da - db
		}
		if a.cost != b.cost {
			if a.cost < b.cost {
				return -1
			}
			return 1
		}
		return int(a.via) - int(b.via)
	})
	fr.tcands = out
	return out
}

// addCand appends one transit candidate if an interconnection metro
// is reachable.
func (r *resolver) addCand(fr *walkFrame, out []exitCand, asn bgp.ASN, m geo.MetroID, island []geo.MetroID,
	f *traffic.FlowSpec, day int32, exclKey uint64, nb bgp.ASN, metros []geo.MetroID) []exitCand {
	im := r.interconnect(fr, m, island, metros)
	if im == 0 {
		return out
	}
	s := r.s
	raw := s.metros.Distance(m, im)
	cost := raw + s.noiseKm(asn, m, f, uint64(nb)<<24, day, exclKey)
	return append(out, exitCand{via: nb, viaM: im, cost: cost, rawCost: raw})
}

// transitBeats reports whether some transit hand-off is
// geographically closer than rawCost.
func (r *resolver) transitBeats(fr *walkFrame, asn bgp.ASN, m geo.MetroID, island []geo.MetroID,
	f *traffic.FlowSpec, day int32, exclKey uint64, vlen int, rawCost float64) bool {
	for _, c := range r.transitCands(fr, asn, m, island, f, day, exclKey, vlen) {
		if c.rawCost < rawCost {
			return true
		}
	}
	return false
}

// transit recurses into the cheapest transit hand-offs, splitting the
// flow when two hand-offs are near-ties. Branch results are folded as
// (link, weighted frac) pairs and merged with a stable sort by link:
// per-link contributions accumulate in branch order, which keeps the
// floating-point sums bit-identical to the historical map-based merge
// while making the merge order explicit and allocation-free.
func (r *resolver) transit(fr *walkFrame, asn bgp.ASN, m geo.MetroID, island []geo.MetroID,
	f *traffic.FlowSpec, day int32, excluded []wan.LinkID, exclKey uint64, vlen, depth int) []LinkShare {
	s := r.s
	cands := r.transitCands(fr, asn, m, island, f, day, exclKey, vlen)
	if len(cands) == 0 {
		return nil
	}
	r.visited[vlen] = asn
	vlen++

	nBranches := 1
	branch1Weight := 0.0
	if len(cands) > 1 &&
		s.dist[cands[1].via] == s.dist[cands[0].via] &&
		cands[1].cost <= cands[0].cost+s.cfg.EcmpTolKm {
		nBranches = 2
		branch1Weight = 0.45
	}

	pairs := fr.pairs[:0]
	resolvedWeight := 0.0
	for bi := 0; bi < nBranches; bi++ {
		weight := 1.0
		if bi == 1 {
			weight = branch1Weight
		}
		c := cands[bi]
		sub := r.walk(c.via, c.viaM, f, day, excluded, exclKey, vlen, depth+1)
		if len(sub) == 0 {
			continue
		}
		resolvedWeight += weight
		for _, sh := range sub {
			pairs = append(pairs, LinkShare{Link: sh.Link, Frac: sh.Frac * weight})
		}
	}
	fr.pairs = pairs
	if resolvedWeight == 0 {
		// Both preferred branches dead-ended (e.g. the prefix is gone
		// from their links too); try the remaining candidates in
		// order.
		for i := nBranches; i < len(cands); i++ {
			c := cands[i]
			sub := r.walk(c.via, c.viaM, f, day, excluded, exclKey, vlen, depth+1)
			if len(sub) > 0 {
				return sub
			}
		}
		return nil
	}
	slices.SortStableFunc(pairs, func(a, b LinkShare) int {
		return int(a.Link) - int(b.Link)
	})
	out := fr.out[:0]
	for i := 0; i < len(pairs); {
		link := pairs[i].Link
		acc := pairs[i].Frac
		for i++; i < len(pairs) && pairs[i].Link == link; i++ {
			acc += pairs[i].Frac
		}
		out = append(out, LinkShare{Link: link, Frac: acc})
	}
	fr.out = out
	normalize(out)
	return out
}

// interconnect picks where the flow crosses into the neighbor AS: the
// allowed interconnection metro nearest to the flow's current metro.
// Island-bound flows must leave through their island when possible.
func (r *resolver) interconnect(fr *walkFrame, m geo.MetroID, island []geo.MetroID, edgeMetros []geo.MetroID) geo.MetroID {
	if island != nil {
		inIsland := fr.inIsland[:0]
		for _, em := range edgeMetros {
			if containsMetro(island, em) {
				inIsland = append(inIsland, em)
			}
		}
		fr.inIsland = inIsland
		if len(inIsland) > 0 {
			return r.s.metros.Nearest(m, inIsland)
		}
	}
	return r.s.metros.Nearest(m, edgeMetros)
}

func containsLink(set []wan.LinkID, id wan.LinkID) bool {
	for _, l := range set {
		if l == id {
			return true
		}
	}
	return false
}

func containsMetro(set []geo.MetroID, id geo.MetroID) bool {
	for _, m := range set {
		if m == id {
			return true
		}
	}
	return false
}
