// Package netsim binds the topology, BGP policy, geography, and
// traffic substrates into a running Internet+WAN simulator. It is the
// stand-in for the production environment the paper measures: it
// resolves, for every flow and hour, which peering links the flow's
// bytes ingress on — honouring anycast advertisement state, per-AS
// Gao-Rexford route selection, hot-potato (geographic) tie-breaking
// with slowly drifting policy noise, ECMP-style load balancing, CDN
// island fragmentation, link outages, and BGP prefix withdrawals —
// and it emits IPFIX telemetry from the edge routers exactly where
// the production WAN would.
package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"tipsy/internal/bgp"
	"tipsy/internal/geo"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

// Config holds the simulator's behavioural knobs.
type Config struct {
	Seed int64
	// SamplingInterval is the IPFIX packet sampling rate (paper:
	// 1 out of 4096).
	SamplingInterval uint32
	// OutagesPerLinkYear is the Poisson rate of peering link outages.
	OutagesPerLinkYear float64
	// HorizonHours bounds the outage schedule.
	HorizonHours wan.Hour
	// NoiseKm scales the per-(AS, prefix) policy noise added to
	// hot-potato distances.
	NoiseKm float64
	// EcmpTolKm is the cost tolerance within which candidate exits
	// share traffic (load balancing).
	EcmpTolKm float64
	// LocalExitFraction is the share of multi-metro ASes that prefer
	// nearby public connectivity over hauling traffic across their
	// own backbone (§2: "routing policies to avoid the use of their
	// private long-haul links").
	LocalExitFraction float64
	// LocalExitThresholdKm is how far an AS with local-exit policy is
	// willing to haul traffic to its own direct peering before
	// handing it to transit.
	LocalExitThresholdKm float64
	// DriftMinDays/DriftMaxDays bound each AS's policy re-roll
	// period; shorter periods mean faster model staleness.
	DriftMinDays, DriftMaxDays int
	// GeoErrRate is the Geo-IP database error rate.
	GeoErrRate float64
}

// DefaultConfig returns the simulator configuration used by the
// experiment harness.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:                 seed,
		SamplingInterval:     4096,
		OutagesPerLinkYear:   1.6,
		HorizonHours:         24 * 40,
		NoiseKm:              420,
		EcmpTolKm:            70,
		LocalExitFraction:    0.35,
		LocalExitThresholdKm: 2500,
		DriftMinDays:         5,
		DriftMaxDays:         21,
		GeoErrRate:           0.02,
	}
}

// LinkShare is one component of a flow's ingress resolution: Frac of
// the flow's bytes arrive on Link.
type LinkShare struct {
	Link wan.LinkID
	Frac float64
}

type wdKey struct {
	link   wan.LinkID
	prefix bgp.Prefix
}

// Sim is a running simulation. Methods are safe for concurrent use
// unless noted.
type Sim struct {
	cfg    Config
	g      *topology.Graph
	metros *geo.DB
	geoip  *geo.GeoIP
	w      *traffic.Workload

	links     []wan.Link   // index = LinkID-1
	linkIDs   []wan.LinkID // 1..len(links), what Links hands out
	linksByAS map[bgp.ASN][]wan.LinkID
	dist      map[bgp.ASN]int
	localExit map[bgp.ASN]bool
	driftPer  map[bgp.ASN]int32
	driftOff  map[bgp.ASN]int32
	outages   *OutageSchedule
	dstPrefix []bgp.Prefix // per flow ID
	meta      map[uint32]dstMeta

	mu sync.RWMutex
	//tipsy:guardedby mu
	withdrawn map[wdKey]bool
	// anyWithdrawn lets Available skip the read lock entirely in the
	// common no-withdrawals state.
	anyWithdrawn atomic.Bool

	// resolvers pools resolution scratch for ResolveFlow and Run's
	// workers. runMu serializes Run calls, which own each flow's
	// one-day memo (indexed by flow ID) and each chunk's output.
	resolvers sync.Pool
	runMu     sync.Mutex
	//tipsy:guardedby runMu
	memo []flowMemo
	//tipsy:guardedby runMu
	chunks []chunkOut

	// linkBytes is ground-truth per-link ingress volume for the last
	// ledgerHours simulated hours, filled in by Run; slot h%ledgerHours
	// holds hour h.
	lbMu sync.Mutex
	//tipsy:guardedby lbMu
	linkBytes [ledgerHours]ledgerSlot
}

// ledgerHours is how much ground truth Sim keeps: one week, more than
// any reader looks back.
const ledgerHours = 168

// ledgerSlot is one hour's ground truth; row is nil until written.
type ledgerSlot struct {
	h   wan.Hour
	row []float64
}

type dstMeta struct {
	region wan.Region
	svc    wan.ServiceType
}

// New builds a simulator over the given topology and workload.
func New(cfg Config, g *topology.Graph, metros *geo.DB, w *traffic.Workload) *Sim {
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Sim{
		cfg:       cfg,
		g:         g,
		metros:    metros,
		geoip:     geo.NewGeoIP(metros, cfg.GeoErrRate, cfg.Seed+1),
		w:         w,
		linksByAS: make(map[bgp.ASN][]wan.LinkID),
		dist:      g.DistancesToCloud(),
		localExit: make(map[bgp.ASN]bool),
		driftPer:  make(map[bgp.ASN]int32),
		driftOff:  make(map[bgp.ASN]int32),
		withdrawn: make(map[wdKey]bool),
		meta:      make(map[uint32]dstMeta),
	}
	s.buildLinks(rng)
	s.outages = GenOutages(len(s.links), cfg.HorizonHours, cfg.OutagesPerLinkYear, cfg.Seed+2)

	// Per-AS policy traits.
	for _, asn := range g.ASNs() {
		a, _ := g.AS(asn)
		if a.Kind == topology.KindCloud {
			continue
		}
		if len(a.Metros) > 1 && rng.Float64() < cfg.LocalExitFraction {
			s.localExit[asn] = true
		}
		span := cfg.DriftMaxDays - cfg.DriftMinDays
		if span < 1 {
			span = 1
		}
		s.driftPer[asn] = int32(cfg.DriftMinDays + rng.Intn(span))
		s.driftOff[asn] = int32(rng.Intn(365))
	}

	// Register Geo-IP truth (once per unique /24) and destination
	// metadata (the cloud knows region and service of its own VIPs).
	seen := make(map[uint32]bool)
	for i := range w.Flows {
		f := &w.Flows[i]
		if !seen[f.SrcPrefix] {
			seen[f.SrcPrefix] = true
			s.geoip.Register(f.SrcPrefix, f.SrcMetro)
		}
		s.meta[f.DstAddr] = dstMeta{f.DstRegion, f.DstType}
		s.dstPrefix = append(s.dstPrefix, w.DstPrefix(f))
	}
	return s
}

// buildLinks expands each cloud peering relationship into concrete
// eBGP sessions: one to three parallel links per interconnection
// metro, with capacities drawn by peer kind.
func (s *Sim) buildLinks(rng *rand.Rand) {
	cloud := s.g.Cloud()
	seq := make(map[geo.MetroID]int) // per-metro router numbering
	for _, e := range s.g.Edges(cloud) {
		peer, _ := s.g.AS(e.Neighbor)
		for _, m := range e.Metros {
			parallels := 1
			var caps []float64
			exchange := false
			switch peer.Kind {
			case topology.KindTier1:
				parallels = 2 + rng.Intn(2)
				caps = []float64{100, 200, 400}
			case topology.KindCDN:
				parallels = 1 + rng.Intn(2)
				caps = []float64{100, 200}
			case topology.KindTier2:
				parallels = 1 + rng.Intn(2)
				caps = []float64{40, 100}
			case topology.KindAccess:
				parallels = 1 + rng.Intn(2)
				caps = []float64{10, 20, 40, 100}
				exchange = rng.Float64() < 0.2
			default:
				caps = []float64{10, 20}
				exchange = rng.Float64() < 0.5
			}
			metro := s.metros.MustMetro(m)
			for j := 0; j < parallels; j++ {
				seq[m]++
				id := wan.LinkID(len(s.links) + 1)
				s.links = append(s.links, wan.Link{
					ID:       id,
					Router:   fmt.Sprintf("%s%02d-er%d", metroCode(metro.Name), m, seq[m]),
					Metro:    m,
					PeerAS:   e.Neighbor,
					Capacity: wan.GbpsToBps(caps[rng.Intn(len(caps))]),
					Exchange: exchange,
				})
				s.linkIDs = append(s.linkIDs, id)
				s.linksByAS[e.Neighbor] = append(s.linksByAS[e.Neighbor], id)
			}
		}
	}
}

// metroCode derives a short lowercase router-name prefix from a metro
// name, e.g. "Frankfurt" -> "fra".
func metroCode(name string) string {
	code := make([]byte, 0, 3)
	for i := 0; i < len(name) && len(code) < 3; i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z':
			code = append(code, c)
		case c >= 'A' && c <= 'Z':
			code = append(code, c+'a'-'A')
		}
	}
	return string(code)
}

// Link implements wan.Directory.
func (s *Sim) Link(id wan.LinkID) (wan.Link, bool) {
	if id == 0 || int(id) > len(s.links) {
		return wan.Link{}, false
	}
	return s.links[id-1], true
}

// LinksOfAS implements wan.Directory.
func (s *Sim) LinksOfAS(as bgp.ASN) []wan.LinkID { return s.linksByAS[as] }

// Links implements wan.Directory. The slice is the simulator's own.
func (s *Sim) Links() []wan.LinkID { return s.linkIDs }

// NumLinks reports the number of peering links on the WAN.
func (s *Sim) NumLinks() int { return len(s.links) }

// GeoIP exposes the simulated Geo-IP database.
func (s *Sim) GeoIP() *geo.GeoIP { return s.geoip }

// Metros exposes the metro database.
func (s *Sim) Metros() *geo.DB { return s.metros }

// Graph exposes the underlying topology.
func (s *Sim) Graph() *topology.Graph { return s.g }

// Workload exposes the simulated workload.
func (s *Sim) Workload() *traffic.Workload { return s.w }

// Outages exposes the outage schedule.
func (s *Sim) Outages() *OutageSchedule { return s.outages }

// DstMetadata resolves a destination address to its cloud region and
// service type — the paper's "network metadata" join (§4.1).
func (s *Sim) DstMetadata(addr uint32) (wan.Region, wan.ServiceType, bool) {
	m, ok := s.meta[addr]
	return m.region, m.svc, ok
}

// Withdraw stops announcing prefix on the given link, as the
// congestion mitigation system does to shift traffic away.
func (s *Sim) Withdraw(link wan.LinkID, prefix bgp.Prefix) {
	s.mu.Lock()
	s.withdrawn[wdKey{link, prefix}] = true
	s.anyWithdrawn.Store(true)
	s.mu.Unlock()
}

// Announce re-announces prefix on the given link.
func (s *Sim) Announce(link wan.LinkID, prefix bgp.Prefix) {
	s.mu.Lock()
	delete(s.withdrawn, wdKey{link, prefix})
	s.anyWithdrawn.Store(len(s.withdrawn) > 0)
	s.mu.Unlock()
}

// IsWithdrawn reports the announcement state of (link, prefix).
func (s *Sim) IsWithdrawn(link wan.LinkID, prefix bgp.Prefix) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.withdrawn[wdKey{link, prefix}]
}

// Withdrawals returns the current withdrawal set as (link, prefix)
// pairs in deterministic order.
func (s *Sim) Withdrawals() []struct {
	Link   wan.LinkID
	Prefix bgp.Prefix
} {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]struct {
		Link   wan.LinkID
		Prefix bgp.Prefix
	}, 0, len(s.withdrawn))
	for k := range s.withdrawn {
		out = append(out, struct {
			Link   wan.LinkID
			Prefix bgp.Prefix
		}{k.link, k.prefix})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Link != out[j].Link {
			return out[i].Link < out[j].Link
		}
		return out[i].Prefix.Addr < out[j].Prefix.Addr
	})
	return out
}

// Available reports whether prefix is reachable over link at hour h:
// the link is not in outage and the prefix is not withdrawn there.
func (s *Sim) Available(link wan.LinkID, prefix bgp.Prefix, h wan.Hour) bool {
	if s.outages.Down(link, h) {
		return false
	}
	if !s.anyWithdrawn.Load() {
		return true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return !s.withdrawn[wdKey{link, prefix}]
}

// getResolver draws resolution scratch from the pool.
func (s *Sim) getResolver() *resolver {
	if r, ok := s.resolvers.Get().(*resolver); ok {
		return r
	}
	return &resolver{s: s}
}

func (s *Sim) putResolver(r *resolver) { s.resolvers.Put(r) }

// LinkBytes returns the ground-truth ingress bytes link carried during
// hour h, or 0 if Sim does not hold that hour: it was never simulated,
// or a later hour has taken its slot in the one-week (ledgerHours)
// ring.
func (s *Sim) LinkBytes(h wan.Hour, link wan.LinkID) float64 {
	s.lbMu.Lock()
	defer s.lbMu.Unlock()
	sl := &s.linkBytes[ledgerIndex(h)]
	if sl.row == nil || sl.h != h || int(link) > len(sl.row) || link == 0 {
		return 0
	}
	return sl.row[link-1]
}

// ledgerIndex is hour h's slot in the ground-truth ring.
func ledgerIndex(h wan.Hour) int {
	return int(uint32(h) % ledgerHours)
}

// FlowPrefix returns the anycast destination prefix of a flow.
func (s *Sim) FlowPrefix(f *traffic.FlowSpec) bgp.Prefix { return s.dstPrefix[f.ID] }
