// Package cms implements the congestion mitigation system of §4.4:
// it monitors ingress peering-link utilization, and when a link stays
// above threshold it selects the fewest destination prefixes (top by
// traffic volume) whose withdrawal brings utilization back down,
// asks TIPSY where each prefix's traffic would shift, checks the
// predicted shifts against the other links' spare capacity, withdraws
// the safe choices, and re-announces once traffic calms down. Both go
// in process through Network, which the simulator implements. A
// "blind" mode reproduces the pre-TIPSY behaviour the paper describes
// — withdraw and hope — which is the baseline that produces
// cascading congestion like the §2 incident.
package cms

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"tipsy/internal/bgp"
	"tipsy/internal/core"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/ipfix"
	"tipsy/internal/wan"
)

// Network is the control surface the CMS drives: link metadata,
// utilization ground truth, and BGP announcement control. The
// simulator implements it.
type Network interface {
	wan.Directory
	Withdraw(link wan.LinkID, prefix bgp.Prefix)
	Announce(link wan.LinkID, prefix bgp.Prefix)
	IsWithdrawn(link wan.LinkID, prefix bgp.Prefix) bool
	LinkBytes(h wan.Hour, link wan.LinkID) float64
}

// Config tunes the mitigation behaviour.
type Config struct {
	// UtilThreshold triggers mitigation; the paper uses 85%
	// utilization sustained for at least 4 minutes. At the
	// substrate's hourly granularity one hot hour triggers.
	UtilThreshold float64
	// TargetUtil is the utilization mitigation aims to get back
	// under, and the level shifted traffic must not push other links
	// beyond for a withdrawal to be considered safe.
	TargetUtil float64
	// ReannounceBelow re-announces a withdrawn prefix once the
	// congested link has stayed under this utilization.
	ReannounceBelow float64
	// CalmHours is how many consecutive calm hours precede
	// re-announcement.
	CalmHours int
	// MaxWithdrawalsPerEvent bounds how many prefixes one congestion
	// event may withdraw.
	MaxWithdrawalsPerEvent int
	// Blind disables TIPSY safety checks: withdraw top prefixes by
	// volume without predicting where traffic lands (the pre-TIPSY
	// baseline).
	Blind bool
	// Anycast lists the prefixes announced by the WAN, at the
	// granularity the CMS withdraws (it does not de-aggregate, §4.4).
	Anycast []bgp.Prefix
}

// DefaultConfig matches §4.4.
func DefaultConfig(anycast []bgp.Prefix) Config {
	return Config{
		UtilThreshold:          0.85,
		TargetUtil:             0.80,
		ReannounceBelow:        0.60,
		CalmHours:              2,
		MaxWithdrawalsPerEvent: 4,
		Anycast:                anycast,
	}
}

// Withdrawal is one active mitigation action.
type Withdrawal struct {
	Link          wan.LinkID
	Prefix        bgp.Prefix
	IssuedAt      wan.Hour
	calmRun       int
	Reannounced   bool
	ReannouncedAt wan.Hour
}

// Event records one congestion detection and what was done about it.
type Event struct {
	Hour      wan.Hour
	Link      wan.LinkID
	Util      float64
	Withdrawn []bgp.Prefix
	// Deferred counts prefixes TIPSY deemed unsafe to shift.
	Deferred int
	// Predicted maps target links to the extra bytes TIPSY expected
	// them to absorb from this event's withdrawals.
	Predicted map[wan.LinkID]float64
}

// CMS is the mitigation engine. Feed it flow records during each hour
// (it is a netsim.RecordSink) and call Step at hour end.
type CMS struct {
	// lock-free: set in New and read-only afterwards
	cfg Config
	// lock-free: set in New and read-only afterwards
	net Network
	// lock-free: set in New and read-only afterwards
	tipsy core.Predictor
	// lock-free: set in New and read-only afterwards
	geoip *geo.GeoIP
	// lock-free: set in New and read-only afterwards
	meta func(uint32) (wan.Region, wan.ServiceType, bool)

	mu sync.Mutex
	// traffic[link][prefixIdx][flow] = bytes in the current hour
	// guarded by mu
	traffic map[wan.LinkID]map[int]map[features.FlowFeatures]uint64
	// guarded by mu
	active []*Withdrawal
	// guarded by mu
	events []Event
	// guarded by mu
	hot map[wan.LinkID]int // consecutive hot hours
}

// New creates a CMS over the network using the given trained
// predictor for what-if queries.
func New(cfg Config, net Network, tipsy core.Predictor, geoip *geo.GeoIP,
	meta func(uint32) (wan.Region, wan.ServiceType, bool)) *CMS {
	if cfg.MaxWithdrawalsPerEvent <= 0 {
		cfg.MaxWithdrawalsPerEvent = 4
	}
	return &CMS{
		cfg: cfg, net: net, tipsy: tipsy, geoip: geoip, meta: meta,
		traffic: make(map[wan.LinkID]map[int]map[features.FlowFeatures]uint64),
		hot:     make(map[wan.LinkID]int),
	}
}

// Record implements the telemetry sink: the CMS identifies, in the
// IPFIX data, which flows arrive on which link for which announced
// prefix (§4.4).
func (c *CMS) Record(h wan.Hour, link wan.LinkID, rec *ipfix.FlowRecord) {
	pi := c.prefixIndex(rec.DstAddr)
	if pi < 0 {
		return
	}
	region, svc, ok := c.meta(rec.DstAddr)
	if !ok {
		return
	}
	prefix := bgp.Slash24(rec.SrcAddr)
	flow := features.FlowFeatures{
		AS: bgp.ASN(rec.SrcAS), Prefix: prefix, Loc: c.geoip.Lookup(prefix),
		Region: region, Type: svc,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	byPfx := c.traffic[link]
	if byPfx == nil {
		byPfx = make(map[int]map[features.FlowFeatures]uint64)
		c.traffic[link] = byPfx
	}
	flows := byPfx[pi]
	if flows == nil {
		flows = make(map[features.FlowFeatures]uint64)
		byPfx[pi] = flows
	}
	flows[flow] += rec.Octets
}

func (c *CMS) prefixIndex(dst uint32) int {
	for i, p := range c.cfg.Anycast {
		if p.Contains(dst) {
			return i
		}
	}
	return -1
}

func (c *CMS) util(h wan.Hour, link wan.LinkID) float64 {
	l, ok := c.net.Link(link)
	if !ok {
		return 0
	}
	return l.Utilization(c.net.LinkBytes(h, link), 3600)
}

// Step runs one control cycle at the end of hour h: re-announce calm
// withdrawals, detect congested links, and mitigate them. It then
// resets the per-hour traffic view.
func (c *CMS) Step(h wan.Hour) {
	c.mu.Lock()
	defer c.mu.Unlock()

	// Re-announcement: once the congested link has calmed, restore
	// the prefix at its original location.
	for _, w := range c.active {
		if w.Reannounced {
			continue
		}
		if c.util(h, w.Link) < c.cfg.ReannounceBelow {
			w.calmRun++
		} else {
			w.calmRun = 0
		}
		if w.calmRun >= c.cfg.CalmHours {
			c.net.Announce(w.Link, w.Prefix)
			w.Reannounced = true
			w.ReannouncedAt = h
		}
	}

	// Detection: links above threshold this hour.
	var congested []wan.LinkID
	for _, id := range c.net.Links() {
		if c.util(h, id) >= c.cfg.UtilThreshold {
			c.hot[id]++
			congested = append(congested, id)
		} else {
			c.hot[id] = 0
		}
	}
	sort.Slice(congested, func(i, j int) bool {
		return c.util(h, congested[i]) > c.util(h, congested[j])
	})
	for _, link := range congested {
		c.mitigate(h, link)
	}

	// The per-hour traffic view is consumed.
	c.traffic = make(map[wan.LinkID]map[int]map[features.FlowFeatures]uint64)
}

// mitigate withdraws enough safe prefixes from the congested link to
// bring projected utilization under target.
func (c *CMS) mitigate(h wan.Hour, link wan.LinkID) {
	l, ok := c.net.Link(link)
	if !ok {
		return
	}
	ev := Event{Hour: h, Link: link, Util: c.util(h, link), Predicted: make(map[wan.LinkID]float64)}
	byPfx := c.traffic[link]

	// Rank this link's prefixes by the volume they carry: the paper
	// withdraws the fewest, largest prefixes that restore headroom.
	// Every sum over a prefix's flows runs in FlowFeatures.Compare
	// order, so the same traffic gives the same bits on every run.
	type pfxVol struct {
		idx   int
		flows []features.FlowFeatures
		bytes uint64
	}
	var pfxs []pfxVol
	for pi, flows := range byPfx {
		pv := pfxVol{idx: pi, flows: make([]features.FlowFeatures, 0, len(flows))}
		for f := range flows {
			pv.flows = append(pv.flows, f)
		}
		slices.SortFunc(pv.flows, features.FlowFeatures.Compare)
		for _, f := range pv.flows {
			pv.bytes += flows[f]
		}
		pfxs = append(pfxs, pv)
	}
	sort.Slice(pfxs, func(i, j int) bool {
		if pfxs[i].bytes != pfxs[j].bytes {
			return pfxs[i].bytes > pfxs[j].bytes
		}
		return pfxs[i].idx < pfxs[j].idx
	})

	linkBytes := c.net.LinkBytes(h, link)
	needBytes := linkBytes - c.cfg.TargetUtil*l.Capacity*3600/8
	shiftedSoFar := 0.0
	// Track projected extra load per target link across this event's
	// withdrawals so successive withdrawals don't jointly overload a
	// target that each alone would not.
	projected := make(map[wan.LinkID]float64)

	for _, pv := range pfxs {
		if shiftedSoFar >= needBytes || len(ev.Withdrawn) >= c.cfg.MaxWithdrawalsPerEvent {
			break
		}
		prefix := c.cfg.Anycast[pv.idx]
		if c.net.IsWithdrawn(link, prefix) {
			continue
		}
		safe := true
		shift := make(map[wan.LinkID]float64)
		if !c.cfg.Blind {
			for _, flow := range pv.flows {
				bytes := byPfx[pv.idx][flow]
				preds := c.tipsy.Predict(core.Query{
					Flow: flow, K: 3,
					Exclude: func(t wan.LinkID) bool {
						return t == link || c.net.IsWithdrawn(t, prefix)
					},
				})
				for _, p := range preds {
					shift[p.Link] += p.Frac * float64(bytes)
				}
			}
			for target, extra := range shift {
				tl, ok := c.net.Link(target)
				if !ok {
					continue
				}
				newBytes := c.net.LinkBytes(h, target) + projected[target] + extra
				if tl.Utilization(newBytes, 3600) >= c.cfg.TargetUtil {
					safe = false
					break
				}
			}
		}
		if !safe {
			ev.Deferred++
			continue
		}
		c.net.Withdraw(link, prefix)
		c.active = append(c.active, &Withdrawal{Link: link, Prefix: prefix, IssuedAt: h})
		ev.Withdrawn = append(ev.Withdrawn, prefix)
		shiftedSoFar += float64(pv.bytes)
		for target, extra := range shift {
			projected[target] += extra
			ev.Predicted[target] += extra
		}
	}
	c.events = append(c.events, ev)
}

// Events returns every congestion event handled so far.
func (c *CMS) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// Active returns the withdrawals issued so far, including those
// already re-announced.
func (c *CMS) Active() []Withdrawal {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Withdrawal, len(c.active))
	for i, w := range c.active {
		out[i] = *w
	}
	return out
}

// Summary renders a short operator-facing report.
func (c *CMS) Summary() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	withdrawals, deferred := 0, 0
	for _, ev := range c.events {
		withdrawals += len(ev.Withdrawn)
		deferred += ev.Deferred
	}
	mode := "tipsy"
	if c.cfg.Blind {
		mode = "blind"
	}
	return fmt.Sprintf("cms[%s]: %d congestion events, %d withdrawals, %d deferred as unsafe, %d active",
		mode, len(c.events), withdrawals, deferred, len(c.active))
}
