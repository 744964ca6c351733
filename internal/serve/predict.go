package serve

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"strconv"
	"sync"

	"tipsy/internal/bgp"
	"tipsy/internal/core"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/wan"
)

// Flow is one flow aggregate on the wire: the tuple the models key on
// plus the bytes the caller expects it to carry.
type Flow struct {
	SrcAddr string  `json:"src_addr"`
	SrcAS   uint32  `json:"src_as"`
	Region  uint16  `json:"region"`
	Service uint8   `json:"service"`
	Bytes   float64 `json:"bytes"`
}

// Request mirrors how the CMS queries TIPSY (§4): a set of flows
// (tuples and bytes) plus the links about to be withdrawn.
type Request struct {
	Flows        []Flow       `json:"flows"`
	ExcludeLinks []wan.LinkID `json:"exclude_links"`
	K            int          `json:"k"`
}

// LinkShare is one predicted ingress link of one flow.
type LinkShare struct {
	Link  wan.LinkID `json:"link"`
	Frac  float64    `json:"frac"`
	Bytes float64    `json:"bytes"`
}

// Result is the answer for one flow of the request.
type Result struct {
	Flow int `json:"flow"`
	// Model names the ladder rung that answered this flow:
	// "ensemble", "geo", or "none".
	Model string      `json:"model"`
	Links []LinkShare `json:"links"`
}

// Response answers a Request.
type Response struct {
	Results []Result `json:"results"`
	// Shifted aggregates predicted bytes per target link across all
	// queried flows — the number the CMS compares against capacity.
	Shifted map[wan.LinkID]float64 `json:"shifted"`
}

// DefaultK is the k a request gets when it names none: the paper's
// headline metric is top-3.
const DefaultK = 3

// Encode resolves each flow of the request to the features the models
// key on. The error names the first flow whose address is malformed.
func (req *Request) Encode(geoip *geo.GeoIP) ([]features.FlowFeatures, error) {
	flows := make([]features.FlowFeatures, len(req.Flows))
	for i := range req.Flows {
		f := &req.Flows[i]
		addr, err := ParseIPv4(f.SrcAddr)
		if err != nil {
			return nil, fmt.Errorf("flow %d: %w", i, err)
		}
		prefix := bgp.Slash24(addr)
		flows[i] = features.FlowFeatures{
			AS: bgp.ASN(f.SrcAS), Prefix: prefix, Loc: geoip.Lookup(prefix),
			Region: wan.Region(f.Region), Type: wan.ServiceType(f.Service),
		}
	}
	return flows, nil
}

// ParseIPv4 parses a dotted-quad address, rejecting anything else:
// trailing bytes, a fifth octet, padding, signs, leading zeros, IPv6.
// The server and the CLI both take source addresses through it.
func ParseIPv4(s string) (uint32, error) {
	a, err := netip.ParseAddr(s)
	if err != nil || !a.Is4() {
		return 0, errors.New("bad IPv4 address " + strconv.Quote(s))
	}
	b := a.As4()
	return bgp.V4(b[0], b[1], b[2], b[3]), nil
}

// Respond answers the whole request from this one generation: it
// walks the ladder for each of flows (req.Encode's output) with the
// request's exclusions and k. observe, if non-nil, sees every flow's
// Answer as it is made; that is where a server counts rungs and feeds
// its quality monitor.
//
// Every flow's predictions are appended to one array, and its links,
// capacity-clipped, are cut from a second; shifted is summed per link
// in flow order and becomes a map once, at the end.
func (m *Models) Respond(req *Request, flows []features.FlowFeatures, clock func() int64, observe func(i int, a Answer)) *Response {
	q := core.Query{K: req.K}
	if q.K <= 0 {
		q.K = DefaultK
	}
	sc := linkScratches.Get().(*linkScratch)
	if len(req.ExcludeLinks) > 0 {
		// req is shared with concurrent readers and stays as the
		// client sent it; the bitset is this request's own.
		sc.exclude(req.ExcludeLinks, m.linkBound)
		q.Exclude = sc.isExcluded
	}
	resp := &Response{}
	if len(flows) > 0 { // an empty request keeps answering "results":null
		resp.Results = make([]Result, len(flows))
	}
	// Both arrays are sized for the usual k, the predictions with room
	// for the links a rung ranks before it truncates: a client may ask
	// for any k, and append grows them for the flows that have that
	// many links.
	perFlow := len(flows) * min(q.K, DefaultK)
	preds := make([]core.Prediction, 0, perFlow+scratchPreds)
	links := make([]LinkShare, 0, perFlow)
	for i := range flows {
		q.Flow = flows[i]
		var a Answer
		preds, a = m.Walk(preds, q, clock)
		if observe != nil {
			observe(i, a)
		}
		res := &resp.Results[i]
		res.Flow, res.Model = i, a.Rung.String()
		bytes, start := req.Flows[i].Bytes, len(links)
		for _, p := range a.Preds {
			links = append(links, LinkShare{p.Link, p.Frac, p.Frac * bytes})
		}
		if len(a.Preds) > 0 { // an unanswered flow keeps "links":null
			res.Links = links[start:len(links):len(links)]
		}
	}
	resp.Shifted = sc.shifted(links)
	sc.release()
	return resp
}

// scratchPreds is the room Respond's prediction array keeps past the
// answers for a rung's working list: a tuple's stored links before
// top-k, or GeoNearest's head.
const scratchPreds = 64

// linkScratch is Respond's per-link working state: the request's
// exclusions as a bitset over LinkID, and the shifted load per link.
// Respond leaves it clear and returns it to linkScratches, so a
// request costs neither allocation.
type linkScratch struct {
	// excluded has bit l&63 of word l>>6 set for each excluded link l.
	excluded []uint64
	// isExcluded tests excluded; it is made once per scratch.
	isExcluded func(wan.LinkID) bool
	// load is indexed by link.
	load []linkLoad
}

// linkLoad is one link's shifted bytes so far, and whether any
// answer named the link.
type linkLoad struct {
	bytes float64
	seen  bool
}

var linkScratches = sync.Pool{New: func() any {
	sc := new(linkScratch)
	sc.isExcluded = func(l wan.LinkID) bool {
		w := int(l >> 6)
		return w < len(sc.excluded) && sc.excluded[w]&(1<<(l&63)) != 0
	}
	return sc
}}

// exclude sets the bits of links below bound. No rung answers with a
// link at or past it, so the others need no bit.
func (sc *linkScratch) exclude(links []wan.LinkID, bound int) {
	for _, l := range links {
		if int(l) >= bound {
			continue
		}
		if w := int(l>>6) + 1; w > len(sc.excluded) {
			sc.excluded = slices.Grow(sc.excluded, w-len(sc.excluded))[:w]
		}
		sc.excluded[l>>6] |= 1 << (l & 63)
	}
}

// shifted sums links' bytes per link, in order, so each sum adds what
// a map accumulated one link at a time would, in the same order. It
// writes the map once per link and leaves load clear.
func (sc *linkScratch) shifted(links []LinkShare) map[wan.LinkID]float64 {
	distinct := 0
	for _, l := range links {
		if n := int(l.Link) + 1; n > len(sc.load) {
			sc.load = slices.Grow(sc.load, n-len(sc.load))[:n]
		}
		c := &sc.load[l.Link]
		if !c.seen {
			c.seen = true
			distinct++
		}
		c.bytes += l.Bytes
	}
	shifted := make(map[wan.LinkID]float64, distinct)
	for _, l := range links {
		if c := &sc.load[l.Link]; c.seen {
			shifted[l.Link] = c.bytes
			*c = linkLoad{}
		}
	}
	return shifted
}

// release clears the exclusions and returns the scratch to the pool.
func (sc *linkScratch) release() {
	clear(sc.excluded)
	sc.excluded = sc.excluded[:0]
	linkScratches.Put(sc)
}
