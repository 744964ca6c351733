package serve

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"strconv"

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
func (m *Models) Respond(req *Request, flows []features.FlowFeatures, clock func() int64, observe func(i int, a Answer)) *Response {
	q := core.Query{K: req.K}
	if q.K <= 0 {
		q.K = DefaultK
	}
	if len(req.ExcludeLinks) > 0 {
		// A sorted copy, not a map: req is shared with concurrent
		// readers and stays as the client sent it.
		excluded := slices.Clone(req.ExcludeLinks)
		slices.Sort(excluded)
		q.Exclude = func(l wan.LinkID) bool {
			_, found := slices.BinarySearch(excluded, l)
			return found
		}
	}
	resp := &Response{Shifted: make(map[wan.LinkID]float64)}
	if len(flows) > 0 { // an empty request keeps answering "results":null
		resp.Results = make([]Result, len(flows))
	}
	// Every flow's links are cut, capacity-clipped, from one array,
	// sized for the usual k: a client may ask for any k, and append
	// grows the array for the flows that have that many links.
	links := make([]LinkShare, 0, len(flows)*min(q.K, DefaultK))
	for i := range flows {
		q.Flow = flows[i]
		a := m.Walk(q, clock)
		if observe != nil {
			observe(i, a)
		}
		res := &resp.Results[i]
		res.Flow, res.Model = i, a.Rung.String()
		bytes, start := req.Flows[i].Bytes, len(links)
		for _, p := range a.Preds {
			links = append(links, LinkShare{p.Link, p.Frac, p.Frac * bytes})
			resp.Shifted[p.Link] += p.Frac * bytes
		}
		if len(a.Preds) > 0 { // an unanswered flow keeps "links":null
			res.Links = links[start:len(links):len(links)]
		}
	}
	return resp
}
