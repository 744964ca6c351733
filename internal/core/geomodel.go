package core

import (
	"cmp"
	"slices"

	"tipsy/internal/geo"
	"tipsy/internal/wan"
)

// GeoCompletion implements the paper's Hist_AL+G strategy (§3.3.1,
// "Geographic distance of peering"): when the underlying Historical
// model has fewer than k usable links for a flow — typically because
// its known links are excluded by an outage or withdrawal — take the
// peering AS and ingress location of the best match (ignoring
// exclusions), rank that AS's other peering links by geographic
// distance to it, and complete the prediction list with them. This
// captures hot-potato routing: after a withdrawal, the neighbor
// usually re-routes to its nearest remaining interconnect.
type GeoCompletion struct {
	inner  *Historical
	links  wan.Directory
	metros *geo.DB
}

// NewGeoCompletion wraps a Historical model (the paper evaluates it
// over Hist_AL) with geographic completion using the WAN's link
// directory.
func NewGeoCompletion(inner *Historical, links wan.Directory, metros *geo.DB) *GeoCompletion {
	return &GeoCompletion{inner: inner, links: links, metros: metros}
}

// Name implements Predictor.
func (g *GeoCompletion) Name() string { return g.inner.Name() + "+G" }

// Predict implements Predictor. The completion spends exactly the
// probability mass the exclusions destroyed: if the surviving trained
// links still cover the tuple's byte mass, the geographic alternates
// receive (almost) nothing and the model behaves like the inner one;
// if the dominant links are gone, the nearest other interconnects of
// the same peer AS inherit the missing mass, geometrically weighted
// by distance rank.
func (g *GeoCompletion) Predict(q Query) []Prediction { return g.AppendPredict(nil, q) }

// AppendPredict implements AppendPredictor. It looks the tuple up
// once: the surviving links and the anchor both come from that
// lookup, and the completion's candidates are ranked in dst's tail.
func (g *GeoCompletion) AppendPredict(dst []Prediction, q Query) []Prediction {
	stored, ok := g.inner.links(q.Flow)
	if !ok {
		return dst
	}
	n := len(dst)
	dst = appendSurviving(dst, stored, &q)
	raw := dst[n:]
	surviving := 0.0
	for _, p := range raw {
		surviving += p.Frac
	}
	missing := 1 - surviving
	if missing <= 1e-9 || (q.K > 0 && len(raw) >= q.K) {
		return topKFrom(dst, n, q.K)
	}

	// Anchor on the best match with exclusions lifted, the tuple's
	// first stored link: the link the flow would have used, whose peer
	// AS and location seed the geographic ranking. A tuple with no
	// links, which only a damaged checkpoint holds, has no anchor.
	if len(stored) == 0 {
		return topKFrom(dst, n, q.K)
	}
	anchor, ok := g.links.Link(stored[0].Link)
	if !ok {
		return topKFrom(dst, n, q.K)
	}

	// Surviving trained links keep their relative ranking — the
	// completion is strictly a tail, "used to complete the list of
	// interfaces returned" (§3.3.1). Completion links receive a
	// geometrically decaying share of the destroyed mass, capped so
	// they never displace or badly dilute real observations; with no
	// survivors at all, the geographically nearest alternate is the
	// best single hot-potato guess and dominates.
	if surviving > 0 {
		for i := range raw {
			raw[i].Frac /= surviving
		}
	}
	// The completion spends mass proportional to what the exclusions
	// destroyed, but never shoves aside real observations: with no
	// usable survivors the nearest alternate is a full-size hot-potato
	// bet (where the paper's +G earns its keep on unseen withdrawals,
	// Table 7); with survivors present the completion stays a tail
	// below them (where the paper's +G tracks plain AL, Tables 4/6).
	var w float64
	if len(raw) == 0 || surviving < 0.005 {
		w = 0.55
	} else {
		w = minF(minF(0.25*missing, 0.5*raw[len(raw)-1].Frac), 0.10)
	}

	// The candidates are appended with their distance from the anchor
	// in Frac, sorted, and then given their weights.
	tail := n + len(raw)
	for _, id := range g.links.LinksOfAS(anchor.PeerAS) {
		// raw holds at most MaxLinksPerTuple links: scan it.
		if id == anchor.ID || q.excluded(id) ||
			slices.ContainsFunc(dst[n:tail], func(p Prediction) bool { return p.Link == id }) {
			continue
		}
		l, ok := g.links.Link(id)
		if !ok {
			continue
		}
		dst = append(dst, Prediction{Link: id, Frac: g.metros.Distance(anchor.Metro, l.Metro)})
	}
	// Every candidate is kept, not just a head: topK normalises over
	// the whole decaying tail, so truncating it would move fractions.
	cands := dst[tail:]
	slices.SortFunc(cands, func(a, b Prediction) int {
		if c := cmp.Compare(a.Frac, b.Frac); c != 0 {
			return c
		}
		return cmp.Compare(a.Link, b.Link)
	})
	for i := range cands {
		cands[i].Frac = w
		w *= 0.45
	}
	return topKFrom(dst, n, q.K)
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
