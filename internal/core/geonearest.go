package core

import (
	"tipsy/internal/geo"
	"tipsy/internal/wan"
)

// GeoNearest is a training-free predictor: rank the WAN's peering
// links by geographic distance from the flow's source location and
// bet on the nearest ones, preferring the source AS's own links at
// equal distance. It knows nothing about observed traffic, so its
// accuracy is far below the historical models — it exists as the
// last rung of a degraded serving ladder, answering when no trained
// model can (features missing from training, models lost, or a
// process serving before its first retrain completes).
type GeoNearest struct {
	links  wan.Directory
	metros *geo.DB
}

// NewGeoNearest builds the fallback over the WAN's link directory.
func NewGeoNearest(links wan.Directory, metros *geo.DB) *GeoNearest {
	return &GeoNearest{links: links, metros: metros}
}

// Name implements Predictor.
func (g *GeoNearest) Name() string { return "GeoNearest" }

// geoNearestMax bounds the ranking GeoNearest returns: only its head
// means anything, and keeping it short even for unrestricted queries
// keeps the fractions non-degenerate.
const geoNearestMax = 16

// geoCand is one link GeoNearest ranks.
type geoCand struct {
	id      wan.LinkID
	foreign bool // not a link of the flow's own AS
	d       float64
}

// before is the ranking key: own-AS links first, then distance, then
// ID. IDs are unique, so the order is strict and total.
func (c geoCand) before(o geoCand) bool {
	if c.foreign != o.foreign {
		return !c.foreign
	}
	if c.d != o.d {
		return c.d < o.d
	}
	return c.id < o.id
}

// Predict implements Predictor. Candidates are every non-excluded
// link, ordered by (not direct-peer, distance, ID) — the source AS's
// own interconnects first, then anyone else's nearby ones, mirroring
// the hot-potato intuition that traffic enters close to where it
// originates. Fractions decay geometrically down the ranking.
//
// The rung runs only for flows the trained models cannot answer, but
// it scans the whole WAN for each: it keeps the best K (at most
// geoNearestMax) in a fixed array by insertion instead of sorting
// every link, so its only allocation is the answer. The key is a
// strict total order, so the head is the one a full sort would give.
func (g *GeoNearest) Predict(q Query) []Prediction { return g.AppendPredict(nil, q) }

// AppendPredict implements AppendPredictor.
func (g *GeoNearest) AppendPredict(dst []Prediction, q Query) []Prediction {
	max := q.K
	if max <= 0 || max > geoNearestMax {
		max = geoNearestMax
	}
	var top [geoNearestMax]geoCand
	n := 0
	for _, id := range g.links.Links() {
		if q.excluded(id) {
			continue
		}
		l, ok := g.links.Link(id)
		if !ok {
			continue
		}
		c := geoCand{id: id, foreign: l.PeerAS != q.Flow.AS}
		if n == max && c.foreign && !top[n-1].foreign {
			continue // cannot displace an own-AS link; skip the distance
		}
		c.d = g.metros.Distance(q.Flow.Loc, l.Metro)
		if n == max {
			if !c.before(top[n-1]) {
				continue
			}
			n--
		}
		i := n
		for ; i > 0 && c.before(top[i-1]); i-- {
			top[i] = top[i-1]
		}
		top[i] = c
		n++
	}
	if n == 0 {
		return dst
	}
	start := len(dst)
	dst = grow(dst, n)
	w := 1.0
	for _, c := range top[:n] {
		dst = append(dst, Prediction{Link: c.id, Frac: w})
		w *= 0.5
	}
	return topKFrom(dst, start, q.K)
}
