package geo

import (
	"math/rand"
	"sync"
)

// GeoIP maps /24 source prefixes to metros. It stands in for the
// paper's proprietary geolocation database. Assignments are stored
// explicitly (the simulator registers the true metro when it mints a
// prefix), and a configurable error rate substitutes a nearby metro to
// model database imprecision (cf. Poese et al., "IP geolocation
// databases: unreliable?").
type GeoIP struct {
	//tipsy:nolock set in the constructor and never written afterwards
	db *DB
	//tipsy:nolock set in the constructor and never written afterwards
	errRate float64

	mu sync.RWMutex
	// rng is only assigned in the constructor, but every draw
	// advances its state.
	//tipsy:guardedby mu
	rng *rand.Rand
	//tipsy:guardedby mu
	entries map[uint32]MetroID // /24 base address -> reported metro
}

// NewGeoIP creates a Geo-IP database over db. errRate is the fraction
// of registrations that get recorded against a neighbouring metro
// instead of the true one; seed makes the error process deterministic.
func NewGeoIP(db *DB, errRate float64, seed int64) *GeoIP {
	return &GeoIP{
		db:      db,
		errRate: errRate,
		rng:     rand.New(rand.NewSource(seed)),
		entries: make(map[uint32]MetroID),
	}
}

// Register records the true metro of a /24 prefix. With probability
// errRate the stored entry is perturbed to one of the few nearest
// metros, simulating Geo-IP error at registration time so lookups stay
// deterministic. The paper's pipeline has exactly one location per /24
// (Table 1), which Register preserves: re-registration overwrites.
func (g *GeoIP) Register(slash24 uint32, truth MetroID) {
	recorded := truth
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.errRate > 0 && g.rng.Float64() < g.errRate {
		recorded = g.nearbyLocked(truth)
	}
	g.entries[slash24] = recorded
}

// nearbyLocked picks one of the three metros nearest to m (excluding
// m itself).
func (g *GeoIP) nearbyLocked(m MetroID) MetroID {
	type cd struct {
		id MetroID
		d  float64
	}
	var best [3]cd
	n := 0
	for _, cand := range g.db.All() {
		if cand.ID == m {
			continue
		}
		d := g.db.Distance(m, cand.ID)
		if n < 3 {
			best[n] = cd{cand.ID, d}
			n++
			continue
		}
		worst := 0
		for i := 1; i < 3; i++ {
			if best[i].d > best[worst].d {
				worst = i
			}
		}
		if d < best[worst].d {
			best[worst] = cd{cand.ID, d}
		}
	}
	if n == 0 {
		return m
	}
	return best[g.rng.Intn(n)].id
}

// Lookup returns the recorded metro for the /24 containing the given
// base address, or 0 if unknown.
func (g *GeoIP) Lookup(slash24 uint32) MetroID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.entries[slash24]
}

// Len reports how many /24 prefixes are registered.
func (g *GeoIP) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.entries)
}

// Entries returns a copy of the database contents, for export.
func (g *GeoIP) Entries() map[uint32]MetroID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make(map[uint32]MetroID, len(g.entries))
	for k, v := range g.entries {
		out[k] = v
	}
	return out
}

// NewGeoIPFromEntries rebuilds a database from exported entries; the
// error process is disabled since entries are already final.
func NewGeoIPFromEntries(db *DB, entries map[uint32]MetroID) *GeoIP {
	g := NewGeoIP(db, 0, 0)
	g.mu.Lock()
	defer g.mu.Unlock()
	for k, v := range entries {
		g.entries[k] = v
	}
	return g
}
