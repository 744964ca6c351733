package geo

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestWorldDB(t *testing.T) {
	db := World()
	if db.Len() < 60 {
		t.Fatalf("world db has %d metros, want >= 60", db.Len())
	}
	seen := map[string]bool{}
	for _, m := range db.All() {
		if m.ID == 0 {
			t.Error("metro ID 0 is reserved for unknown")
		}
		if seen[m.Name] {
			t.Errorf("duplicate metro %q", m.Name)
		}
		seen[m.Name] = true
		if m.Lat < -90 || m.Lat > 90 || m.Lon < -180 || m.Lon > 180 {
			t.Errorf("%s: coordinates out of range", m.Name)
		}
	}
	if _, ok := db.Metro(0); ok {
		t.Error("Metro(0) should not resolve")
	}
	if _, ok := db.Metro(MetroID(db.Len() + 1)); ok {
		t.Error("out-of-range ID should not resolve")
	}
}

func metroByName(t *testing.T, db *DB, name string) Metro {
	t.Helper()
	for _, m := range db.All() {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("metro %q not found", name)
	return Metro{}
}

func TestDistanceKnownPairs(t *testing.T) {
	db := World()
	cases := []struct {
		a, b    string
		km, tol float64
	}{
		{"London", "New York", 5570, 120},
		{"Tokyo", "Seoul", 1160, 80},
		{"Sydney", "Melbourne", 714, 60},
		{"Seattle", "San Jose", 1090, 80},
	}
	for _, c := range cases {
		a, b := metroByName(t, db, c.a), metroByName(t, db, c.b)
		got := DistanceKm(a.Coord(), b.Coord())
		if math.Abs(got-c.km) > c.tol {
			t.Errorf("%s-%s: %.0f km, want %.0f±%.0f", c.a, c.b, got, c.km, c.tol)
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Coord{math.Mod(lat1, 90), math.Mod(lon1, 180)}
		b := Coord{math.Mod(lat2, 90), math.Mod(lon2, 180)}
		dab, dba := DistanceKm(a, b), DistanceKm(b, a)
		if math.IsNaN(dab) || dab < 0 {
			return false
		}
		if math.Abs(dab-dba) > 1e-6 { // symmetry
			return false
		}
		if DistanceKm(a, a) > 1e-6 { // identity
			return false
		}
		return dab <= math.Pi*earthRadiusKm+1 // bounded by half circumference
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestNearest(t *testing.T) {
	db := World()
	london := metroByName(t, db, "London").ID
	paris := metroByName(t, db, "Paris").ID
	tokyo := metroByName(t, db, "Tokyo").ID
	ams := metroByName(t, db, "Amsterdam").ID
	got := db.Nearest(london, []MetroID{tokyo, paris, ams})
	if got != paris {
		t.Errorf("nearest to London should be Paris, got %v", db.MustMetro(got).Name)
	}
	if db.Nearest(london, nil) != 0 {
		t.Error("nearest over empty candidates should be 0")
	}
}

func TestRankByDistance(t *testing.T) {
	db := World()
	origin := metroByName(t, db, "Frankfurt").ID
	cands := []MetroID{
		metroByName(t, db, "Tokyo").ID,
		metroByName(t, db, "Munich").ID,
		metroByName(t, db, "New York").ID,
		metroByName(t, db, "Paris").ID,
	}
	ranked := db.RankByDistance(origin, cands)
	if len(ranked) != len(cands) {
		t.Fatal("rank changed candidate count")
	}
	for i := 1; i < len(ranked); i++ {
		if db.Distance(origin, ranked[i]) < db.Distance(origin, ranked[i-1]) {
			t.Fatal("not sorted by distance")
		}
	}
	if db.MustMetro(ranked[0]).Name != "Munich" {
		t.Errorf("closest to Frankfurt should be Munich, got %s", db.MustMetro(ranked[0]).Name)
	}
}

func TestGeoIPExact(t *testing.T) {
	db := World()
	g := NewGeoIP(db, 0, 1)
	g.Register(0x0a000000, 5)
	if got := g.Lookup(0x0a000000); got != 5 {
		t.Errorf("Lookup = %d, want 5", got)
	}
	if got := g.Lookup(0x0b000000); got != 0 {
		t.Errorf("unknown prefix should return 0, got %d", got)
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestGeoIPErrorInjection(t *testing.T) {
	db := World()
	g := NewGeoIP(db, 1.0, 7) // always err
	truth := metroByName(t, db, "Frankfurt").ID
	errors := 0
	for i := 0; i < 200; i++ {
		base := uint32(i) << 8
		g.Register(base, truth)
		got := g.Lookup(base)
		if got == 0 {
			t.Fatal("registered prefix must resolve")
		}
		if got != truth {
			errors++
			// The recorded metro must be geographically near the truth.
			if d := db.Distance(truth, got); d > 1500 {
				t.Errorf("error perturbation went %0.f km away", d)
			}
		}
	}
	if errors != 200 {
		t.Errorf("errRate=1.0 should always perturb, got %d/200", errors)
	}

	g2 := NewGeoIP(db, 0.0, 7)
	for i := 0; i < 200; i++ {
		base := uint32(i) << 8
		g2.Register(base, truth)
		if g2.Lookup(base) != truth {
			t.Fatal("errRate=0 must never perturb")
		}
	}
}

func TestGeoIPOneLocationPerPrefix(t *testing.T) {
	// Table 1 of the paper: there is only one source location per /24.
	g := NewGeoIP(World(), 0, 1)
	g.Register(42<<8, 3)
	g.Register(42<<8, 9)
	if got := g.Lookup(42 << 8); got != 9 {
		t.Errorf("re-registration should overwrite, got %d", got)
	}
	if g.Len() != 1 {
		t.Errorf("still one entry expected, got %d", g.Len())
	}
}

// TestGeoIPConcurrentRegisterLookup exercises the entries map from
// concurrent writers and readers, including a rebuild via
// NewGeoIPFromEntries (whose copy loop once wrote the map without the
// lock): the locks lint pins the discipline statically, this pins
// it under the race detector.
func TestGeoIPConcurrentRegisterLookup(t *testing.T) {
	db := World()
	g := NewGeoIP(db, 0, 1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				g.Register(uint32(w<<16|i)<<8, MetroID(1+(i%db.Len())))
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		_ = g.Lookup(uint32(i) << 8)
		_ = g.Len()
	}
	wg.Wait()
	rebuilt := NewGeoIPFromEntries(db, g.Entries())
	if rebuilt.Len() != g.Len() {
		t.Fatalf("rebuilt Len = %d, want %d", rebuilt.Len(), g.Len())
	}
	if got, want := rebuilt.Lookup(uint32(1)<<8), g.Lookup(uint32(1)<<8); got != want {
		t.Fatalf("rebuilt Lookup = %v, want %v", got, want)
	}
}
