package netsim

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"tipsy/internal/bgp"
	"tipsy/internal/geo"
	"tipsy/internal/ipfix"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

// testSim builds a small deterministic simulator.
func testSim(t testing.TB, seed int64) *Sim {
	metros := geo.World()
	g := topology.Generate(topology.TestGenConfig(seed), metros)
	w := traffic.Generate(traffic.TestConfig(seed), g, metros)
	cfg := DefaultConfig(seed)
	return New(cfg, g, metros, w)
}

func TestLinksWellFormed(t *testing.T) {
	s := testSim(t, 1)
	if s.NumLinks() < 50 {
		t.Fatalf("only %d links; want a wide peering surface", s.NumLinks())
	}
	cloudAS, _ := s.Graph().AS(s.Graph().Cloud())
	cloudMetros := map[geo.MetroID]bool{}
	for _, m := range cloudAS.Metros {
		cloudMetros[m] = true
	}
	for _, id := range s.Links() {
		l, ok := s.Link(id)
		if !ok {
			t.Fatalf("link %d missing", id)
		}
		if l.ID != id {
			t.Errorf("link %d has ID %d", id, l.ID)
		}
		if l.Capacity < wan.GbpsToBps(10) || l.Capacity > wan.GbpsToBps(400) {
			t.Errorf("link %d: capacity %.0f out of range", id, l.Capacity)
		}
		if !s.Graph().HasEdge(l.PeerAS, s.Graph().Cloud()) {
			t.Errorf("link %d faces %v which has no cloud relationship", id, l.PeerAS)
		}
		if l.Router == "" {
			t.Errorf("link %d has no router name", id)
		}
	}
	if _, ok := s.Link(0); ok {
		t.Error("link 0 should not resolve")
	}
	if _, ok := s.Link(wan.LinkID(s.NumLinks() + 1)); ok {
		t.Error("out-of-range link should not resolve")
	}
}

func TestLinksOfASConsistent(t *testing.T) {
	s := testSim(t, 1)
	total := 0
	for _, e := range s.Graph().Edges(s.Graph().Cloud()) {
		ids := s.LinksOfAS(e.Neighbor)
		if len(ids) == 0 {
			t.Errorf("cloud neighbor %v has no links", e.Neighbor)
		}
		total += len(ids)
		for _, id := range ids {
			l, _ := s.Link(id)
			if l.PeerAS != e.Neighbor {
				t.Errorf("link %d in %v's list but faces %v", id, e.Neighbor, l.PeerAS)
			}
		}
	}
	if total != s.NumLinks() {
		t.Errorf("links by AS cover %d of %d links", total, s.NumLinks())
	}
}

func TestResolveSharesSumToOne(t *testing.T) {
	s := testSim(t, 2)
	flows := s.Workload().Flows
	resolved := 0
	for i := range flows {
		if i%7 != 0 {
			continue
		}
		shares := s.ResolveFlow(&flows[i], 5)
		if len(shares) == 0 {
			continue
		}
		resolved++
		sum := 0.0
		seen := map[wan.LinkID]bool{}
		for _, sh := range shares {
			sum += sh.Frac
			if sh.Frac <= 0 || sh.Frac > 1+1e-9 {
				t.Fatalf("flow %d: share %f out of range", i, sh.Frac)
			}
			if seen[sh.Link] {
				t.Fatalf("flow %d: duplicate link %d in shares", i, sh.Link)
			}
			seen[sh.Link] = true
			if _, ok := s.Link(sh.Link); !ok {
				t.Fatalf("flow %d: unknown link %d", i, sh.Link)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("flow %d: shares sum to %f", i, sum)
		}
	}
	if resolved == 0 {
		t.Fatal("no flow resolved")
	}
}

func TestResolveDeterministic(t *testing.T) {
	a := testSim(t, 3)
	b := testSim(t, 3)
	for i := 0; i < 200; i++ {
		fa, fb := &a.Workload().Flows[i], &b.Workload().Flows[i]
		sa, sb := a.ResolveFlow(fa, 10), b.ResolveFlow(fb, 10)
		if len(sa) != len(sb) {
			t.Fatalf("flow %d: share counts differ", i)
		}
		for j := range sa {
			if sa[j] != sb[j] {
				t.Fatalf("flow %d: share %d differs: %+v vs %+v", i, j, sa[j], sb[j])
			}
		}
	}
}

func TestResolveRespectsAvailability(t *testing.T) {
	s := testSim(t, 4)
	flows := s.Workload().Flows
	for i := range flows {
		f := &flows[i]
		shares := s.ResolveFlow(f, 0)
		if len(shares) == 0 {
			continue
		}
		prefix := s.FlowPrefix(f)
		for _, sh := range shares {
			if !s.Available(sh.Link, prefix, 0) {
				t.Fatalf("flow %d resolved onto unavailable link %d", i, sh.Link)
			}
		}
	}
}

func TestWithdrawalShiftsTraffic(t *testing.T) {
	s := testSim(t, 5)
	flows := s.Workload().Flows
	// Find a flow with a dominant first link.
	var f *traffic.FlowSpec
	var top wan.LinkID
	for i := range flows {
		shares := s.ResolveFlow(&flows[i], 0)
		if len(shares) > 0 {
			f, top = &flows[i], shares[0].Link
			break
		}
	}
	if f == nil {
		t.Fatal("no resolvable flow")
	}
	prefix := s.FlowPrefix(f)
	s.Withdraw(top, prefix)
	if !s.IsWithdrawn(top, prefix) {
		t.Fatal("withdrawal not recorded")
	}
	after := s.ResolveFlow(f, 0)
	for _, sh := range after {
		if sh.Link == top {
			t.Fatalf("withdrawn link %d still receives traffic", top)
		}
	}
	if len(after) == 0 {
		t.Fatal("flow lost entirely after a single-link withdrawal")
	}
	// Re-announce restores the original resolution.
	s.Announce(top, prefix)
	restored := s.ResolveFlow(f, 0)
	if len(restored) == 0 || restored[0].Link != top {
		t.Error("re-announcement did not restore the original ingress")
	}
}

func TestWithdrawalPrefersSamePeer(t *testing.T) {
	// The §2 incident pattern: withdrawing a prefix on one of a peer's
	// links usually shifts traffic to other links of the same peer
	// first (I1 -> I2). Verify the shifted-to link is most often the
	// same AS.
	s := testSim(t, 6)
	flows := s.Workload().Flows
	samePeer, shifted := 0, 0
	for i := range flows {
		f := &flows[i]
		shares := s.ResolveFlow(f, 0)
		if len(shares) == 0 {
			continue
		}
		top := shares[0].Link
		tl, _ := s.Link(top)
		if len(s.LinksOfAS(tl.PeerAS)) < 2 {
			continue
		}
		prefix := s.FlowPrefix(f)
		s.Withdraw(top, prefix)
		after := s.ResolveFlow(f, 0)
		s.Announce(top, prefix)
		if len(after) == 0 {
			continue
		}
		shifted++
		al, _ := s.Link(after[0].Link)
		if al.PeerAS == tl.PeerAS {
			samePeer++
		}
		if shifted >= 150 {
			break
		}
	}
	if shifted < 50 {
		t.Fatalf("only %d shifted flows; test underpowered", shifted)
	}
	if float64(samePeer)/float64(shifted) < 0.5 {
		t.Errorf("only %d/%d withdrawals shifted to the same peer; expected same-peer preference", samePeer, shifted)
	}
}

func TestOutageExcludesLink(t *testing.T) {
	s := testSim(t, 7)
	var out Outage
	found := false
	for _, o := range s.Outages().All() {
		if o.Duration() >= 2 {
			out, found = o, true
			break
		}
	}
	if !found {
		t.Skip("no outage in schedule")
	}
	flows := s.Workload().Flows
	for i := range flows {
		shares := s.ResolveFlow(&flows[i], out.Start)
		for _, sh := range shares {
			if sh.Link == out.Link {
				t.Fatalf("flow %d resolved onto outaged link %d", i, out.Link)
			}
		}
	}
}

func TestDirectPeerUsuallyLandsOnOwnLinks(t *testing.T) {
	s := testSim(t, 8)
	flows := s.Workload().Flows
	own, total := 0.0, 0.0
	for i := range flows {
		f := &flows[i]
		if !s.Graph().HasEdge(f.SrcAS, s.Graph().Cloud()) {
			continue
		}
		shares := s.ResolveFlow(f, 0)
		for _, sh := range shares {
			l, _ := s.Link(sh.Link)
			total += sh.Frac
			if l.PeerAS == f.SrcAS {
				own += sh.Frac
			}
		}
	}
	if total == 0 {
		t.Fatal("no direct-peer flows")
	}
	frac := own / total
	if frac < 0.5 {
		t.Errorf("direct peers land on their own links only %.0f%% of the time", frac*100)
	}
	if frac > 0.999 {
		t.Errorf("direct peers always use their own links (%.4f); islands/local-exit not exercised", frac)
	}
}

func TestPolicyDriftChangesResolutions(t *testing.T) {
	s := testSim(t, 9)
	flows := s.Workload().Flows
	changed := 0
	checked := 0
	for i := range flows {
		f := &flows[i]
		early := s.ResolveFlow(f, 0)
		late := s.ResolveFlow(f, 24*60) // 60 days later
		if len(early) == 0 || len(late) == 0 {
			continue
		}
		checked++
		if early[0].Link != late[0].Link {
			changed++
		}
		if checked >= 600 {
			break
		}
	}
	if checked < 100 {
		t.Fatal("not enough resolvable flows")
	}
	if changed == 0 {
		t.Error("no flow changed ingress across 60 days; policy drift inert")
	}
	if changed > checked*2/3 {
		t.Errorf("%d/%d flows changed ingress; drift too aggressive for historical models to work", changed, checked)
	}
}

func TestRunEmitsRecordsAndGroundTruth(t *testing.T) {
	s := testSim(t, 10)
	var records []ipfix.FlowRecord
	var hours []wan.Hour
	s.Run(RunOptions{
		From: 0, To: 3,
		Sink: RecordSinkFunc(func(h wan.Hour, link wan.LinkID, rec *ipfix.FlowRecord) {
			records = append(records, *rec)
			hours = append(hours, h)
		}),
	})
	if len(records) == 0 {
		t.Fatal("no IPFIX records emitted")
	}
	for i, rec := range records {
		if rec.Ingress == 0 || int(rec.Ingress) > s.NumLinks() {
			t.Fatalf("record %d: bad ingress %d", i, rec.Ingress)
		}
		if rec.Octets == 0 {
			t.Fatalf("record %d: zero octets", i)
		}
		if rec.StartSecs/3600 != uint32(hours[i]) {
			t.Fatalf("record %d: timestamp %d outside hour %d", i, rec.StartSecs, hours[i])
		}
		if _, _, ok := s.DstMetadata(rec.DstAddr); !ok {
			t.Fatalf("record %d: destination %x has no metadata", i, rec.DstAddr)
		}
	}
	// Ground truth must be populated for simulated hours.
	var truth float64
	for _, id := range s.Links() {
		truth += s.LinkBytes(1, id)
	}
	if truth == 0 {
		t.Error("no ground-truth link bytes accumulated")
	}
}

// TestRunDeterministicAcrossWorkerCounts holds Run's output to the
// same records and the same LinkBytes bits at GOMAXPROCS 1, 2 and 8,
// for flow counts around the chunk size, over a horizon with outages
// and a withdrawal made mid-run.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	metros := geo.World()
	g := topology.Generate(topology.TestGenConfig(11), metros)
	full := traffic.Generate(traffic.TestConfig(11), g, metros)
	const hours = 30
	type output struct {
		recs []ipfix.FlowRecord
		lb   []uint64
	}
	collect := func(nFlows, procs int) output {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		w := *full
		w.Flows = full.Flows[:nFlows]
		cfg := DefaultConfig(11)
		cfg.OutagesPerLinkYear = 200
		s := New(cfg, g, metros, &w)
		var out output
		withdrawn := false
		s.Run(RunOptions{From: 0, To: hours,
			Sink: RecordSinkFunc(func(h wan.Hour, link wan.LinkID, rec *ipfix.FlowRecord) {
				out.recs = append(out.recs, *rec)
			}),
			OnHourEnd: func(h wan.Hour) {
				if h < 9 || withdrawn || len(out.recs) == 0 {
					return
				}
				// Withdraw the last recorded flow's prefix from its link.
				last := out.recs[len(out.recs)-1]
				for i := len(w.Flows) - 1; i >= 0; i-- {
					if f := &w.Flows[i]; f.SrcAddr == last.SrcAddr && f.DstAddr == last.DstAddr {
						s.Withdraw(wan.LinkID(last.Ingress), s.FlowPrefix(f))
						withdrawn = true
						return
					}
				}
			}})
		if !withdrawn {
			t.Fatalf("%d flows: no record to withdraw from", nFlows)
		}
		for h := wan.Hour(0); h < hours; h++ {
			for _, id := range s.Links() {
				out.lb = append(out.lb, math.Float64bits(s.LinkBytes(h, id)))
			}
		}
		return out
	}
	for _, n := range []int{1, runChunk - 1, runChunk + 1, len(full.Flows)} {
		want := collect(n, 1)
		for _, procs := range []int{2, 8} {
			got := collect(n, procs)
			if !slices.Equal(got.recs, want.recs) {
				t.Errorf("%d flows: records at GOMAXPROCS %d differ from GOMAXPROCS 1 (%d vs %d records)",
					n, procs, len(got.recs), len(want.recs))
			}
			if !slices.Equal(got.lb, want.lb) {
				t.Errorf("%d flows: LinkBytes at GOMAXPROCS %d differ from GOMAXPROCS 1", n, procs)
			}
		}
	}
}

func TestSamplingRoughlyUnbiased(t *testing.T) {
	s := testSim(t, 12)
	var sampled float64
	s.Run(RunOptions{From: 0, To: 6, Sink: RecordSinkFunc(
		func(h wan.Hour, link wan.LinkID, rec *ipfix.FlowRecord) {
			sampled += float64(rec.Octets)
		})})
	var truth float64
	for h := wan.Hour(0); h < 6; h++ {
		for _, id := range s.Links() {
			truth += s.LinkBytes(h, id)
		}
	}
	if truth == 0 {
		t.Fatal("no traffic simulated")
	}
	ratio := sampled / truth
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("sampled estimate / truth = %.3f; sampling badly biased", ratio)
	}
}

// sampleShares runs sampleFlow at the given interval over n shares of
// (bytes, packets), each under a distinct (flow, link, hour) key, and
// returns the sum of the observed shares' scaled octet estimates and
// the number of shares the sampler missed.
func sampleShares(interval uint32, n int, bytes, packets float64) (octets float64, missed int) {
	s := &Sim{cfg: Config{SamplingInterval: interval}}
	for i := 0; i < n; i++ {
		f := &traffic.FlowSpec{ID: i}
		o, _, ok := s.sampleFlow(f, wan.LinkID(1+i%7), wan.Hour(i%24), bytes, packets)
		if !ok {
			missed++
			continue
		}
		octets += float64(o)
	}
	return octets, missed
}

func TestSampleFlowIntervalOnePassesThrough(t *testing.T) {
	s := &Sim{cfg: Config{SamplingInterval: 1}}
	f := &traffic.FlowSpec{ID: 3}
	for _, c := range []struct {
		bytes, packets float64
		octets, pkts   uint64
		ok             bool
	}{
		{1000, 10, 1000, 10, true},
		{1000, 0.25, 1000, 1, true}, // a share of a packet still reports one
		{0, 10, 0, 0, false},
	} {
		o, p, ok := s.sampleFlow(f, 2, 5, c.bytes, c.packets)
		if o != c.octets || p != c.pkts || ok != c.ok {
			t.Errorf("sampleFlow(%v B, %v pkt) at 1/1 = %d, %d, %v; want %d, %d, %v",
				c.bytes, c.packets, o, p, ok, c.octets, c.pkts, c.ok)
		}
	}
}

func TestSampleFlowUnbiased(t *testing.T) {
	const trials = 3000
	const octets, packets = 1 << 24, 40960 // 10 expected samples per share
	sum, missed := sampleShares(4096, trials, octets, packets)
	mean := sum / trials
	if math.Abs(mean-octets)/octets > 0.05 {
		t.Errorf("sampling biased: mean %.0f vs true %d", mean, octets)
	}
	if missed >= trials/100 {
		t.Errorf("share with 10 expected samples missed too often: %d/%d", missed, trials)
	}
}

func TestSampleFlowMissesSinglePackets(t *testing.T) {
	_, missed := sampleShares(4096, 1000, 1500, 1)
	if missed < 900 {
		t.Errorf("single-packet shares should nearly always be missed at 1/4096, missed %d/1000", missed)
	}
}

func TestPoissonHashMoments(t *testing.T) {
	// 29.9 and 30.1 straddle the switch from the product-of-uniforms
	// draw to the normal approximation.
	for _, lambda := range []float64{0.5, 5, 29.9, 30.1, 50, 500} {
		const n = 20000
		var sum, sum2 float64
		for i := uint64(0); i < n; i++ {
			v := float64(poissonHash(traffic.Hash(i), lambda))
			sum += v
			sum2 += v * v
		}
		mean := sum / n
		variance := sum2/n - mean*mean
		if math.Abs(mean-lambda)/lambda > 0.05 {
			t.Errorf("lambda=%v: mean %.3f", lambda, mean)
		}
		if math.Abs(variance-lambda)/lambda > 0.15 {
			t.Errorf("lambda=%v: variance %.3f", lambda, variance)
		}
	}
}

func TestSourceSpreadAcrossLinks(t *testing.T) {
	// Figure 3's premise: a 1-hop source AS's traffic, across all its
	// flows, spreads over multiple peering links — often including
	// links that are not its own direct links.
	s := testSim(t, 13)
	flows := s.Workload().Flows
	linksUsed := map[bgp.ASN]map[wan.LinkID]bool{}
	for i := range flows {
		f := &flows[i]
		if !s.Graph().HasEdge(f.SrcAS, s.Graph().Cloud()) {
			continue
		}
		for _, sh := range s.ResolveFlow(f, 0) {
			m := linksUsed[f.SrcAS]
			if m == nil {
				m = map[wan.LinkID]bool{}
				linksUsed[f.SrcAS] = m
			}
			m[sh.Link] = true
		}
	}
	multi := 0
	foreign := 0
	for asn, set := range linksUsed {
		if len(set) > 1 {
			multi++
		}
		for l := range set {
			if link, _ := s.Link(l); link.PeerAS != asn {
				foreign++
				break
			}
		}
	}
	if multi == 0 {
		t.Error("no direct-peer AS spreads over multiple links")
	}
	if foreign == 0 {
		t.Error("no direct-peer AS ever arrives on another AS's links; Figure 3 behaviour missing")
	}
}

func TestOutageScheduleProperties(t *testing.T) {
	sched := GenOutages(500, 365*24, 1.6, 42)
	linksWithOutage := 0
	for li := 0; li < 500; li++ {
		outs := sched.ForLink(wan.LinkID(li + 1))
		if len(outs) > 0 {
			linksWithOutage++
		}
		for i, o := range outs {
			if o.End <= o.Start {
				t.Fatalf("link %d outage %d empty", li+1, i)
			}
			if i > 0 && o.Start < outs[i-1].End {
				t.Fatalf("link %d outages overlap", li+1)
			}
		}
	}
	// Figure 6: ~80% of links see an outage within a year.
	frac := float64(linksWithOutage) / 500
	if frac < 0.6 || frac > 0.95 {
		t.Errorf("%.0f%% of links had an outage in a year; want near 80%%", frac*100)
	}
	// Down() agrees with the schedule.
	for _, o := range sched.All()[:10] {
		if !sched.Down(o.Link, o.Start) || !sched.Down(o.Link, o.End-1) {
			t.Error("Down() misses a scheduled outage")
		}
		if sched.Down(o.Link, o.End) {
			t.Error("Down() extends past outage end")
		}
	}
}

func TestDurationsMostlyInEvalBand(t *testing.T) {
	sched := GenOutages(300, 365*24, 1.6, 7)
	inBand, total := 0, 0
	for _, o := range sched.All() {
		total++
		if d := o.Duration(); d >= 1 && d <= 24 {
			inBand++
		}
	}
	if total == 0 {
		t.Fatal("no outages generated")
	}
	if frac := float64(inBand) / float64(total); frac < 0.85 {
		t.Errorf("only %.0f%% of outages in the 1-24h evaluation band", frac*100)
	}
	if inBand == total {
		t.Error("no long outages; the >24h exclusion path is never exercised")
	}
}

func TestGeoIPPopulated(t *testing.T) {
	s := testSim(t, 14)
	if s.GeoIP().Len() == 0 {
		t.Fatal("GeoIP empty")
	}
	miss := 0
	for _, f := range s.Workload().Flows {
		if s.GeoIP().Lookup(f.SrcPrefix) == 0 {
			miss++
		}
	}
	if miss > 0 {
		t.Errorf("%d flows have unregistered prefixes", miss)
	}
}
