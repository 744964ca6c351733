package netsim

import (
	"runtime"
	"slices"
	"testing"

	"tipsy/internal/geo"
	"tipsy/internal/ipfix"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

// TestRunMatchesMemoFreeResolution is the oracle for Run's one-day
// memo: with every packet sampled, each delivered record must carry
// exactly the bytes the memo-free Truth assigns its link, and
// each LinkBytes must be the flow-order sum of those shares. The run
// crosses day boundaries on which source ASes re-roll their policy
// noise, and a withdrawal that is later taken back, under a high
// outage rate, so a memo that kept a stale split would deliver it.
func TestRunMatchesMemoFreeResolution(t *testing.T) {
	metros := geo.World()
	g := topology.Generate(topology.TestGenConfig(5), metros)
	w := traffic.Generate(traffic.TestConfig(5), g, metros)
	cfg := DefaultConfig(5)
	cfg.SamplingInterval = 1
	cfg.OutagesPerLinkYear = 300
	s := New(cfg, g, metros, w)
	const from, to = 12, 62
	const withdrawAt, announceAt = 20, 40

	rerolled := false
	for i := range w.Flows {
		asn := w.Flows[i].SrcAS
		for d := int32(from / 24); d < int32((to-1)/24); d++ {
			rerolled = rerolled || s.Epoch(asn, d) != s.Epoch(asn, d+1)
		}
	}
	if !rerolled {
		t.Fatal("no source AS re-rolls its policy noise during the run")
	}
	down := 0
	for h := wan.Hour(from); h < to; h++ {
		for _, id := range s.Links() {
			if s.outages.Down(id, h) {
				down++
			}
		}
	}
	if down == 0 {
		t.Fatal("no link is down during the run")
	}

	var got []ipfix.FlowRecord
	var wdLink wan.LinkID
	var wdFlow *traffic.FlowSpec
	checked := 0
	s.Run(RunOptions{From: from, To: to,
		Sink: RecordSinkFunc(func(h wan.Hour, link wan.LinkID, rec *ipfix.FlowRecord) {
			got = append(got, *rec)
		}),
		OnHourEnd: func(h wan.Hour) {
			var want []ipfix.FlowRecord
			lb := make([]float64, s.NumLinks())
			for i := range w.Flows {
				f := &w.Flows[i]
				bytes, packets := traffic.VolumeAt(f, metros, h)
				if bytes <= 0 {
					continue
				}
				shares := s.Truth(f, h, nil).Shares
				for _, sh := range shares {
					lb[sh.Link-1] += bytes * sh.Frac
				}
				slices.SortFunc(shares, func(a, b LinkShare) int { return int(a.Link) - int(b.Link) })
				for _, sh := range shares {
					if bytes*sh.Frac <= 0 {
						continue
					}
					want = append(want, ipfix.FlowRecord{
						SrcAddr: f.SrcAddr, DstAddr: f.DstAddr,
						Octets:    uint64(bytes * sh.Frac),
						Packets:   uint64(max(1, packets*sh.Frac)),
						Ingress:   uint32(sh.Link),
						SrcAS:     uint32(f.SrcAS),
						StartSecs: uint32(h) * 3600, EndSecs: uint32(h)*3600 + 3599,
					})
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("hour %d: %d records delivered, memo-free resolution gives %d (or they differ)", h, len(got), len(want))
			}
			for _, id := range s.Links() {
				if s.LinkBytes(h, id) != lb[id-1] {
					t.Fatalf("hour %d link %d: LinkBytes %v, flow-order sum %v", h, id, s.LinkBytes(h, id), lb[id-1])
				}
			}
			checked += len(got)
			got = got[:0]

			switch h {
			case withdrawAt:
				wdFlow = &w.Flows[0]
				wdLink = s.Truth(wdFlow, h, nil).Shares[0].Link
				s.Withdraw(wdLink, s.FlowPrefix(wdFlow))
				if slices.ContainsFunc(s.Truth(wdFlow, h+1, nil).Shares, func(sh LinkShare) bool { return sh.Link == wdLink }) {
					t.Fatalf("flow 0 still ingresses on link %d after its prefix was withdrawn there", wdLink)
				}
			case announceAt:
				s.Announce(wdLink, s.FlowPrefix(wdFlow))
			}
		}})
	if checked == 0 {
		t.Fatal("no records checked")
	}
}

// TestTruthExcludeIsAWithdrawal pins what Truth's exclusion set means:
// excluding a link resolves exactly as withdrawing the flow's prefix
// there does, failover scramble included. Seeding the walk's excluded
// set with it instead keys the scramble by a different set and
// disagrees on some flow-hours at this outage rate. Every link the
// walk routed around must be unavailable.
func TestTruthExcludeIsAWithdrawal(t *testing.T) {
	metros := geo.World()
	compared := 0
	for seed := int64(1); seed <= 3; seed++ {
		g := topology.Generate(topology.TestGenConfig(seed), metros)
		w := traffic.Generate(traffic.TestConfig(seed), g, metros)
		cfg := DefaultConfig(seed)
		cfg.SamplingInterval = 1
		cfg.OutagesPerLinkYear = 300
		s := New(cfg, g, metros, w)
		for _, h := range []wan.Hour{0, 100, 300} {
			for i := range w.Flows {
				f := &w.Flows[i]
				prefix := s.FlowPrefix(f)
				steady := s.Truth(f, h, nil)
				if !slices.IsSorted(steady.Excluded) {
					t.Fatalf("seed %d hour %d flow %d: excluded links %v not sorted", seed, h, i, steady.Excluded)
				}
				for _, l := range steady.Excluded {
					if s.Available(l, prefix, h) {
						t.Fatalf("seed %d hour %d flow %d: routed around available link %d", seed, h, i, l)
					}
				}
				if len(steady.Shares) == 0 {
					continue
				}
				top := steady.Shares[0].Link
				got := s.Truth(f, h, []wan.LinkID{top})
				if !slices.Contains(got.Excluded, top) {
					t.Fatalf("seed %d hour %d flow %d: excluding link %d, the walk routed around %v", seed, h, i, top, got.Excluded)
				}
				s.Withdraw(top, prefix)
				want := s.Truth(f, h, nil)
				s.Announce(top, prefix)
				if !slices.Equal(got.Shares, want.Shares) || !slices.Equal(got.Excluded, want.Excluded) || got.Decided != want.Decided {
					t.Fatalf("seed %d hour %d flow %d: excluding link %d gives %+v, withdrawing it %+v", seed, h, i, top, got, want)
				}
				compared++
			}
		}
	}
	if compared == 0 {
		t.Fatal("no flow resolved")
	}
}

// TestRunForgetsFinishedDays runs tipsyd's environment one day per Run
// for 120 days: the live heap may not grow with the days simulated, as
// it did while every resolution and every hour of ground truth was
// kept.
func TestRunForgetsFinishedDays(t *testing.T) {
	const seed = 1 // tipsyd's recipe: topology seed, flows seed+10, sim seed+20
	metros := geo.World()
	g := topology.Generate(topology.TestGenConfig(seed), metros)
	w := traffic.Generate(traffic.TestConfig(seed+10), g, metros)
	cfg := DefaultConfig(seed + 20)
	cfg.HorizonHours = wan.Hour(400 * 24)
	cfg.OutagesPerLinkYear = 10
	s := New(cfg, g, metros, w)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var at40 uint64
	for d := wan.Hour(0); d < 120; d++ {
		s.Run(RunOptions{From: d * 24, To: (d + 1) * 24})
		if d+1 == 40 {
			at40 = heap()
		}
	}
	at120 := heap()
	runtime.KeepAlive(s)
	if at120 > at40+1<<20 {
		t.Fatalf("live heap grew from %.1f MB at day 40 to %.1f MB at day 120", float64(at40)/(1<<20), float64(at120)/(1<<20))
	}
}
