// Congestion: replay of the paper's §2 cascading-congestion incident.
//
// An enterprise workload ramps up and pushes one peering link past
// 85% ingress utilization. The congestion mitigation system withdraws
// anycast prefixes to shed load. Run twice on the identical incident:
//
//   - blind (pre-TIPSY): withdraw the biggest prefixes and hope —
//     shifted traffic can congest other links, forcing a cascade of
//     further withdrawals;
//   - with TIPSY: every candidate withdrawal is checked against the
//     predicted landing links' spare capacity first.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"tipsy/internal/cms"
	"tipsy/internal/geo"
	"tipsy/internal/netsim"
	"tipsy/internal/pipeline"
	"tipsy/internal/serve"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

const (
	seed       = 31
	trainHours = 72
	runHours   = 8
)

// incidentStats summarizes how one run of the incident went.
type incidentStats struct {
	cascadeHours int     // congested hours on links OTHER than the surging one
	cascadeLinks int     // distinct other links that congested
	peakUtil     float64 // worst utilization seen anywhere
	withdrawals  int
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "congestion:", err)
		os.Exit(1)
	}
}

// run replays the incident blind and with TIPSY and writes both runs
// and their comparison to w. It is the entry point the tests drive.
func run(w io.Writer) error {
	fmt.Fprintln(w, "=== blind mitigation (pre-TIPSY baseline) ===")
	blind, err := runIncident(w, true)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "=== TIPSY-guided mitigation ===")
	tipsy, err := runIncident(w, false)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-28s %10s %10s\n", "", "blind", "TIPSY")
	fmt.Fprintf(w, "%-28s %10d %10d\n", "cascaded congested hours", blind.cascadeHours, tipsy.cascadeHours)
	fmt.Fprintf(w, "%-28s %10d %10d\n", "cascaded links", blind.cascadeLinks, tipsy.cascadeLinks)
	fmt.Fprintf(w, "%-28s %9.0f%% %9.0f%%\n", "worst link utilization", blind.peakUtil*100, tipsy.peakUtil*100)
	fmt.Fprintf(w, "%-28s %10d %10d\n", "withdrawals issued", blind.withdrawals, tipsy.withdrawals)
	if tipsy.cascadeHours <= blind.cascadeHours && tipsy.peakUtil <= blind.peakUtil {
		fmt.Fprintln(w, "\nTIPSY's what-if checks kept the congestion from cascading.")
	}
	return nil
}

// runIncident builds the identical environment and incident, runs the
// CMS in the given mode, and narrates the run to w.
func runIncident(w io.Writer, blind bool) (incidentStats, error) {
	metros := geo.World()
	graph := topology.Generate(topology.TestGenConfig(seed), metros)
	workload := traffic.Generate(traffic.TestConfig(seed), graph, metros)
	simCfg := netsim.DefaultConfig(seed)
	simCfg.OutagesPerLinkYear = 0 // isolate the incident
	sim := netsim.New(simCfg, graph, metros, workload)

	// Train TIPSY on the days before the incident.
	agg := pipeline.NewAggregator(sim.GeoIP(), sim.DstMetadata)
	sim.Run(netsim.RunOptions{From: 0, To: trainHours, Sink: agg})
	model := serve.Train(agg.Records(), trainHours, sim, metros).Ensemble()

	// The incident, staged as in §2 of the paper: a transit peer's
	// link surges past threshold while the peer's other links — the
	// natural failover targets — are already running warm, so a blind
	// withdrawal shifts the surge onto links without headroom and the
	// congestion cascades through the peer (I1 -> I2 -> I3/I4).
	hot, ok := busiestTransitLink(sim)
	if !ok {
		return incidentStats{}, errors.New("no peer has the four links a transit incident needs")
	}
	l, _ := sim.Link(hot)
	for _, sib := range sim.LinksOfAS(l.PeerAS) {
		sl, _ := sim.Link(sib)
		if sib != hot && sl.Metro == l.Metro {
			sim.InflateToUtilization(sib, 0.80, trainHours, trainHours+runHours)
		}
	}
	// The peg projects with each flow's instantaneous link share, so
	// load-balancing rotation makes realized utilization come in
	// ~10%% under the target; aim correspondingly high.
	scale := sim.InflateToUtilization(hot, 1.02, trainHours, trainHours+runHours)
	m := sim.Metros().MustMetro(l.Metro)
	fmt.Fprintf(w, "incident: ingress surge (x%.0f) on link %d (%s, %s, peer %v, %.0fG; %d sibling links warm)\n",
		scale, hot, l.Router, m.Name, l.PeerAS, l.Capacity/1e9, len(sim.LinksOfAS(l.PeerAS))-1)

	cmsCfg := cms.DefaultConfig(workload.Anycast)
	cmsCfg.Blind = blind
	ctrl := cms.New(cmsCfg, sim, model, sim.GeoIP(), sim.DstMetadata)

	var stats incidentStats
	cascaded := map[wan.LinkID]bool{}
	sim.Run(netsim.RunOptions{
		From: trainHours, To: trainHours + runHours,
		Sink: ctrl,
		OnHourEnd: func(h wan.Hour) {
			for _, id := range sim.Links() {
				ll, _ := sim.Link(id)
				u := ll.Utilization(sim.LinkBytes(h, id), 3600)
				if u > stats.peakUtil {
					stats.peakUtil = u
				}
				if u >= cmsCfg.UtilThreshold {
					fmt.Fprintf(w, "  hour %d: link %-4d %-14s at %3.0f%%\n", h, id, ll.Router, u*100)
					if id != hot {
						stats.cascadeHours++
						cascaded[id] = true
					}
				}
			}
			ctrl.Step(h)
		},
	})
	stats.cascadeLinks = len(cascaded)

	for _, ev := range ctrl.Events() {
		ll, _ := sim.Link(ev.Link)
		fmt.Fprintf(w, "  event @h%d on %s (%.0f%%): withdrew %d prefixes, %d deferred as unsafe\n",
			ev.Hour, ll.Router, ev.Util*100, len(ev.Withdrawn), ev.Deferred)
		// In link order, so a seed prints one transcript.
		var targets []wan.LinkID
		for target := range ev.Predicted {
			targets = append(targets, target)
		}
		slices.Sort(targets)
		for _, target := range targets {
			tl, _ := sim.Link(target)
			fmt.Fprintf(w, "      predicted shift -> link %-4d %-14s %6.1f Gbps\n",
				target, tl.Router, ev.Predicted[target]*8/3600/1e9)
		}
	}
	stats.withdrawals = len(ctrl.Active())
	fmt.Fprintf(w, "  %s\n", ctrl.Summary())
	return stats, nil
}

// busiestTransitLink picks the busiest link whose peer AS has several
// other links — a transit-style peer, so the incident has the §2
// shape: alternates exist, but within the same neighbor. It reports
// false when no such link carried traffic before the incident.
func busiestTransitLink(sim *netsim.Sim) (wan.LinkID, bool) {
	var hot wan.LinkID
	var best float64
	for _, id := range sim.Links() {
		l, _ := sim.Link(id)
		if len(sim.LinksOfAS(l.PeerAS)) < 4 {
			continue
		}
		var sum float64
		for h := wan.Hour(trainHours - 24); h < trainHours; h++ {
			sum += sim.LinkBytes(h, id)
		}
		if sum > best {
			best, hot = sum, id
		}
	}
	return hot, best > 0
}
