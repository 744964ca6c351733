// Quickstart: simulate a small Internet+WAN, train TIPSY on a few
// days of telemetry, and predict where a flow will ingress — with and
// without a withdrawal on its favourite link.
package main

import (
	"fmt"
	"io"
	"os"

	"tipsy/internal/core"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/netsim"
	"tipsy/internal/pipeline"
	"tipsy/internal/serve"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

func main() {
	if err := run(1, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

// run executes the whole quickstart tour against the given seed,
// writing the narrative to w. It is the entry point the smoke test
// drives.
func run(seed int64, w io.Writer) error {
	// 1. Build a synthetic Internet around a cloud WAN.
	metros := geo.World()
	graph := topology.Generate(topology.TestGenConfig(seed), metros)
	workload := traffic.Generate(traffic.TestConfig(seed), graph, metros)
	sim := netsim.New(netsim.DefaultConfig(seed), graph, metros, workload)
	fmt.Fprintf(w, "simulated WAN: %d ASes, %d peering links, %d flow aggregates\n",
		graph.Len(), sim.NumLinks(), len(workload.Flows))

	// 2. Run four days of traffic through the IPFIX pipeline.
	agg := pipeline.NewAggregator(sim.GeoIP(), sim.DstMetadata)
	sim.Run(netsim.RunOptions{From: 0, To: 4 * 24, Sink: agg})
	records := agg.Records()
	fmt.Fprintf(w, "collected %d hourly flow aggregates\n", len(records))

	// 3. Train the serving models and take their ensemble: most
	// specific model first.
	models := serve.Train(records, 4*24, sim, metros)
	model := models.Ensemble()
	fmt.Fprintf(w, "trained %s (%d tuples)\n", model.Name(), models.Tuples())

	// 4. Predict for the biggest flow whose source AS has alternate
	// peering links (so the what-if below has somewhere to go).
	var big *traffic.FlowSpec
	for i := range workload.Flows {
		f := &workload.Flows[i]
		if len(sim.LinksOfAS(f.SrcAS)) < 2 {
			continue
		}
		if big == nil || f.BaseBps > big.BaseBps {
			big = f
		}
	}
	if big == nil {
		return fmt.Errorf("no flow with alternate peering links in seed %d workload", seed)
	}
	flow := features.FlowFeatures{
		AS:     big.SrcAS,
		Prefix: big.SrcPrefix,
		Loc:    sim.GeoIP().Lookup(big.SrcPrefix),
		Region: big.DstRegion,
		Type:   big.DstType,
	}
	fmt.Fprintf(w, "\nflow %v -> region %d (%v), %.0f Mbps:\n",
		flow.AS, flow.Region, flow.Type, big.BaseBps/1e6)
	preds := model.Predict(core.Query{Flow: flow, K: 3})
	printPreds(w, sim, preds)

	// 5. What if the top link loses the prefix? Ask again with the
	// link excluded — this is the what-if query the congestion
	// mitigation system runs before every withdrawal.
	if len(preds) > 0 {
		top := preds[0].Link
		fmt.Fprintf(w, "\nafter withdrawing the prefix from link %d:\n", top)
		printPreds(w, sim, model.Predict(core.Query{
			Flow: flow, K: 3,
			Exclude: func(l wan.LinkID) bool { return l == top },
		}))
	}
	return nil
}

func printPreds(w io.Writer, sim *netsim.Sim, preds []core.Prediction) {
	if len(preds) == 0 {
		fmt.Fprintln(w, "  (no prediction)")
		return
	}
	for i, p := range preds {
		l, _ := sim.Link(p.Link)
		m := sim.Metros().MustMetro(l.Metro)
		fmt.Fprintf(w, "  %d. link %-4d %-14s %-12s peer %-8v %5.1f%%\n",
			i+1, p.Link, l.Router, m.Name, l.PeerAS, p.Frac*100)
	}
}
