// Capacity: the Appendix C risk analysis. TIPSY predicts, for every
// peering link, which OTHER links would exceed 70% utilization if it
// failed — the what-if input to capacity planning, where provisioning
// a link takes weeks of lead time.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"tipsy/internal/dataset"
	"tipsy/internal/eval"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/netsim"
	"tipsy/internal/pipeline"
	"tipsy/internal/risk"
	"tipsy/internal/serve"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "capacity:", err)
		os.Exit(1)
	}
}

// run stages the analysis on a fixed seed and writes Table 12 and the
// most exposed link to w. It fails when no link is at risk, since
// then there is nothing to plan for. It is the entry point the tests
// drive.
func run(w io.Writer) error {
	const (
		seed    = 7
		trainTo = wan.Hour(8 * 24)
		testTo  = wan.Hour(11 * 24)
	)
	metros := geo.World()
	graph := topology.Generate(topology.TestGenConfig(seed), metros)
	workload := traffic.Generate(traffic.TestConfig(seed), graph, metros)
	simCfg := netsim.DefaultConfig(seed)
	simCfg.HorizonHours = testTo
	sim := netsim.New(simCfg, graph, metros, workload)

	// Push a handful of links into the warm zone so single-link
	// failures have consequences worth planning for.
	for i, id := range sim.Links() {
		if i%29 == 0 {
			sim.InflateToUtilization(id, 0.55, 0, 24)
		}
	}

	agg := pipeline.NewAggregator(sim.GeoIP(), sim.DstMetadata)
	sim.Run(netsim.RunOptions{From: 0, To: testTo, Sink: agg})
	all := agg.Records()
	train := dataset.Window(all, 0, trainTo)
	test := dataset.Window(all, trainTo, testTo)
	fmt.Fprintf(w, "trained on %d records, analyzing %d test records (%d links)\n\n",
		len(train), len(test), sim.NumLinks())

	// Appendix C uses the Hist_AL model for the what-if predictions:
	// the served generation's fit, as tipsyd's daily retrain makes it.
	model := serve.Train(train, trainTo, sim, metros).Hist(features.SetAL)
	rows := risk.AtRisk(sim, model, test, risk.DefaultOptions())
	fmt.Fprint(w, risk.Format(rows, sim, 10))
	if len(rows) == 0 {
		return errors.New("no link is at risk in this window")
	}

	r := rows[0]
	l, _ := sim.Link(r.Link)
	a, _ := sim.Link(r.Affecting)
	lm := metros.MustMetro(l.Metro)
	am := metros.MustMetro(a.Metro)
	fmt.Fprintf(w, "\nmost exposed: %s (%s) would run hot for %d extra hours/week if %s (%s) failed —\n",
		l.Router, lm.Name, r.PredictedHours, a.Router, am.Name)
	fmt.Fprintln(w, "a candidate for provisioning ahead of the inevitable outage (cf. Figure 6).")

	// For context, report how well the model actually predicts this
	// test window.
	acc := eval.Accuracy(model, test, eval.Options{Ks: []int{3}})
	fmt.Fprintf(w, "\n(model top-3 accuracy on this window: %.1f%%)\n", acc[3]*100)
	return nil
}
