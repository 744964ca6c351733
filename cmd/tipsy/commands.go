package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"tipsy/internal/bgp"
	"tipsy/internal/core"
	"tipsy/internal/dataset"
	"tipsy/internal/eval"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/netsim"
	"tipsy/internal/pipeline"
	"tipsy/internal/serve"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

func cmdSimulate(args []string) error {
	fs := newFlagSet("simulate")
	seed := fs.Int64("seed", 1, "simulation seed")
	days := fs.Int("days", 11, "days of telemetry to produce")
	scale := fs.String("scale", "small", "environment scale: small | full")
	out := fs.String("o", "telemetry.tipsy", "output bundle path")
	fs.Parse(args)

	metros := geo.World()
	var topoCfg topology.GenConfig
	var trafCfg traffic.Config
	switch *scale {
	case "full":
		topoCfg = topology.DefaultGenConfig(*seed)
		trafCfg = traffic.DefaultConfig(*seed + 10)
	case "small":
		topoCfg = topology.TestGenConfig(*seed)
		trafCfg = traffic.TestConfig(*seed + 10)
		trafCfg.NFlows = 3000
	default:
		return fmt.Errorf("unknown -scale %q (want small or full)", *scale)
	}
	simCfg := netsim.DefaultConfig(*seed + 20)
	simCfg.HorizonHours = wan.Hour(*days * 24)
	simCfg.OutagesPerLinkYear = 10

	g := topology.Generate(topoCfg, metros)
	w := traffic.Generate(trafCfg, g, metros)
	sim := netsim.New(simCfg, g, metros, w)

	agg := pipeline.NewAggregator(sim.GeoIP(), sim.DstMetadata)
	sim.Run(netsim.RunOptions{From: 0, To: wan.Hour(*days * 24), Sink: agg})
	recs := agg.Records()

	var links []wan.Link
	for _, id := range sim.Links() {
		l, _ := sim.Link(id)
		links = append(links, l)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := dataset.Save(f, &dataset.File{
		Records:    recs,
		Links:      links,
		Anycast:    w.Anycast,
		GeoEntries: sim.GeoIP().Entries(),
	}); err != nil {
		return err
	}
	fmt.Printf("simulated %d days: %d ASes, %d links, %d flows -> %d aggregated records in %s\n",
		*days, g.Len(), sim.NumLinks(), len(w.Flows), len(recs), *out)
	return nil
}

func loadBundle(path string) (*dataset.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.Load(f)
}

func cmdInfo(args []string) error {
	fs := newFlagSet("info")
	in := fs.String("i", "telemetry.tipsy", "telemetry bundle path")
	sample := fs.Int("sample", 0, "print N sample flow tuples usable with 'tipsy predict'")
	fs.Parse(args)
	b, err := loadBundle(*in)
	if err != nil {
		return err
	}
	if *sample > 0 {
		seen := map[features.FlowFeatures]bool{}
		for _, r := range b.Records {
			if seen[r.Flow] {
				continue
			}
			seen[r.Flow] = true
			fmt.Printf("tipsy predict -src %s -as %d -region %d -svc %d\n",
				bgp.FormatIP(r.Flow.Prefix+7), uint32(r.Flow.AS), r.Flow.Region, r.Flow.Type)
			if len(seen) >= *sample {
				break
			}
		}
		return nil
	}
	var from, to wan.Hour
	var bytes float64
	for i, r := range b.Records {
		if i == 0 || r.Hour < from {
			from = r.Hour
		}
		if r.Hour >= to {
			to = r.Hour + 1
		}
		bytes += r.Bytes
	}
	c := features.Cardinalities(b.Records)
	fmt.Printf("records:  %d over hours [%d, %d) (%.1f days)\n", len(b.Records), from, to, float64(to-from)/24)
	fmt.Printf("bytes:    %.3e\n", bytes)
	fmt.Printf("links:    %d across %d anycast prefixes\n", len(b.Links), len(b.Anycast))
	fmt.Printf("features: %d ASes, %d /24s, %d locations, %d regions, %d types\n",
		c.AS, c.Prefix, c.Loc, c.Region, c.Type)
	fmt.Printf("tuples:   A=%d AP=%d AL=%d\n", c.TuplesA, c.TuplesAP, c.TuplesAL)
	return nil
}

func parseSet(s string) (features.Set, error) {
	switch strings.ToUpper(s) {
	case "A":
		return features.SetA, nil
	case "AP":
		return features.SetAP, nil
	case "AL":
		return features.SetAL, nil
	}
	return 0, fmt.Errorf("unknown feature set %q (want A, AP, or AL)", s)
}

func cmdTrain(args []string) error {
	fs := newFlagSet("train")
	in := fs.String("i", "telemetry.tipsy", "telemetry bundle path")
	setName := fs.String("set", "AP", "feature set: A | AP | AL")
	fromHour := fs.Int("from-hour", 0, "training window start (hours)")
	toHour := fs.Int("to-hour", 1<<30, "training window end (hours, exclusive)")
	out := fs.String("o", "model.tipsy", "output checkpoint path")
	fs.Parse(args)

	b, err := loadBundle(*in)
	if err != nil {
		return err
	}
	set, err := parseSet(*setName)
	if err != nil {
		return err
	}
	recs := dataset.Window(b.Records, wan.Hour(*fromHour), wan.Hour(*toHour))
	if len(recs) == 0 {
		return fmt.Errorf("no records in window [%d, %d)", *fromHour, *toHour)
	}
	// The checkpoint is stamped with the window's end: -to-hour, or
	// the hour after the last record when the data stops earlier.
	last := recs[0].Hour
	for _, r := range recs {
		last = max(last, r.Hour)
	}
	h := core.TrainHistorical(set, recs, core.DefaultHistOpts())
	ck := &core.Checkpoint{TrainedAt: min(wan.Hour(*toHour), last+1), Models: []*core.Historical{h}}
	if err := ck.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("trained %s on %d records: %d tuples, %d entries -> %s\n",
		h.Name(), len(recs), h.NumTuples(), h.NumEntries(), *out)
	return nil
}

func cmdPredict(args []string) error {
	fs := newFlagSet("predict")
	in := fs.String("i", "telemetry.tipsy", "telemetry bundle path (for link metadata and Geo-IP)")
	modelPath := fs.String("model", "model.tipsy", "checkpoint written by tipsy train")
	src := fs.String("src", "", "source IPv4 address (dotted quad)")
	asn := fs.Uint("as", 0, "source AS number")
	region := fs.Uint("region", 0, "destination region id")
	svc := fs.Uint("svc", 1, "destination service type id")
	k := fs.Int("k", 3, "how many links to predict")
	exclude := fs.String("exclude", "", "comma-separated link IDs to treat as unavailable")
	bytes := fs.Float64("bytes", 1e9, "flow volume to split across links")
	geoComplete := fs.Bool("geo", false, "apply geographic-distance completion (+G)")
	fs.Parse(args)

	// A malformed -src fails before any file is read.
	srcAddr, err := serve.ParseIPv4(*src)
	if err != nil {
		return err
	}
	b, err := loadBundle(*in)
	if err != nil {
		return err
	}
	ck, err := core.LoadCheckpointFile(*modelPath)
	if err != nil {
		return err
	}
	if len(ck.Models) != 1 {
		return fmt.Errorf("%s holds %d models; predict needs a checkpoint of one, as tipsy train writes", *modelPath, len(ck.Models))
	}
	hist := ck.Models[0]
	metros := geo.World()
	geoip := geo.NewGeoIPFromEntries(metros, b.GeoEntries)
	prefix := bgp.Slash24(srcAddr)
	flow := features.FlowFeatures{
		AS:     bgp.ASN(*asn),
		Prefix: prefix,
		Loc:    geoip.Lookup(prefix),
		Region: wan.Region(*region),
		Type:   wan.ServiceType(*svc),
	}
	excluded := map[wan.LinkID]bool{}
	if *exclude != "" {
		for _, part := range strings.Split(*exclude, ",") {
			id, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
			if err != nil {
				return fmt.Errorf("bad -exclude entry %q", part)
			}
			excluded[wan.LinkID(id)] = true
		}
	}
	var model core.Predictor = hist
	table := wan.NewTable(b.Links)
	if *geoComplete {
		model = core.NewGeoCompletion(hist, table, metros)
	}
	preds := model.Predict(core.Query{
		Flow: flow, K: *k,
		Exclude: func(l wan.LinkID) bool { return excluded[l] },
	})
	if len(preds) == 0 {
		fmt.Println("no prediction: flow tuple unseen in training (try a coarser feature set or -geo)")
		return nil
	}
	fmt.Printf("flow %v %s/24 loc%d -> region %d %v: predicted ingress links:\n",
		flow.AS, bgp.FormatIP(flow.Prefix), flow.Loc, flow.Region, flow.Type)
	for i, p := range preds {
		l, ok := table.Link(p.Link)
		router, peer := "?", "?"
		if ok {
			router = l.Router
			peer = l.PeerAS.String()
		}
		fmt.Printf("  %d. link %-5d %-14s peer %-9s %5.1f%%  (%.3e bytes)\n",
			i+1, p.Link, router, peer, p.Frac*100, p.Frac**bytes)
	}
	return nil
}

func cmdEval(args []string) error {
	fs := newFlagSet("eval")
	in := fs.String("i", "telemetry.tipsy", "telemetry bundle path")
	trainDays := fs.Int("train-days", 8, "training window length in days")
	fs.Parse(args)

	b, err := loadBundle(*in)
	if err != nil {
		return err
	}
	// The test window ends at the bundle's last hour: outage inference
	// allocates per hour of it.
	var end wan.Hour
	for _, r := range b.Records {
		if r.Hour >= end {
			end = r.Hour + 1
		}
	}
	split := wan.Hour(*trainDays * 24)
	e := &eval.Env{Dir: wan.NewTable(b.Links), Metros: geo.World(), TestTo: end}
	e.SplitAt(b.Records, split)
	if len(e.Train) == 0 || len(e.Test) == 0 {
		return fmt.Errorf("split at hour %d leaves an empty window (train=%d test=%d records)",
			split, len(e.Train), len(e.Test))
	}
	fmt.Print(eval.FormatAccuracyTable(
		fmt.Sprintf("Overall prediction accuracy (%d train days, %d test records)", *trainDays, len(e.Test)),
		eval.Table4(e)))
	return nil
}
