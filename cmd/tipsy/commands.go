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

	// The world is the experiment harness's, run for -days.
	var cfg eval.EnvConfig
	switch *scale {
	case "full":
		cfg = eval.DefaultEnvConfig(*seed)
	case "small":
		cfg = eval.SmallEnvConfig(*seed)
	default:
		return fmt.Errorf("unknown -scale %q (want small or full)", *scale)
	}
	cfg.SimCfg.HorizonHours = wan.Hour(*days * 24)

	metros := geo.World()
	g := topology.Generate(cfg.TopoCfg, metros)
	w := traffic.Generate(cfg.TrafficCfg, g, metros)
	sim := netsim.New(cfg.SimCfg, g, metros, w)

	agg := pipeline.NewAggregator(sim.GeoIP(), sim.DstMetadata)
	sim.Run(netsim.RunOptions{From: 0, To: cfg.SimCfg.HorizonHours, Sink: agg})
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
	var geoEntries []dataset.GeoEntry
	for prefix, metro := range sim.GeoIP().Entries() {
		geoEntries = append(geoEntries, dataset.GeoEntry{Prefix: prefix, Metro: metro})
	}
	if err := dataset.Save(f, &dataset.File{
		Records: recs,
		Links:   links,
		Anycast: w.Anycast,
		Geo:     geoEntries,
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
	var bytes uint64
	for i, r := range b.Records {
		if i == 0 || r.Hour < from {
			from = r.Hour
		}
		if r.Hour >= to {
			to = r.Hour + 1
		}
		bytes += uint64(r.Bytes)
	}
	c := features.Cardinalities(b.Records)
	fmt.Printf("records:  %d over hours [%d, %d) (%.1f days)\n", len(b.Records), from, to, float64(to-from)/24)
	fmt.Printf("bytes:    %.3e\n", float64(bytes))
	fmt.Printf("links:    %d across %d anycast prefixes\n", len(b.Links), len(b.Anycast))
	fmt.Printf("features: %d ASes, %d /24s, %d locations, %d regions, %d types\n",
		c.AS, c.Prefix, c.Loc, c.Region, c.Type)
	fmt.Printf("tuples:   A=%d AP=%d AL=%d\n", c.TuplesA, c.TuplesAP, c.TuplesAL)
	return nil
}

func cmdTrain(args []string) error {
	fs := newFlagSet("train")
	in := fs.String("i", "telemetry.tipsy", "telemetry bundle path")
	fromHour := fs.Int("from-hour", 0, "training window start (hours)")
	toHour := fs.Int("to-hour", 1<<30, "training window end (hours, exclusive)")
	out := fs.String("o", "model.tipsy", "output checkpoint path")
	fs.Parse(args)

	b, err := loadBundle(*in)
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
	gen := serve.Train(recs, min(wan.Hour(*toHour), last+1), wan.NewTable(b.Links), geo.World())
	ck := gen.Checkpoint()
	if err := ck.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("trained Hist_AP, Hist_AL and Hist_A on %d records: %d tuples -> %s\n",
		len(recs), gen.Tuples(), *out)
	return nil
}

func cmdPredict(args []string) error {
	fs := newFlagSet("predict")
	in := fs.String("i", "telemetry.tipsy", "telemetry bundle path (for link metadata and Geo-IP)")
	modelPath := fs.String("model", "model.tipsy", "checkpoint written by tipsy train or tipsyd")
	src := fs.String("src", "", "source IPv4 address (dotted quad)")
	asn := fs.Uint("as", 0, "source AS number")
	region := fs.Uint("region", 0, "destination region id")
	svc := fs.Uint("svc", 1, "destination service type id")
	k := fs.Int("k", serve.DefaultK, "how many links to predict (0: the server's default)")
	exclude := fs.String("exclude", "", "comma-separated link IDs to treat as unavailable")
	bytes := fs.Float64("bytes", 1e9, "flow volume to split across links")
	fs.Parse(args)

	// A malformed -src fails before any file is read.
	if _, err := serve.ParseIPv4(*src); err != nil {
		return err
	}
	req := &serve.Request{
		Flows: []serve.Flow{{SrcAddr: *src, SrcAS: uint32(*asn), Region: uint16(*region), Service: uint8(*svc), Bytes: *bytes}},
		K:     *k,
	}
	if *exclude != "" {
		for _, part := range strings.Split(*exclude, ",") {
			id, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
			if err != nil {
				return fmt.Errorf("bad -exclude entry %q", part)
			}
			req.ExcludeLinks = append(req.ExcludeLinks, wan.LinkID(id))
		}
	}
	b, err := loadBundle(*in)
	if err != nil {
		return err
	}
	ck, err := core.LoadCheckpointFile(*modelPath)
	if err != nil {
		return err
	}
	// The generation tipsyd would serve from this checkpoint answers.
	metros, table := geo.World(), wan.NewTable(b.Links)
	gen, err := serve.FromCheckpoint(ck, table, metros)
	if err != nil {
		return err
	}
	geoEntries := make(map[uint32]geo.MetroID, len(b.Geo))
	for _, e := range b.Geo {
		geoEntries[e.Prefix] = e.Metro
	}
	flows, err := req.Encode(nil, geo.NewGeoIPFromEntries(metros, geoEntries))
	if err != nil {
		return err
	}
	var resp serve.Response
	gen.Respond(&resp, req, flows, func() int64 { return 0 }, nil)
	res, flow := resp.Results[0], flows[0]
	if len(res.Links) == 0 {
		fmt.Println("no prediction: no rung of the ladder answered this flow")
		return nil
	}
	fmt.Printf("flow %v %s/24 loc%d -> region %d %v: %s predicts ingress links:\n",
		flow.AS, bgp.FormatIP(flow.Prefix), flow.Loc, flow.Region, flow.Type, res.Model)
	for i, ls := range res.Links {
		l, ok := table.Link(ls.Link)
		router, peer := "?", "?"
		if ok {
			router = l.Router
			peer = l.PeerAS.String()
		}
		fmt.Printf("  %d. link %-5d %-14s peer %-9s %5.1f%%  (%.3e bytes)\n",
			i+1, ls.Link, router, peer, ls.Frac*100, ls.Bytes)
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
	e, err := evalEnv(b, *trainDays)
	if err != nil {
		return err
	}
	fmt.Print(eval.FormatAccuracyTable(
		fmt.Sprintf("Overall prediction accuracy (%d train days, %d test records)", *trainDays, len(e.Test)),
		int(e.TestTo-e.TestFrom)/24, eval.Table4(e)))
	return nil
}

// evalEnv splits a bundle's records after trainDays into the
// harness's train and test windows.
func evalEnv(b *dataset.File, trainDays int) (*eval.Env, error) {
	// The test window ends at the bundle's last hour: outage inference
	// allocates per hour of it.
	var end wan.Hour
	for _, r := range b.Records {
		if r.Hour >= end {
			end = r.Hour + 1
		}
	}
	split := wan.Hour(trainDays * 24)
	e := &eval.Env{Dir: wan.NewTable(b.Links), Metros: geo.World(), TestTo: end}
	e.SplitAt(b.Records, split)
	if len(e.Train) == 0 || len(e.Test) == 0 {
		return nil, fmt.Errorf("split at hour %d leaves an empty window (train=%d test=%d records)",
			split, len(e.Train), len(e.Test))
	}
	return e, nil
}
