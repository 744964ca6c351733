package main

import (
	"fmt"

	"tipsy/internal/analysis"
	"tipsy/internal/core"
	"tipsy/internal/dataset"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/wan"
)

// cmdSuspicious implements 'tipsy suspicious': train on the first
// part of a bundle, then flag arrivals in the rest that the model
// considers (nearly) impossible — the paper's §8 spoofed-traffic use.
func cmdSuspicious(args []string) error {
	opts := analysis.DefaultSuspiciousOptions()
	fs := newFlagSet("suspicious")
	in := fs.String("i", "telemetry.tipsy", "telemetry bundle path")
	trainDays := fs.Int("train-days", 8, "training window length in days")
	fs.Float64Var(&opts.MaxLikelihood, "max-likelihood", opts.MaxLikelihood, "flag arrivals at or below this predicted probability")
	fs.Float64Var(&opts.MinDistanceKm, "min-km", opts.MinDistanceKm, "minimum source-to-link distance to flag (0 disables)")
	limit := fs.Int("n", 15, "show top N findings")
	fs.Parse(args)

	b, err := loadBundle(*in)
	if err != nil {
		return err
	}
	split := wan.Hour(*trainDays * 24)
	train := dataset.Window(b.Records, 0, split)
	rest := dataset.Window(b.Records, split, 1<<30)
	if len(train) == 0 || len(rest) == 0 {
		return fmt.Errorf("split at day %d leaves an empty window", *trainDays)
	}
	model := core.TrainHistorical(features.SetAP, train, core.DefaultHistOpts())
	table := wan.NewTable(b.Links)
	found := analysis.FindSuspicious(model, rest, table, geo.World(), opts)
	fmt.Printf("scanned %d records against %d trained tuples\n", len(rest), model.NumTuples())
	fmt.Print(analysis.FormatSuspicious(found, table, *limit))
	return nil
}

// cmdDepeer implements 'tipsy depeer': rank peers by how dispensable
// their links are (§8's de-peering analysis).
func cmdDepeer(args []string) error {
	fs := newFlagSet("depeer")
	in := fs.String("i", "telemetry.tipsy", "telemetry bundle path")
	trainDays := fs.Int("train-days", 8, "training window length in days")
	maxShare := fs.Float64("max-share", 0.05, "skip peers carrying more than this share of bytes")
	limit := fs.Int("n", 10, "show top N candidates")
	fs.Parse(args)

	b, err := loadBundle(*in)
	if err != nil {
		return err
	}
	split := wan.Hour(*trainDays * 24)
	train := dataset.Window(b.Records, 0, split)
	if len(train) == 0 {
		return fmt.Errorf("no training records before day %d", *trainDays)
	}
	model := core.TrainHistorical(features.SetAP, train, core.DefaultHistOpts())
	table := wan.NewTable(b.Links)
	cands := analysis.DePeeringCandidates(model, train, table, *maxShare)
	fmt.Printf("%-10s %6s %14s %14s\n", "peer", "links", "bytes", "redirectable")
	for i, c := range cands {
		if i >= *limit {
			break
		}
		fmt.Printf("%-10v %6d %14.3e %13.1f%%\n", c.Peer, c.Links, c.Bytes, c.Redirectable*100)
	}
	if len(cands) == 0 {
		fmt.Println("(no candidates under the share cap)")
	}
	return nil
}
