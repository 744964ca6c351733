// Command experiments regenerates every table and figure of the
// paper's evaluation over the simulated substrate. Each experiment is
// selectable by name; see -list.
//
// Usage:
//
//	experiments -scale small -run table4,table5
//	experiments -scale full -run all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"tipsy/internal/eval"
	"tipsy/internal/features"
	"tipsy/internal/risk"
	"tipsy/internal/wan"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, selects the
// experiments, and writes their tables to stdout, returning the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed  = fs.Int64("seed", 1, "simulation seed (the appendix D period uses seed+1000)")
		scale = fs.String("scale", "small", "environment scale: small | full")
		run   = fs.String("run", "all", "comma-separated experiment names, or 'all'")
		list  = fs.Bool("list", false, "list experiment names and exit")
		csvTo = fs.String("csv", "", "also write plot-ready CSV files to this directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scale != "small" && *scale != "full" {
		fmt.Fprintf(stderr, "unknown -scale %q (want small or full)\n", *scale)
		return 2
	}

	// csvErr reports a CSV write failure without aborting the run.
	csvErr := func(err error) {
		if err != nil {
			fmt.Fprintf(stderr, "csv: %v\n", err)
		}
	}
	accCSV := func(name string, rows []eval.AccuracyRow) {
		if *csvTo != "" {
			csvErr(eval.WriteAccuracyCSV(*csvTo, eval.CSVNameForTable(name), rows))
		}
	}

	type experiment struct {
		name string
		desc string
		fn   func(*eval.Env)
	}
	experiments := []experiment{
		{"table1", "feature cardinalities", func(e *eval.Env) {
			c := eval.Table1(e)
			fmt.Fprint(stdout, eval.FormatTable1(c))
			if *csvTo != "" {
				csvErr(eval.WriteTable1CSV(*csvTo, c))
			}
		}},
		{"fig2", "CDF of bytes by source AS distance", func(e *eval.Env) {
			pts := eval.Fig2(e, e.Train)
			fmt.Fprint(stdout, eval.FormatFig2(pts))
			if *csvTo != "" {
				csvErr(eval.WriteFig2CSV(*csvTo, pts))
			}
		}},
		{"fig3", "link spread per source AS by distance", func(e *eval.Env) {
			rows := eval.Fig3(e, e.Train)
			fmt.Fprint(stdout, eval.FormatFig3(rows))
			if *csvTo != "" {
				csvErr(eval.WriteFig3CSV(*csvTo, rows))
			}
		}},
		{"fig5", "oracle accuracy vs k", func(e *eval.Env) {
			pts := eval.Fig5(e, nil)
			fmt.Fprint(stdout, eval.FormatFig5(pts))
			if *csvTo != "" {
				csvErr(eval.WriteFig5CSV(*csvTo, pts))
			}
		}},
		{"fig6", "earliest outage per link over a year", func(*eval.Env) {
			pts := eval.Fig6(1500, 1.6, *seed, 15)
			fmt.Fprint(stdout, eval.FormatFig6(pts))
			if *csvTo != "" {
				csvErr(eval.WriteFig6CSV(*csvTo, pts))
			}
		}},
		{"fig7", "days since last outage", func(*eval.Env) {
			pts := eval.Fig7(1500, 1.6, *seed, 15)
			fmt.Fprint(stdout, eval.FormatFig7(pts))
			if *csvTo != "" {
				csvErr(eval.WriteFig7CSV(*csvTo, pts))
			}
		}},
		{"table4", "overall prediction accuracy", func(e *eval.Env) {
			rows := eval.Table4(e)
			fmt.Fprint(stdout, eval.FormatAccuracyTable("Table 4: overall prediction accuracy", rows))
			accCSV("table4", rows)
		}},
		{"table5", "accuracy on all link outages", func(e *eval.Env) {
			seen, unseen := eval.OutageBytesSplit(e)
			fmt.Fprintf(stdout, "outage-affected bytes: %.1f%% unseen in training\n",
				100*unseen/(seen+unseen+1e-12))
			rows := eval.TableOutages(e, eval.AllOutages)
			fmt.Fprint(stdout, eval.FormatAccuracyTable("Table 5: prediction accuracy, all link outages", rows))
			accCSV("table5", rows)
		}},
		{"table6", "accuracy on seen outages", func(e *eval.Env) {
			rows := eval.TableOutages(e, eval.SeenOutages)
			fmt.Fprint(stdout, eval.FormatAccuracyTable("Table 6: prediction accuracy, seen outages", rows))
			accCSV("table6", rows)
		}},
		{"table7", "accuracy on unseen outages", func(e *eval.Env) {
			rows := eval.TableOutages(e, eval.UnseenOutages)
			fmt.Fprint(stdout, eval.FormatAccuracyTable("Table 7: prediction accuracy, unseen outages", rows))
			accCSV("table7", rows)
		}},
		{"table9", "overall accuracy incl. Naive Bayes (App. A)", func(e *eval.Env) {
			rows := eval.Table9(e)
			fmt.Fprint(stdout, eval.FormatAccuracyTable("Table 9: overall accuracy with Naive Bayes", rows))
			accCSV("table9", rows)
		}},
		{"table10", "outage accuracy incl. Naive Bayes (App. A)", func(e *eval.Env) {
			rows := eval.Table10(e)
			fmt.Fprint(stdout, eval.FormatAccuracyTable("Table 10: outage accuracy with Naive Bayes", rows))
			accCSV("table10", rows)
		}},
		{"ablations", "Hist_AP by weighting, prefix length, stored links (DESIGN §4)", func(e *eval.Env) {
			var all []eval.AccuracyRow
			for i, a := range eval.Ablations(e) {
				if i > 0 {
					fmt.Fprintln(stdout)
				}
				fmt.Fprint(stdout, eval.FormatAccuracyTable(a.Title, a.Rows))
				all = append(all, a.Rows...)
			}
			accCSV("ablations", all)
		}},
		{"fig9", "accuracy vs training window length (App. B)", func(e *eval.Env) {
			lengths, periods, testDays := []int{3, 7, 14, 21}, 2, 3
			if *scale == "full" {
				lengths, periods, testDays = []int{3, 7, 14, 21, 28}, 4, 7
			}
			pts := eval.Fig9(e, lengths, periods, testDays)
			fmt.Fprint(stdout, eval.FormatFig9(pts))
			if *csvTo != "" {
				csvErr(eval.WriteFig9CSV(*csvTo, pts))
			}
		}},
		{"fig10", "daily accuracy decay after training (App. B)", func(e *eval.Env) {
			days := 7
			if *scale == "full" {
				days = 14
			}
			pts := eval.Fig10(e, days)
			fmt.Fprint(stdout, eval.FormatFig10(pts))
			if *csvTo != "" {
				csvErr(eval.WriteFig10CSV(*csvTo, pts))
			}
		}},
		{"fig11", "accuracy across sliding windows (App. B)", func(e *eval.Env) {
			windows := 4
			if *scale == "full" {
				windows = 28
			}
			stats := eval.Fig11(e, windows)
			fmt.Fprint(stdout, eval.FormatFig11(stats))
			if *csvTo != "" {
				csvErr(eval.WriteFig11CSV(*csvTo, stats))
			}
		}},
		{"table12", "links at risk of overload (App. C)", func(e *eval.Env) {
			rows := risk.AtRisk(e.Sim, e.Hist(features.SetAL), e.Test, risk.DefaultOptions())
			fmt.Fprint(stdout, risk.Format(rows, e.Sim, 8))
		}},
		{"table13", "overall accuracy, second period (App. D)", func(*eval.Env) {
			rows := eval.Table4(secondEnv(*scale, *seed))
			fmt.Fprint(stdout, eval.FormatAccuracyTable("Table 13: overall accuracy (second period)", rows))
			accCSV("table13", rows)
		}},
		{"table14", "outage accuracy, second period (App. D)", func(*eval.Env) {
			rows := eval.TableOutages(secondEnv(*scale, *seed), eval.AllOutages)
			fmt.Fprint(stdout, eval.FormatAccuracyTable("Table 14: outage accuracy (second period)", rows))
			accCSV("table14", rows)
		}},
		{"table15", "links at risk, second period (App. D)", func(*eval.Env) {
			e2 := secondEnv(*scale, *seed)
			rows := risk.AtRisk(e2.Sim, e2.Hist(features.SetAL), e2.Test, risk.DefaultOptions())
			out := risk.Format(rows, e2.Sim, 8)
			fmt.Fprint(stdout, strings.Replace(out, "Table 12", "Table 15", 1))
		}},
	}

	if *list {
		for _, ex := range experiments {
			fmt.Fprintf(stdout, "%-10s %s\n", ex.name, ex.desc)
		}
		return 0
	}

	want := map[string]bool{}
	runAll := *run == "all"
	for _, name := range strings.Split(*run, ",") {
		want[strings.TrimSpace(name)] = true
	}
	valid := map[string]bool{}
	for _, ex := range experiments {
		valid[ex.name] = true
	}
	if !runAll {
		var unknown []string
		for name := range want {
			if !valid[name] {
				unknown = append(unknown, name)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			fmt.Fprintf(stderr, "unknown experiments: %s (use -list)\n", strings.Join(unknown, ", "))
			return 2
		}
	}

	needEnv := false
	for _, ex := range experiments {
		if (runAll || want[ex.name]) && ex.name != "fig6" && ex.name != "fig7" {
			needEnv = true
		}
	}
	var env *eval.Env
	if needEnv {
		start := time.Now()
		env = buildEnv(*scale, *seed)
		fmt.Fprintf(stdout, "environment: %d ASes, %d links, %d flows, train %dd test %dd, built in %v\n\n",
			env.Graph.Len(), env.Sim.NumLinks(), len(env.Workload.Flows),
			env.Cfg.TrainDays, env.Cfg.TestDays, time.Since(start).Round(time.Millisecond))
	}
	for _, ex := range experiments {
		if !runAll && !want[ex.name] {
			continue
		}
		start := time.Now()
		ex.fn(env)
		fmt.Fprintf(stdout, "[%s done in %v]\n\n", ex.name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

var (
	secondOnce sync.Once
	secondE    *eval.Env
)

// secondEnv lazily builds the Appendix D environment (a different
// time period, i.e. a different seed) exactly once.
func secondEnv(scale string, seed int64) *eval.Env {
	secondOnce.Do(func() { secondE = buildEnv(scale, seed+1000) })
	return secondE
}

func buildEnv(scale string, seed int64) *eval.Env {
	var cfg eval.EnvConfig
	switch scale {
	case "full":
		cfg = eval.DefaultEnvConfig(seed)
	default:
		cfg = eval.SmallEnvConfig(seed)
	}
	// Appendix experiments extend past the standard split; give the
	// outage schedule headroom.
	cfg.SimCfg.HorizonHours = wan.Hour((cfg.TrainDays+cfg.TestDays)*24) + 24*40
	return eval.Build(cfg)
}
