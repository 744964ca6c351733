// Command tipsy is the command-line interface to the TIPSY library:
//
//	tipsy simulate -seed 1 -days 11 -scale small -o telemetry.tipsy
//	tipsy info     -i telemetry.tipsy
//	tipsy train    -i telemetry.tipsy -to-hour 192 -o model.tipsy
//	tipsy predict  -i telemetry.tipsy -model model.tipsy -src 11.1.214.7 -as 100 -region 64 -svc 1 -exclude 35
//	tipsy eval     -i telemetry.tipsy -train-days 8
//
// simulate runs the experiment harness's Internet+WAN substrate and
// exports aggregated telemetry; train fits the generation tipsyd
// serves (serve.Train) on a window of it and writes its checkpoint,
// the file tipsyd -checkpoint recovers; predict answers one what-if
// query from that checkpoint through tipsyd's ladder
// (serve.Models.Respond, so -k 0 means its default of 3); eval
// reproduces the headline accuracy table on a train/test split.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "tipsy: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tipsy: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: tipsy <command> [flags]

commands:
  simulate   run the simulated Internet+WAN and export telemetry
  info       summarize a telemetry bundle
  train      train the served models on a telemetry window (writes tipsyd's checkpoint)
  predict    predict ingress links for one flow through tipsyd's ladder
  eval       train/test split accuracy report

run 'tipsy <command> -h' for flags
`)
}

func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return fs
}
