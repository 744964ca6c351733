// Command tipsy is the command-line interface to the TIPSY library:
//
//	tipsy simulate -seed 1 -days 28 -scale small -o telemetry.tipsy
//	tipsy info     -i telemetry.tipsy
//	tipsy train    -i telemetry.tipsy -set AP -to-hour 504 -o model.tipsy
//	tipsy predict  -i telemetry.tipsy -model model.tipsy -src 11.0.3.7 -as 10007 -region 30 -svc 2
//	tipsy eval     -i telemetry.tipsy -train-days 21
//
// simulate runs the Internet+WAN substrate and exports aggregated
// telemetry; train fits a Historical model on a window of it and
// writes a one-model checkpoint; predict answers single what-if
// queries from that checkpoint; eval reproduces the headline accuracy
// table on a train/test split.
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
  train      train a Historical model on a telemetry window (writes a checkpoint)
  predict    predict ingress links for one flow
  eval       train/test split accuracy report

run 'tipsy <command> -h' for flags
`)
}

func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return fs
}
