// Ingestion: the wire-level data collection path of §4.1. The
// simulated edge routers export IPFIX (RFC 7011) over TCP to a
// collector; the pipeline joins and aggregates the decoded records,
// and the served models train on the result — end to end over a real
// socket and the real encoding, nothing handed across in memory.
package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"

	"tipsy/internal/geo"
	"tipsy/internal/ipfix"
	"tipsy/internal/netsim"
	"tipsy/internal/pipeline"
	"tipsy/internal/serve"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

func main() {
	if err := run(os.Stdout, 48); err != nil {
		fmt.Fprintln(os.Stderr, "ingestion:", err)
		os.Exit(1)
	}
}

// run simulates hours of traffic, streams its flow records over
// loopback TCP into a collector and the aggregator, trains the served
// generation on the aggregates and writes what each stage counted to
// w. It fails if the wire lost or invented a record. It is the entry
// point the smoke test drives.
func run(w io.Writer, hours int) error {
	metros := geo.World()
	graph := topology.Generate(topology.TestGenConfig(9), metros)
	workload := traffic.Generate(traffic.TestConfig(9), graph, metros)
	sim := netsim.New(netsim.DefaultConfig(9), graph, metros, workload)

	// --- IPFIX collector listening on loopback ------------------------
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	collector := ipfix.NewCollector()
	agg := pipeline.NewAggregator(sim.GeoIP(), sim.DstMetadata)
	var collectorWG sync.WaitGroup
	var collectErr error
	collectorWG.Add(1)
	go func() {
		defer collectorWG.Done()
		conn, err := ln.Accept()
		if err != nil {
			collectErr = err
			return
		}
		defer conn.Close()
		// Batch hand-off: each decoded IPFIX message's records reach
		// the aggregator in one call, so its lock is taken once per
		// message instead of once per record.
		collectErr = collector.ReadStreamBatch(conn, func(_ uint32, recs []ipfix.FlowRecord) {
			agg.RecordBatch(recs)
		})
	}()

	// --- Router side: dial the collector and export -------------------
	exported, exportErr := export(sim, ln.Addr().String(), hours)
	ln.Close() // unblocks Accept if the exporter never dialled
	collectorWG.Wait()
	if err := errors.Join(exportErr, collectErr); err != nil {
		return err
	}

	cs := collector.Stats()
	fmt.Fprintf(w, "IPFIX: exported %d flow records, decoded %d from %d messages (%d lost), sampling 1/%d announced\n",
		exported, cs.Records, cs.Messages, cs.Lost, collector.SamplingInterval(1))
	if int(cs.Records) != exported || cs.Lost != 0 {
		return errors.New("wire path lost records")
	}

	// --- Train on what came off the wire -------------------------------
	records := agg.Records()
	gen := serve.Train(records, wan.Hour(hours), sim, metros)
	fmt.Fprintf(w, "pipeline: %d hourly aggregates -> %s with %d tuples\n",
		len(records), gen.Name(), gen.Tuples())
	fmt.Fprintln(w, "wire-level ingestion path verified: router -> TCP -> collector -> pipeline -> model")
	return nil
}

// export dials the collector at addr and streams the simulation's
// flow records for hours [0, hours) to it, returning how many it
// exported. One exporting process per observation domain would be
// faithful but noisy; a shared exporter works the same way on the
// wire. Flow records ride the socket fully encoded. The connection is
// closed on return, which ends the collector's stream.
func export(sim *netsim.Sim, addr string, hours int) (int, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	exporter := ipfix.NewExporter(conn, 1)
	if err := exporter.AnnounceSampling(4096, 0); err != nil {
		return 0, err
	}
	exported := 0
	sim.Run(netsim.RunOptions{
		From: 0, To: wan.Hour(hours),
		Sink: netsim.RecordSinkFunc(func(h wan.Hour, _ wan.LinkID, rec *ipfix.FlowRecord) {
			if err != nil {
				return
			}
			exported++
			err = exporter.Export(rec, uint32(h)*3600)
		}),
	})
	if err != nil {
		return exported, err
	}
	return exported, exporter.Flush(uint32(hours) * 3600)
}
