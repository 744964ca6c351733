package main

import (
	"bytes"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"tipsy/internal/dataset"
	"tipsy/internal/features"
	"tipsy/internal/monitor"
	"tipsy/internal/serve"
	"tipsy/internal/wan"
)

// windowRows pins the rows the window holds after each retrain of
// TestWindowRowsTrainTheHourlyModel: seed 41, a two-day window,
// bootstrap and three cycles from hour 0, then three cycles from a
// checkpoint recovered at hour 130. A change to the rows' form fails
// here with the new counts.
var windowRows = [...]int{2386, 2405, 2349, 2478, 1193, 2377, 2450}

// savedCheckpoint is the bytes gen's checkpoint saves.
func savedCheckpoint(t *testing.T, gen *serve.Models) []byte {
	t.Helper()
	var buf bytes.Buffer
	ck := gen.Checkpoint()
	if err := ck.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withoutBytes is a sample's records with their byte counts zeroed:
// a row carries its day's bytes, an hourly record its hour's.
func withoutBytes(recs []features.Record) []features.Record {
	out := slices.Clone(recs)
	for i := range out {
		out[i].Bytes = 0
	}
	return out
}

// TestWindowRowsTrainTheHourlyModel keeps the hourly records a
// server drains beside its window of daily rows, and after every
// retrain requires the rows to train the checkpoint the hourly window
// trains, to give the same first sightings, and to hold exactly one
// row per (cycle day, flow, link). One run starts at hour 0; the other
// recovers a checkpoint taken at hour 130, not a day's multiple, so
// its cycle days do not start at midnight.
func TestWindowRowsTrainTheHourlyModel(t *testing.T) {
	const trainDays = 2
	step := 0
	// advance runs one cycle of n days on s, whose cycles started at
	// origin, and checks the window against hourly, the drained
	// records of the window so far.
	advance := func(s *server, origin wan.Hour, hourly []features.Record, n int) []features.Record {
		t.Helper()
		hourly = append(hourly, s.advanceDays(n, nil)...)
		now := s.simHour()
		cutoff := now - trainDays*24
		hourly = dataset.Window(hourly, cutoff, now)
		s.retrain(nil)

		s.mu.RLock()
		rows, days := s.records, slices.Clone(s.days)
		s.mu.RUnlock()
		if got, want := savedCheckpoint(t, s.gen.Load()), savedCheckpoint(t, serve.Train(hourly, now, s.sim, s.metros)); !bytes.Equal(got, want) {
			t.Fatalf("step %d: the model over %d rows saves %d bytes that differ from the %d of the fit over %d hourly records",
				step, len(rows), len(got), len(want), len(hourly))
		}
		if got, want := withoutBytes(firstSightings(rows, 256)), withoutBytes(firstSightings(hourly, 256)); !slices.Equal(got, want) {
			t.Fatalf("step %d: the rows' first sightings differ from the hourly window's:\n got %+v\nwant %+v", step, got[:min(len(got), 3)], want[:min(len(want), 3)])
		}
		type dayPair struct {
			day  wan.Hour
			flow features.FlowFeatures
			link wan.LinkID
		}
		pairs := make(map[dayPair]bool)
		records := 0
		for _, r := range hourly {
			if r.Bytes > 0 {
				if r.Bytes != math.Trunc(r.Bytes) {
					t.Fatalf("step %d: hourly record %+v counts a fraction of a byte", step, r)
				}
				pairs[dayPair{(r.Hour - origin) / 24, r.Flow, r.Link}] = true
				records++
			}
		}
		if len(rows) != len(pairs) || len(rows) != windowRows[step] {
			t.Errorf("step %d: the window holds %d rows; %d (cycle day, flow, link) triples, pinned %d", step, len(rows), len(pairs), windowRows[step])
		}
		var counted int
		for i, d := range days {
			counted += d.records
			if want := max(cutoff, origin) + wan.Hour(i*24); d.from != want {
				t.Errorf("step %d: window day %d starts at hour %d, want %d", step, i, d.from, want)
			}
		}
		if counted != records {
			t.Errorf("step %d: the window's days count %d hourly records, the window holds %d", step, counted, records)
		}
		step++
		return hourly
	}

	s := newServer(41, trainDays, monitor.DefaultConfig())
	hourly := advance(s, 0, nil, trainDays)
	for range 3 {
		hourly = advance(s, 0, hourly, 1)
	}

	path := filepath.Join(t.TempDir(), "model.ck")
	ck := s.gen.Load().Checkpoint()
	ck.TrainedAt = 130
	if err := ck.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	r := newServer(41, trainDays, monitor.DefaultConfig())
	r.checkpointPath = path
	if err := r.recoverCheckpoint(); err != nil {
		t.Fatal(err)
	}
	hourly = nil
	for range 3 {
		hourly = advance(r, 130, hourly, 1)
	}
}

// TestFlagsRefuseValuesThatCannotWork: a -train-days below 1 left
// every retrain an empty window, so /healthz reported no trained model
// for good, and a -day-every that is not positive panicked the retrain
// loop's ticker once bootstrap was done. main now refuses both.
func TestFlagsRefuseValuesThatCannotWork(t *testing.T) {
	for _, c := range []struct {
		trainDays int
		dayEvery  time.Duration
		flag      string
	}{
		{0, time.Second, "-train-days"},
		{-3, time.Second, "-train-days"},
		{8, 0, "-day-every"},
		{8, -time.Second, "-day-every"},
	} {
		if err := checkFlags(c.trainDays, c.dayEvery); err == nil || !strings.Contains(err.Error(), "invalid value") || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("-train-days %d -day-every %v: %v, want a refusal naming %s", c.trainDays, c.dayEvery, err, c.flag)
		}
	}
	for _, c := range []struct {
		trainDays int
		dayEvery  time.Duration
	}{{1, time.Nanosecond}, {8, 10 * time.Second}} {
		if err := checkFlags(c.trainDays, c.dayEvery); err != nil {
			t.Errorf("-train-days %d -day-every %v: %v", c.trainDays, c.dayEvery, err)
		}
	}
}
