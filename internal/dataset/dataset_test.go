package dataset

import (
	"slices"
	"testing"

	"tipsy/internal/bgp"
	"tipsy/internal/features"
	"tipsy/internal/wan"
)

func mkrec(h wan.Hour, as uint32, link wan.LinkID, bytes float64) features.Record {
	return features.Record{
		Hour: h,
		Flow: features.FlowFeatures{AS: bgp.ASN(as), Region: 1, Type: 1},
		Link: link, Bytes: bytes,
	}
}

func TestWindow(t *testing.T) {
	recs := []features.Record{mkrec(0, 1, 1, 1), mkrec(5, 1, 1, 1), mkrec(10, 1, 1, 1)}
	got := Window(recs, 1, 10)
	if len(got) != 1 || got[0].Hour != 5 {
		t.Errorf("Window = %+v", got)
	}
	if len(Window(recs, 10, 5)) != 0 {
		t.Error("inverted window should be empty")
	}
}

// windowReference is the loop Window replaced, kept as its oracle: a
// quarter-length guess grown by append.
func windowReference(recs []features.Record, from, to wan.Hour) []features.Record {
	out := make([]features.Record, 0, len(recs)/4)
	for _, r := range recs {
		if r.Hour >= from && r.Hour < to {
			out = append(out, r)
		}
	}
	return out
}

// drainedDays is three days in drain order: per hour, 500 flows over
// 20 ASes, each on one to three links.
func drainedDays() []features.Record {
	var recs []features.Record
	for h := wan.Hour(0); h < 72; h++ {
		for f := uint32(0); f < 500; f++ {
			for l := wan.LinkID(0); l <= wan.LinkID(f%3); l++ {
				recs = append(recs, features.Record{Hour: h,
					Flow: features.FlowFeatures{AS: bgp.ASN(64500 + f/25), Prefix: 0x0b000000 + f<<8, Region: 1, Type: 1},
					Link: 1 + l*7 + wan.LinkID(f%5), Bytes: float64(f+1) * float64(h+1)})
			}
		}
	}
	return recs
}

// TestWindowAllocs pins Window at one allocation of exactly the
// window's length on a multi-day drained window, and holds its output
// to the append loop it replaced.
func TestWindowAllocs(t *testing.T) {
	recs := drainedDays()
	for _, w := range []struct{ from, to wan.Hour }{{0, 72}, {0, 48}, {48, 72}, {30, 31}, {-5, 200}} {
		var got []features.Record
		if allocs := testing.AllocsPerRun(10, func() { got = Window(recs, w.from, w.to) }); allocs != 1 {
			t.Errorf("[%d, %d): Window allocates %v times, want 1", w.from, w.to, allocs)
		}
		if len(got) == 0 || cap(got) != len(got) {
			t.Errorf("[%d, %d): %d records in capacity %d, want a non-empty exact fit", w.from, w.to, len(got), cap(got))
		}
		if want := windowReference(recs, w.from, w.to); !slices.Equal(got, want) {
			t.Errorf("[%d, %d): Window returned %d records, the append loop %d", w.from, w.to, len(got), len(want))
		}
	}
	for _, w := range []struct{ from, to wan.Hour }{{72, 96}, {10, 5}} {
		if got := Window(recs, w.from, w.to); len(got) != 0 {
			t.Errorf("[%d, %d): want no records, got %d", w.from, w.to, len(got))
		}
	}
}

// linkActivity builds records where link carries traffic in every
// hour of [0, n) except the given gaps.
func linkActivity(link wan.LinkID, n int, gaps map[int]bool) []features.Record {
	var recs []features.Record
	for h := 0; h < n; h++ {
		if gaps[h] {
			continue
		}
		recs = append(recs, mkrec(wan.Hour(h), 1, link, 100))
	}
	return recs
}

func TestInferOutagesFindsGap(t *testing.T) {
	recs := linkActivity(1, 48, map[int]bool{10: true, 11: true, 12: true})
	outs := InferOutages(recs, 0, 48, DefaultInferOptions())
	if len(outs) != 1 {
		t.Fatalf("want 1 outage, got %+v", outs)
	}
	o := outs[0]
	if o.Link != 1 || o.Start != 10 || o.End != 13 || o.Duration() != 3 {
		t.Errorf("outage wrong: %+v", o)
	}
}

func TestInferOutagesIgnoresLongGaps(t *testing.T) {
	gaps := map[int]bool{}
	for h := 10; h < 40; h++ { // 30h gap > 24h band
		gaps[h] = true
	}
	recs := linkActivity(1, 96, gaps)
	outs := InferOutages(recs, 0, 96, DefaultInferOptions())
	if len(outs) != 0 {
		t.Errorf("30h gap should be excluded (decommission/disaster): %+v", outs)
	}
}

func TestInferOutagesIgnoresEdgeCensoredGaps(t *testing.T) {
	// A gap touching the window boundary has unknown true extent.
	recs := linkActivity(1, 48, map[int]bool{0: true, 1: true, 46: true, 47: true})
	outs := InferOutages(recs, 0, 48, DefaultInferOptions())
	if len(outs) != 0 {
		t.Errorf("edge-censored gaps must not count: %+v", outs)
	}
}

func TestInferOutagesIgnoresQuietLinks(t *testing.T) {
	// A link active in only a few hours is not monitored; its silence
	// is not an outage signal.
	var recs []features.Record
	recs = append(recs, mkrec(3, 1, 2, 50), mkrec(30, 1, 2, 50))
	outs := InferOutages(recs, 0, 48, DefaultInferOptions())
	if len(outs) != 0 {
		t.Errorf("quiet link produced outages: %+v", outs)
	}
}

func TestInferOutagesMultipleLinks(t *testing.T) {
	var recs []features.Record
	recs = append(recs, linkActivity(1, 48, map[int]bool{5: true})...)
	recs = append(recs, linkActivity(2, 48, map[int]bool{20: true, 21: true})...)
	recs = append(recs, linkActivity(3, 48, nil)...)
	outs := InferOutages(recs, 0, 48, DefaultInferOptions())
	if len(outs) != 2 {
		t.Fatalf("want 2 outages, got %+v", outs)
	}
	idx := NewOutageIndex(outs)
	if !idx.Down(1, 5) || idx.Down(1, 6) {
		t.Error("index wrong for link 1")
	}
	if !idx.Down(2, 21) || idx.Down(2, 22) {
		t.Error("index wrong for link 2")
	}
	if idx.HasOutage(3) {
		t.Error("healthy link flagged")
	}
	if links := idx.Links(); len(links) != 2 || links[0] != 1 || links[1] != 2 {
		t.Errorf("Links() = %v", links)
	}
	if evs := idx.Events(2); len(evs) != 1 || evs[0].Duration() != 2 {
		t.Errorf("Events(2) = %+v", evs)
	}
}

func TestTopLinks(t *testing.T) {
	f1 := features.FlowFeatures{AS: 1, Prefix: 100, Region: 1, Type: 1}
	f2 := features.FlowFeatures{AS: 2, Prefix: 200, Region: 1, Type: 1}
	recs := []features.Record{
		{Hour: 0, Flow: f1, Link: 1, Bytes: 100},
		{Hour: 1, Flow: f1, Link: 2, Bytes: 300},
		{Hour: 2, Flow: f1, Link: 1, Bytes: 150}, // link 1 total 250 < 300
		{Hour: 0, Flow: f2, Link: 5, Bytes: 10},
	}
	top := TopLinks(recs)
	if top[f1] != 2 {
		t.Errorf("top link of f1 = %d, want 2", top[f1])
	}
	if top[f2] != 5 {
		t.Errorf("top link of f2 = %d, want 5", top[f2])
	}
}

func TestTopLinksDeterministicTie(t *testing.T) {
	f := features.FlowFeatures{AS: 1, Region: 1, Type: 1}
	recs := []features.Record{
		{Hour: 0, Flow: f, Link: 9, Bytes: 100},
		{Hour: 0, Flow: f, Link: 3, Bytes: 100},
	}
	for i := 0; i < 10; i++ {
		if TopLinks(recs)[f] != 3 {
			t.Fatal("tie must break to the lowest link ID")
		}
	}
}
