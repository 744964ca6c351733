package serve

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tipsy/internal/bgp"
	"tipsy/internal/core"
	"tipsy/internal/features"
	"tipsy/internal/geo"
	"tipsy/internal/netsim"
	"tipsy/internal/pipeline"
	"tipsy/internal/topology"
	"tipsy/internal/traffic"
	"tipsy/internal/wan"
)

// fixture is a small simulated WAN with two days of telemetry and two
// generations trained on different days of it, so their answers
// differ.
type fixture struct {
	sim        *netsim.Sim
	metros     *geo.DB
	recs       []features.Record
	genA, genB *Models
}

var (
	fixOnce sync.Once
	fix     fixture
)

func testFixture(t testing.TB) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		const seed = 5
		metros := geo.World()
		g := topology.Generate(topology.TestGenConfig(seed), metros)
		w := traffic.Generate(traffic.TestConfig(seed), g, metros)
		sim := netsim.New(netsim.DefaultConfig(seed), g, metros, w)
		agg := pipeline.NewAggregator(sim.GeoIP(), sim.DstMetadata)
		sim.Run(netsim.RunOptions{From: 0, To: 48, Sink: agg})
		recs := agg.Records()
		split := 0
		for split < len(recs) && recs[split].Hour < 24 {
			split++
		}
		fix = fixture{
			sim: sim, metros: metros, recs: recs,
			genA: Train(recs[:split], 24, sim, metros),
			genB: Train(recs[split:], 48, sim, metros),
		}
	})
	if len(fix.recs) == 0 {
		t.Fatal("fixture produced no telemetry")
	}
	return &fix
}

// noClock is a clock for tests that do not look at timings.
func noClock() int64 { return 0 }

// whatIf builds a request over n of the fixture's flows, plus one flow
// from an AS no model has seen, excluding the first flow's top link.
func (f *fixture) whatIf(t testing.TB, n int) (*Request, []features.FlowFeatures) {
	t.Helper()
	req := &Request{K: 3}
	step := max(len(f.recs)/n, 1)
	for i := 0; i < len(f.recs) && len(req.Flows) < n; i += step {
		fl := f.recs[i].Flow
		req.Flows = append(req.Flows, Flow{
			SrcAddr: bgp.FormatIP(fl.Prefix | 9), SrcAS: uint32(fl.AS),
			Region: uint16(fl.Region), Service: uint8(fl.Type), Bytes: 1e9,
		})
	}
	req.Flows = append(req.Flows, Flow{SrcAddr: "1.2.3.4", SrcAS: 4200000001, Region: 1, Service: 1, Bytes: 5e8})
	flows, err := req.Encode(f.sim.GeoIP())
	if err != nil {
		t.Fatal(err)
	}
	top := f.genA.Walk(core.Query{Flow: flows[0], K: 1}, noClock)
	if len(top.Preds) == 0 {
		t.Fatal("fixture's first flow has no prediction")
	}
	req.ExcludeLinks = []wan.LinkID{top.Preds[0].Link}
	return req, flows
}

// TestSwapDuringPredict swaps generations from one goroutine while
// others answer requests from whatever generation they loaded: every
// request-level answer must equal the answer of exactly one
// generation, never a mixture.
func TestSwapDuringPredict(t *testing.T) {
	f := testFixture(t)
	req, flows := f.whatIf(t, 64)
	wantA := f.genA.Respond(req, flows, noClock, nil)
	wantB := f.genB.Respond(req, flows, noClock, nil)
	if reflect.DeepEqual(wantA, wantB) {
		t.Fatal("the two generations answer alike; the test could not tell them apart")
	}

	var current atomic.Pointer[Models]
	current.Store(f.genA)
	const readers, rounds = 4, 200
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				got := current.Load().Respond(req, flows, noClock, nil)
				if isA, isB := reflect.DeepEqual(got, wantA), reflect.DeepEqual(got, wantB); isA == isB {
					t.Errorf("round %d: answer matches generation A: %v, B: %v; want exactly one", i, isA, isB)
					return
				}
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		current.Store(f.genB)
		current.Store(f.genA)
	}
	wg.Wait()
}

// TestCheckpointRoundTrip: a generation rebuilt from its own saved
// checkpoint predicts link for link like the original.
func TestCheckpointRoundTrip(t *testing.T) {
	f := testFixture(t)
	var buf bytes.Buffer
	ck := f.genA.Checkpoint()
	if err := ck.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromCheckpoint(loaded, f.sim, f.metros)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Recovered() || f.genA.Recovered() {
		t.Errorf("recovered flags: rebuilt %v, trained %v", back.Recovered(), f.genA.Recovered())
	}
	if back.TrainedAt() != 24 || back.Tuples() != f.genA.Tuples() || back.Tuples() == 0 {
		t.Errorf("rebuilt generation: trained at %d with %d tuples, original %d tuples",
			back.TrainedAt(), back.Tuples(), f.genA.Tuples())
	}
	const queries = 1000
	step := max(len(f.recs)/queries, 1)
	asked := 0
	for i := 0; i < len(f.recs) && asked < queries; i += step {
		q := core.Query{Flow: f.recs[i].Flow, K: 3}
		if asked%10 == 0 { // every tenth as a what-if
			if top := f.genA.Walk(q, noClock).Preds; len(top) > 0 {
				ex := top[0].Link
				q.Exclude = func(l wan.LinkID) bool { return l == ex }
			}
		}
		if asked%7 == 0 { // and some from an AS the models never saw
			q.Flow.AS += 4200000000
		}
		want, got := f.genA.Walk(q, noClock), back.Walk(q, noClock)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query %d: original answered %+v, rebuilt %+v", asked, want, got)
		}
		asked++
	}
	if asked < queries {
		t.Fatalf("fixture has only %d records for %d queries", len(f.recs), queries)
	}

	if _, err := FromCheckpoint(&core.Checkpoint{Models: loaded.Models[:2]}, f.sim, f.metros); err == nil {
		t.Error("a checkpoint missing a model rebuilt without error")
	}
	if ck := Untrained(f.sim, f.metros).Checkpoint(); len(ck.Models) != 0 {
		t.Errorf("untrained generation checkpoints %d models", len(ck.Models))
	}
}

// stubRung is a predictor that counts its calls and answers with a
// fixed list.
type stubRung struct {
	calls int
	preds []core.Prediction
}

func (s *stubRung) Name() string                         { return "stub" }
func (s *stubRung) Predict(core.Query) []core.Prediction { s.calls++; return s.preds }

// TestWalkOrder is the ladder's property, checked over every
// combination of absent, empty and answering rungs: the walk goes
// ensemble, historical, geo; reports the first rung that answers (None
// if none does); tries a rung only if every earlier rung returned
// nothing; and never asks a rung past the one that answered.
func TestWalkOrder(t *testing.T) {
	const absent, empty, answers = 0, 1, 2
	for combo := 0; combo < 27; combo++ {
		state := [None]int{combo % 3, combo / 3 % 3, combo / 9}
		var m Models
		var stubs [None]*stubRung
		for r, st := range state {
			if st == absent {
				continue
			}
			stubs[r] = &stubRung{}
			if st == answers {
				stubs[r].preds = []core.Prediction{{Link: wan.LinkID(r + 1), Frac: 1}}
			}
			m.rungs[r] = stubs[r]
		}
		tick := int64(0)
		a := m.Walk(core.Query{K: 3}, func() int64 { tick += 5; return tick })

		want := None
		for r := Ensemble; r < None; r++ {
			if state[r] == answers {
				want = r
				break
			}
		}
		if a.Rung != want {
			t.Errorf("rungs %v: answered by %v, want %v", state, a.Rung, want)
		}
		if want != None && (len(a.Preds) != 1 || a.Preds[0].Link != wan.LinkID(want+1)) {
			t.Errorf("rungs %v: predictions %v are not rung %v's", state, a.Preds, want)
		}
		if want == None && a.Preds != nil {
			t.Errorf("rungs %v: predictions %v from no rung", state, a.Preds)
		}
		for r := Ensemble; r < None; r++ {
			tried := state[r] != absent && r <= want
			calls := 0
			if stubs[r] != nil {
				calls = stubs[r].calls
			}
			if a.Tried[r] != tried || (calls == 1) != tried || calls > 1 {
				t.Errorf("rungs %v: rung %v tried=%v calls=%d, want tried=%v", state, r, a.Tried[r], calls, tried)
			}
			wantNs := int64(0)
			if tried {
				wantNs = 5 // one clock read before, one after
			}
			if a.Ns[r] != wantNs {
				t.Errorf("rungs %v: rung %v took %d ns on a 5 ns/read clock, want %d", state, r, a.Ns[r], wantNs)
			}
		}
	}
	if got := []string{Ensemble.String(), Historical.String(), Geo.String(), None.String()}; !reflect.DeepEqual(got,
		[]string{"ensemble", "historical", "geo", "none"}) {
		t.Errorf("rung names %v", got)
	}
}

// TestRespondIgnoresObserver: the response is the same whether or not
// the caller watches the answers go by, and the observer sees exactly
// the answers the response was built from.
func TestRespondIgnoresObserver(t *testing.T) {
	f := testFixture(t)
	req, flows := f.whatIf(t, 200)
	for name, gen := range map[string]*Models{"trained": f.genA, "untrained": Untrained(f.sim, f.metros)} {
		silent := gen.Respond(req, flows, noClock, nil)
		var seen []Answer
		watched := gen.Respond(req, flows, noClock, func(i int, a Answer) {
			if i != len(seen) {
				t.Errorf("%s: observer called for flow %d after %d flows", name, i, len(seen))
			}
			seen = append(seen, a)
		})
		if !reflect.DeepEqual(silent, watched) {
			t.Errorf("%s: observing changed the response", name)
		}
		if len(seen) != len(flows) || len(watched.Results) != len(flows) {
			t.Fatalf("%s: %d answers observed, %d results, %d flows", name, len(seen), len(watched.Results), len(flows))
		}
		shifted := map[wan.LinkID]float64{}
		for i, res := range watched.Results {
			a := seen[i]
			if res.Flow != i || res.Model != a.Rung.String() || len(res.Links) != len(a.Preds) {
				t.Fatalf("%s: result %d = %+v, answer %+v", name, i, res, a)
			}
			for j, l := range res.Links {
				if l.Link != a.Preds[j].Link || l.Frac != a.Preds[j].Frac || l.Bytes != l.Frac*req.Flows[i].Bytes {
					t.Fatalf("%s: result %d link %d = %+v, prediction %+v", name, i, j, l, a.Preds[j])
				}
				if l.Link == req.ExcludeLinks[0] {
					t.Fatalf("%s: result %d returned the excluded link", name, i)
				}
				shifted[l.Link] += l.Bytes
			}
		}
		if !reflect.DeepEqual(shifted, watched.Shifted) {
			t.Errorf("%s: shifted aggregate does not sum the results", name)
		}
	}
	// The novel flow falls through to the geographic rung on a trained
	// generation, and everything does on an untrained one.
	last := len(flows) - 1
	if got := f.genA.Respond(req, flows, noClock, nil).Results; got[0].Model != "ensemble" || got[last].Model != "geo" {
		t.Errorf("trained generation answered flow 0 from %q and the novel flow from %q", got[0].Model, got[last].Model)
	}
}

// TestResponseWireShape pins the JSON of the edge cases clients may
// have come to rely on: no flows and an unanswerable flow both encode
// null, and k defaults to 3.
func TestResponseWireShape(t *testing.T) {
	f := testFixture(t)
	got, err := f.genA.Respond(&Request{}, nil, noClock, nil).AppendJSON(nil)
	if err != nil || string(got) != `{"results":null,"shifted":{}}`+"\n" {
		t.Errorf("empty request encodes as %s (%v)", got, err)
	}
	var none Models // no rung at all
	var req Request
	if err := DecodeRequest([]byte(`{"flows":[{"src_addr":"1.2.3.4"}]}`), &req); err != nil {
		t.Fatal(err)
	}
	flows, err := req.Encode(f.sim.GeoIP())
	if err != nil {
		t.Fatal(err)
	}
	got, err = none.Respond(&req, flows, noClock, nil).AppendJSON(nil)
	if err != nil || string(got) != `{"results":[{"flow":0,"model":"none","links":null}],"shifted":{}}`+"\n" {
		t.Errorf("unanswerable flow encodes as %s (%v)", got, err)
	}
	if res := f.genA.Respond(&Request{Flows: req.Flows}, flows, noClock, nil).Results[0]; len(res.Links) != DefaultK {
		t.Errorf("request without k got %d links, want %d", len(res.Links), DefaultK)
	}
	// Any k a client can write is answered with the links there are.
	if res := f.genA.Respond(&Request{Flows: req.Flows, K: math.MaxInt}, flows, noClock, nil).Results[0]; len(res.Links) <= DefaultK {
		t.Errorf("request for every link got %d", len(res.Links))
	}
}

func TestParseIPv4(t *testing.T) {
	for in, want := range map[string]uint32{
		"11.0.3.7": 0x0b000307, "0.0.0.0": 0, "255.255.255.255": 0xffffffff,
	} {
		if v, err := ParseIPv4(in); err != nil || v != want {
			t.Errorf("ParseIPv4(%q) = %x, %v; want %x", in, v, err, want)
		}
	}
	for _, bad := range []string{
		"", "1.2.3", "1.2.3.999", "256.1.1.1", "a.b.c.d",
		"1.2.3.4garbage", "1.2.3.4.5", " 1.2.3.4", "+1.2.3.4", "010.1.1.1", "1.2.3.04",
		"::ffff:1.2.3.4", "1.2.3.4%eth0",
	} {
		if _, err := ParseIPv4(bad); err == nil {
			t.Errorf("%q should not parse", bad)
		}
	}
}

// TestEncodeNamesTheBadFlow: the error a client gets back says which
// of its flows is malformed.
func TestEncodeNamesTheBadFlow(t *testing.T) {
	f := testFixture(t)
	req := &Request{Flows: []Flow{{SrcAddr: "11.0.3.7"}, {SrcAddr: "11.0.3.7"}, {SrcAddr: "11.0.3"}}}
	if _, err := req.Encode(f.sim.GeoIP()); err == nil || !strings.HasPrefix(err.Error(), "flow 2: ") {
		t.Errorf("Encode error = %v, want one naming flow 2", err)
	}
}

// What the fixture's 256-flow what-if (255 known flows and one from a
// novel AS, one excluded link, k=3) allocates on generation A;
// TestCodecAllocs pins its trip over the wire. The
// pins are exact and cover everything the compiled program does,
// core.Predictor implementations included; a lower number is
// committed by editing it.
const (
	encodeAllocs  = 1   // Request.Encode: the []FlowFeatures
	respondAllocs = 302 // Models.Respond, of which
	walkAllocs    = 286 // are made inside its Models.Walk calls
)

func TestWhatIfAllocs(t *testing.T) {
	f := testFixture(t)
	req, flows := f.whatIf(t, 255)
	geoip := f.sim.GeoIP()
	if got := testing.AllocsPerRun(20, func() {
		if _, err := req.Encode(geoip); err != nil {
			t.Fatal(err)
		}
	}); got != encodeAllocs {
		t.Errorf("Request.Encode allocates %v times per %d-flow request, want %d", got, len(flows), encodeAllocs)
	}
	if got := testing.AllocsPerRun(20, func() {
		f.genA.Respond(req, flows, noClock, nil)
	}); got != respondAllocs {
		t.Errorf("Models.Respond allocates %v times per %d-flow what-if, want %d", got, len(flows), respondAllocs)
	}
	excluded := req.ExcludeLinks[0]
	q := core.Query{K: req.K, Exclude: func(l wan.LinkID) bool { return l == excluded }}
	if got := testing.AllocsPerRun(20, func() {
		for i := range flows {
			q.Flow = flows[i]
			f.genA.Walk(q, noClock)
		}
	}); got != walkAllocs {
		t.Errorf("Models.Walk allocates %v times over the %d flows, want %d", got, len(flows), walkAllocs)
	}
}
