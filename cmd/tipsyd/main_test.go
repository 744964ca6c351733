package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tipsy/internal/alloctest"
	"tipsy/internal/bgp"
	"tipsy/internal/core"
	"tipsy/internal/monitor"
	"tipsy/internal/serve"
	"tipsy/internal/wan"
)

var (
	srvOnce sync.Once
	srv     *server
)

func testServer(t testing.TB) *server {
	t.Helper()
	srvOnce.Do(func() { srv = buildServer(3, 4) })
	if srv == nil {
		t.Fatal("server build failed")
	}
	return srv
}

// buildServer constructs the simulated WAN, bootstraps trainDays of
// telemetry, and trains the first serving model.
func buildServer(seed int64, trainDays int) *server {
	s := newServer(seed, trainDays, monitor.DefaultConfig())
	s.advanceDays(trainDays, nil)
	s.retrain(nil)
	return s
}

// predict answers q the way a client's flow is answered: one ladder
// walk, booked in the serving metrics.
func (s *server) predict(q core.Query) ([]core.Prediction, string) {
	_, a := s.gen.Load().Walk(nil, q, s.clock)
	s.met.observe(a)
	return a.Preds, a.Rung.String()
}

func get(t *testing.T, s *server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rr := httptest.NewRecorder()
	s.handler().ServeHTTP(rr, req)
	return rr
}

func TestHealthEndpoint(t *testing.T) {
	s := testServer(t)
	rr := get(t, s, "/healthz")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["model_ready"] != true {
		t.Errorf("model not ready after bootstrap: %v", body)
	}
	if body["simulated_hour"].(float64) != 4*24 {
		t.Errorf("simulated hour = %v, want 96", body["simulated_hour"])
	}
}

func TestModelEndpoint(t *testing.T) {
	s := testServer(t)
	rr := get(t, s, "/v1/model")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	var body map[string]any
	json.Unmarshal(rr.Body.Bytes(), &body)
	if body["name"] != "Hist_AP/AL+G/A" {
		t.Errorf("model name %v", body["name"])
	}
	if body["tuples"].(float64) <= 0 {
		t.Error("no tuples reported")
	}
}

func TestLinksEndpoint(t *testing.T) {
	s := testServer(t)
	rr := get(t, s, "/v1/links")
	var links []map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &links); err != nil {
		t.Fatal(err)
	}
	if len(links) != s.sim.NumLinks() {
		t.Errorf("returned %d links, sim has %d", len(links), s.sim.NumLinks())
	}
	if links[0]["router"] == "" || links[0]["capacity_bps"].(float64) <= 0 {
		t.Errorf("link metadata incomplete: %v", links[0])
	}
}

func TestPredictEndToEnd(t *testing.T) {
	s := testServer(t)
	// Grab a real tuple from the sample endpoint, then ask for a
	// prediction for it — including the exclusion variant.
	rr := get(t, s, "/v1/sample")
	var samples []map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &samples); err != nil || len(samples) == 0 {
		t.Fatalf("sample endpoint: %v / %s", err, rr.Body)
	}
	reqBody, _ := json.Marshal(map[string]any{
		"flows": []map[string]any{{
			"src_addr": samples[0]["src_addr"],
			"src_as":   samples[0]["src_as"],
			"region":   samples[0]["region"],
			"service":  samples[0]["service"],
			"bytes":    1e9,
		}},
		"k": 3,
	})
	req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(reqBody))
	rr = httptest.NewRecorder()
	s.handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	var resp serve.Response
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || len(resp.Results[0].Links) == 0 {
		t.Fatalf("no prediction for a known tuple: %s", rr.Body)
	}
	top := resp.Results[0].Links[0].Link

	// Excluding the top link must produce a different answer (or no
	// answer), never the excluded link.
	reqBody, _ = json.Marshal(map[string]any{
		"flows": []map[string]any{{
			"src_addr": samples[0]["src_addr"],
			"src_as":   samples[0]["src_as"],
			"region":   samples[0]["region"],
			"service":  samples[0]["service"],
			"bytes":    1e9,
		}},
		"exclude_links": []uint32{uint32(top)},
		"k":             3,
	})
	req = httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(reqBody))
	rr = httptest.NewRecorder()
	s.handler().ServeHTTP(rr, req)
	resp = serve.Response{} // Unmarshal merges into maps; start clean.
	json.Unmarshal(rr.Body.Bytes(), &resp)
	for _, l := range resp.Results[0].Links {
		if l.Link == top {
			t.Error("excluded link returned")
		}
	}
	if _, ok := resp.Shifted[top]; ok {
		t.Error("excluded link in shifted aggregate")
	}
}

// predictHandlerAllocs is what one 256-flow, 2-excluded-link, k=3
// what-if allocates from httptest.NewRequest through s.handler() to
// the written body: one string per flow's src_addr, tracing, net/http
// and httptest. Otherwise the codec in both directions, Request.Encode
// and Models.Respond allocate nothing on a pooled buffer that answered
// the same body before (serve.TestWhatIfAllocs). The pin is exact, so
// it also moves with the Go release; a lower number is committed by
// editing it.
const predictHandlerAllocs = 286

// predictHandlerBytes bounds the bytes the handler chain itself
// allocates per such what-if, on a warm request and response writer so
// that httptest's share stays out: 16 bytes for each of the 256
// addresses, the span's strings, the headers and net/http's request
// copy, some 4.6 KB. It was 86 KB while each request decoded into,
// encoded into and answered into new storage.
const predictHandlerBytes = 6 << 10

// whatIfBody is that what-if, encoded: the first 256 distinct flows of
// the training window, withdrawing the first two links that are some
// flow's best.
func whatIfBody(t testing.TB, s *server) []byte {
	t.Helper()
	s.mu.RLock()
	recs := s.records
	s.mu.RUnlock()
	req := serve.Request{K: 3}
	gen := s.gen.Load()
	for _, rec := range firstSightings(recs, 256) {
		req.Flows = append(req.Flows, serve.Flow{
			SrcAddr: bgp.FormatIP(rec.Flow.Prefix | 7), SrcAS: uint32(rec.Flow.AS),
			Region: uint16(rec.Flow.Region), Service: uint8(rec.Flow.Type), Bytes: 1e9,
		})
		top := gen.Predict(core.Query{Flow: rec.Flow, K: 1})
		if len(req.ExcludeLinks) < 2 && len(top) == 1 && !slices.Contains(req.ExcludeLinks, top[0].Link) {
			req.ExcludeLinks = append(req.ExcludeLinks, top[0].Link)
		}
	}
	if len(req.Flows) != 256 || len(req.ExcludeLinks) != 2 {
		t.Fatalf("fixture gives %d flows and %d links to exclude, want 256 and 2", len(req.Flows), len(req.ExcludeLinks))
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// post sends body to /v1/predict through the whole handler chain.
func post(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body)))
	return rr
}

func TestPredictHandlerAllocs(t *testing.T) {
	alloctest.SkipPooledUnderRace(t)
	s := testServer(t)
	body, h := whatIfBody(t, s), s.handler()
	what := func() {
		if rr := post(h, body); rr.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rr.Code, rr.Body)
		}
	}
	what() // fill the span and buffer pools
	if allocs := testing.AllocsPerRun(10, what); allocs != predictHandlerAllocs {
		t.Fatalf("/v1/predict allocates %v times per 256-flow what-if, want %d", allocs, predictHandlerAllocs)
	}
	rd := bytes.NewReader(body)
	r, w := httptest.NewRequest("POST", "/v1/predict", rd), &warmWriter{header: http.Header{}}
	warm := func() {
		rd.Reset(body)
		w.body = w.body[:0]
		h.ServeHTTP(w, r)
		if w.code != http.StatusOK {
			t.Fatalf("status %d: %s", w.code, w.body)
		}
	}
	if got := alloctest.BytesPerRun(200, warm); got > predictHandlerBytes {
		t.Fatalf("/v1/predict allocates %d bytes per 256-flow what-if, want at most %d", got, predictHandlerBytes)
	}
}

// warmWriter is a ResponseWriter that keeps its header map and its
// body's array from one request to the next.
type warmWriter struct {
	header http.Header
	code   int
	body   []byte
}

func (w *warmWriter) Header() http.Header  { return w.header }
func (w *warmWriter) WriteHeader(code int) { w.code = code }
func (w *warmWriter) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return len(b), nil
}

// TestConcurrentWhatIfs: requests of every size answered at once,
// each on a buffer from the pool, get the bytes each gets alone. A
// buffer that went back to the pool before its answer was written
// would be overwritten by the next request to take it: under -race
// the detector sees the two at once, and without it the bodies differ.
func TestConcurrentWhatIfs(t *testing.T) {
	s := testServer(t)
	h, base := s.handler(), whatIfBody(t, s)
	var whatIf serve.Request
	if err := json.Unmarshal(base, &whatIf); err != nil {
		t.Fatal(err)
	}
	variant := func(edit func(r *serve.Request)) []byte {
		r := whatIf
		edit(&r)
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	bodies := [][]byte{
		base, []byte(`{}`),
		variant(func(r *serve.Request) { r.Flows = r.Flows[:64] }),
		variant(func(r *serve.Request) { r.K = 16 }),
		variant(func(r *serve.Request) { r.ExcludeLinks = nil }),
		variant(func(r *serve.Request) { r.Flows, r.K = r.Flows[100:101], 1 }),
	}
	want := make([][]byte, len(bodies))
	for i, body := range bodies {
		rr := post(h, body)
		if rr.Code != http.StatusOK {
			t.Fatalf("body %d: status %d: %s", i, rr.Code, rr.Body)
		}
		want[i] = rr.Body.Bytes()
	}
	const workers, rounds = 4, 60
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				j := (w + i) % len(bodies)
				if rr := post(h, bodies[j]); !bytes.Equal(rr.Body.Bytes(), want[j]) {
					t.Errorf("worker %d, round %d: body %d answered %.80q, alone %.80q", w, i, j, rr.Body, want[j])
					return
				}
				runtime.Gosched() // so that the next request on this P may be another worker's
			}
		}()
	}
	wg.Wait()
}

// TestPredictDoesNotWaitOnTheWindow: a request takes no lock a cycle
// holds. A cycle holds s.mu while it appends the day to the record
// window and trims it; a what-if and a graded query (no exclusions,
// so its answers go to the quality monitor) must both complete
// meanwhile.
func TestPredictDoesNotWaitOnTheWindow(t *testing.T) {
	s := testServer(t)
	whatIf := whatIfBody(t, s)
	var req serve.Request
	if err := json.Unmarshal(whatIf, &req); err != nil {
		t.Fatal(err)
	}
	req.ExcludeLinks = nil
	graded, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	h := s.handler()
	s.mu.Lock()
	defer s.mu.Unlock()
	done := make(chan *httptest.ResponseRecorder, 2)
	for _, body := range [][]byte{whatIf, graded} {
		go func() { done <- post(h, body) }()
	}
	for range 2 {
		select {
		case rr := <-done:
			if rr.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rr.Code, rr.Body)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a request is still waiting after 10 s while the record window's lock is held")
		}
	}
}

func BenchmarkPredictHandler(b *testing.B) {
	s := testServer(b)
	body, h := whatIfBody(b, s), s.handler()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rr := post(h, body); rr.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rr.Code, rr.Body)
		}
	}
}

// TestPredictAnswerIsEncodingJSONs: the bytes /v1/predict writes are
// the bytes encoding/json writes for the same Response, sent whole
// under a Content-Length.
func TestPredictAnswerIsEncodingJSONs(t *testing.T) {
	s := testServer(t)
	for name, body := range map[string][]byte{
		"what-if": whatIfBody(t, s), "no flows": []byte(`{}`), "null": []byte(`null`),
		"novel flow": []byte(`{"flows":[{"src_addr":"1.2.3.4","src_as":4200000001,"bytes":0.1}],"exclude_links":null}`),
	} {
		rr := post(s.handler(), body)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, rr.Code, rr.Body)
		}
		var resp serve.Response
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rr.Body.Bytes(), want.Bytes()) {
			t.Errorf("%s: answer is not what encoding/json writes:\n got %s\nwant %s", name, rr.Body, &want)
		}
		if got := rr.Header().Get("Content-Length"); got != strconv.Itoa(want.Len()) || rr.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: Content-Length %q for %d bytes, Content-Type %q", name, got, want.Len(), rr.Header().Get("Content-Type"))
		}
	}
}

// requestsCounted is tipsyd_predict_requests_total: the bodies that
// decoded.
func requestsCounted(s *server) uint64 { return s.met.requests.Value() }

func TestPredictRejectsBadInput(t *testing.T) {
	s := testServer(t)
	before := requestsCounted(s)
	// What the decoder refuses never counts as a request: malformed
	// JSON, and every kind of body DESIGN.md §12 lists as refused where
	// encoding/json's Decoder used to let it through.
	for _, body := range []string{
		"{not json", "", `{"k":"3"}`, `{"flows":[{"src_as":4294967296}]}`,
		`{"k":3} trailing`, `{"k":3}{"k":4}`,
		"{\"flows\":[{\"src_addr\":\"1.2.3.\xff\"}]}",
		`{"k":3,"k":3}`, `{"flows":[],"Flows":[]}`, `{"\u006b":3}`, `{"flowſ":[]}`,
		`{"x":` + strings.Repeat("[", 40) + strings.Repeat("]", 40) + `}`,
	} {
		rr := post(s.handler(), []byte(body))
		if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "bad request JSON at byte") {
			t.Errorf("body %q: status %d, %q; want 400 saying where", body, rr.Code, rr.Body)
		}
	}
	if after := requestsCounted(s); after != before {
		t.Errorf("%d refused bodies counted as requests", after-before)
	}
	// Every address must be a dotted quad and nothing more.
	for _, addr := range []string{
		"not-an-ip", "1.2.3.4garbage", "1.2.3.4.5", " 1.2.3.4", "+1.2.3.4", "010.1.1.1",
	} {
		body, _ := json.Marshal(map[string]any{
			"flows": []map[string]any{{"src_addr": "11.0.3.7", "src_as": 1}, {"src_addr": addr, "src_as": 1}},
		})
		rr := post(s.handler(), body)
		if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "flow 1:") {
			t.Errorf("address %q: status %d, body %q; want 400 naming flow 1", addr, rr.Code, rr.Body)
		}
	}
}

// TestPredictBodyBounds: a body over maxPredictBody is a 413 that
// counts as no request, one just under it is read, and buffers a
// request grew past maxPooledBuf do not go back to the pool.
func TestPredictBodyBounds(t *testing.T) {
	s := testServer(t)
	before := requestsCounted(s)
	padded := func(n int) []byte { // n bytes, all but a few under a key that names no field
		return []byte(`{"pad":"` + strings.Repeat("x", n-len(`{"pad":"","k":1}`)) + `","k":1}`)
	}
	if rr := post(s.handler(), padded(maxPredictBody+1)); rr.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("body of %d bytes: status %d, want 413", maxPredictBody+1, rr.Code)
	}
	if after := requestsCounted(s); after != before {
		t.Errorf("the refused body counted as %d requests", after-before)
	}
	if rr := post(s.handler(), padded(maxPredictBody)); rr.Code != http.StatusOK {
		t.Errorf("body of %d bytes: status %d: %.100s", maxPredictBody, rr.Code, rr.Body)
	}
	if after := requestsCounted(s); after != before+1 {
		t.Errorf("the body at the bound counted as %d requests", after-before)
	}

	big := new(predictBuf)
	big.in.Grow(maxPooledBuf + 1)
	big.release()
	tall := &predictBuf{out: make([]byte, 0, maxPooledBuf+1)}
	tall.release()
	for i := 0; i < 8; i++ { // whatever the pool hands out now, it is neither of them
		if b := predictBufs.Get().(*predictBuf); b == big || b == tall {
			t.Fatalf("a buffer of %d and %d bytes went back to the pool", b.in.Cap(), cap(b.out))
		}
	}

	// A short body of repeated link IDs decodes into a long array of
	// them, and fails in Encode before any answer is written.
	wide := []byte(`{"exclude_links":[1` + strings.Repeat(",1", maxPooledFlows) + `],"flows":[{}]}`)
	if len(wide) > maxPooledBuf {
		t.Fatalf("a body of %d bytes is not under the byte bound", len(wide))
	}
	if rr := post(s.handler(), wide); rr.Code != http.StatusBadRequest {
		t.Errorf("%d excluded links and an empty flow: status %d, want 400", maxPooledFlows+1, rr.Code)
	}
	for i := 0; i < 8; i++ {
		if b := predictBufs.Get().(*predictBuf); cap(b.req.ExcludeLinks) > maxPooledFlows {
			t.Fatalf("a buffer holding %d excluded links went back to the pool", cap(b.req.ExcludeLinks))
		}
	}
}

// TestPredictUnencodableAnswer: two flows of 1.7e308 bytes each shift
// +Inf bytes onto their link, which JSON cannot carry. The client gets
// a 500 that says so, not a 200 with an empty body, and the log a
// line.
func TestPredictUnencodableAnswer(t *testing.T) {
	s := testServer(t)
	var logged bytes.Buffer
	defer func(l *slog.Logger) { s.logHTTP = l }(s.logHTTP)
	s.logHTTP = slog.New(slog.NewTextHandler(&logged, nil))
	var sample []serve.Flow
	if err := json.Unmarshal(get(t, s, "/v1/sample").Body.Bytes(), &sample); err != nil || len(sample) == 0 {
		t.Fatalf("sample endpoint: %v", err)
	}
	sample[0].Bytes = 1.7e308
	body, err := json.Marshal(serve.Request{Flows: []serve.Flow{sample[0], sample[0], sample[0], sample[0]}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	rr := post(s.handler(), body)
	if rr.Code != http.StatusInternalServerError || !strings.Contains(rr.Body.String(), "infinity") {
		t.Errorf("status %d, body %q; want 500 naming the infinity", rr.Code, rr.Body)
	}
	if !strings.Contains(logged.String(), "encode response") {
		t.Errorf("no log line for the unencodable answer: %q", &logged)
	}
	// The other endpoints encode before the status line too.
	rr = httptest.NewRecorder()
	s.writeJSONStatus(rr, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	if rr.Code != http.StatusInternalServerError || rr.Body.Len() == 0 {
		t.Errorf("writeJSONStatus of +Inf: status %d, body %q; want 500 with a message", rr.Code, rr.Body)
	}
}

func TestRetrainAdvancesModel(t *testing.T) {
	s := testServer(t)
	before := s.gen.Load().TrainedAt()
	s.advanceDays(1, nil)
	s.retrain(nil)
	if after := s.gen.Load().TrainedAt(); after != before+24 {
		t.Errorf("trainedAt %d -> %d, want +24", before, after)
	}
	// The sliding window keeps trainDays of rows: none older than the
	// cutoff, and none of those days dropped early.
	if len(s.records) == 0 {
		t.Fatal("record store empty after retrain")
	}
	cutoff := s.simHour() - 24*4
	var perDay [4]int
	for _, r := range s.records {
		if r.Hour < cutoff {
			t.Fatalf("record at hour %d survived the %d cutoff", r.Hour, cutoff)
		}
		perDay[(r.Hour-cutoff)/24]++
	}
	for d, n := range perDay {
		if n == 0 || len(s.days) != 4 || s.days[d].from != cutoff+wan.Hour(24*d) || s.days[d].records < n {
			t.Errorf("window day %d from hour %d: %d rows, %d days counted (%+v)", d, cutoff+wan.Hour(24*d), n, len(s.days), s.days)
		}
	}
}
