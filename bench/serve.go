package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tipsy/internal/bgp"
	"tipsy/internal/core"
	"tipsy/internal/features"
	"tipsy/internal/monitor"
	"tipsy/internal/obsv"
	"tipsy/internal/wan"
)

// buildTipsyd compiles cmd/tipsyd into out. It runs before set-up is
// timed: a build is not part of anyone's serving path.
func buildTipsyd(ctx context.Context, root, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/tipsyd")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/tipsyd: %w\n%s", err, msg)
	}
	return nil
}

// daemon is one running tipsyd.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	log    *os.File
	exited chan struct{}
}

// startDaemon spawns tipsyd on a free loopback port and returns once
// /healthz answers 200. The daemon does not report back what
// `-listen :0` bound, so the port is picked here; the kernel does not
// hand a just-closed ephemeral port to anyone else this soon.
func startDaemon(ctx context.Context, bin, logPath string, dayEvery time.Duration) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-listen", addr, "-seed", strconv.Itoa(daemonSeed),
		"-train-days", strconv.Itoa(daemonTrainDays),
		"-day-every", dayEvery.String(), "-bundle-dir", "", "-log-level", "warn")
	cmd.Stderr = logf
	// Whatever path the bench leaves by, a crash included, the kernel
	// takes the daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() {
		// Reaps the child; stop waits on the channel.
		_ = cmd.Wait()
		close(d.exited)
	}()
	deadline := time.After(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			err = fmt.Errorf("tipsyd exited during start-up; see %s", logPath)
		case <-ctx.Done():
			err = ctx.Err()
		case <-deadline:
			err = errors.New("tipsyd not healthy after 30 s")
		case <-time.After(5 * time.Millisecond):
			continue
		}
		d.stop()
		return nil, err
	}
}

// stop kills the daemon and waits until it has ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill()
	<-d.exited
	d.log.Close()
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads the daemon's public counters: every unlabelled sample
// of /metrics, plus the simulated hour from /healthz.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var health struct {
		SimulatedHour float64 `json:"simulated_hour"`
	}
	if err := d.getJSON("/healthz", &health); err != nil {
		return nil, err
	}
	out["healthz_simulated_hour"] = health.SimulatedHour
	return out, nil
}

// The wire shapes of POST /v1/predict.
type flowJSON struct {
	SrcAddr string  `json:"src_addr"`
	SrcAS   uint32  `json:"src_as"`
	Region  uint16  `json:"region"`
	Service uint8   `json:"service"`
	Bytes   float64 `json:"bytes"`
}

type predictBody struct {
	Flows        []flowJSON   `json:"flows"`
	ExcludeLinks []wan.LinkID `json:"exclude_links,omitempty"`
	K            int          `json:"k"`
}

type predictReply struct {
	Results []struct {
		Flow  int    `json:"flow"`
		Model string `json:"model"`
		Links []struct {
			Link wan.LinkID `json:"link"`
			Frac float64    `json:"frac"`
		} `json:"links"`
	} `json:"results"`
}

// request is one pre-encoded query and what is needed to check its
// answer.
type request struct {
	body     []byte
	flows    []features.FlowFeatures
	excluded []wan.LinkID
}

const predictK = 3

// serve drives a real tipsyd subprocess with the CMS's query.
type serve struct {
	cfg  config
	live bool
	// flowsPerReq and excludes shape the query; latLimit is its limit.
	flowsPerReq, excludes int
	latLimit              time.Duration
	dayEvery              time.Duration

	d       *daemon
	env     *env
	twin    *ladder
	simDur  time.Duration
	reqs    [][]request // per client
	clients []*http.Client
	before  map[string]float64
}

func newServe(cfg config, live bool) *serve {
	s := &serve{cfg: cfg, live: live}
	if live {
		// No exclusions, so every flow also goes through the monitor,
		// while ingest, retrain and model swap cycles run beside the
		// load.
		s.flowsPerReq, s.excludes, s.latLimit, s.dayEvery = 64, 0, 8*time.Millisecond, time.Second
	} else {
		// The CMS's what-if before a withdrawal (§4.4), on a quiescent
		// daemon.
		s.flowsPerReq, s.excludes, s.latLimit, s.dayEvery = 256, 2, 10*time.Millisecond, time.Hour
	}
	return s
}

func (s *serve) numClients() int      { return 2 }
func (s *serve) limit() time.Duration { return s.latLimit }
func (s *serve) sutPID() int          { return s.d.cmd.Process.Pid }

// requestsPerClient is how many distinct queries a client cycles
// through; tipsyd caches nothing between requests, so repeats cost
// the same as fresh ones.
const requestsPerClient = 128

func (s *serve) setup(ctx context.Context) error {
	d, err := startDaemon(ctx, s.cfg.tipsydBin, s.cfg.outPath("tipsyd-"+s.cfg.workload+".log"), s.dayEvery)
	if err != nil {
		return err
	}
	s.d = d
	s.env = daemonEnv(daemonSeed)
	recs, simDur := s.env.aggregate(0, daemonTrainDays*24)
	s.simDur = simDur
	s.twin = s.env.trainLadder(recs)

	// tipsyd's env recipe is private to its package main; if it moves,
	// the twin is no oracle any more and the run must not go on.
	var links []json.RawMessage
	if err := d.getJSON("/v1/links", &links); err != nil {
		return err
	}
	var model struct {
		Tuples int `json:"tuples"`
	}
	if err := d.getJSON("/v1/model", &model); err != nil {
		return err
	}
	if len(links) != s.env.sim.NumLinks() || model.Tuples != s.twin.tuples() {
		return fmt.Errorf("in-process twin disagrees with tipsyd: links %d vs %d, tuples %d vs %d",
			s.env.sim.NumLinks(), len(links), s.twin.tuples(), model.Tuples)
	}

	rng := rand.New(rand.NewSource(s.cfg.seed))
	s.reqs = make([][]request, s.numClients())
	s.clients = make([]*http.Client, s.numClients())
	for c := range s.reqs {
		s.clients[c] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		for i := 0; i < requestsPerClient; i++ {
			req, err := s.buildRequest(rng)
			if err != nil {
				return err
			}
			s.reqs[c] = append(s.reqs[c], req)
		}
	}
	return nil
}

// buildRequest draws one query from the seeded generator. What-if
// queries exclude the links the twin ranks first for the leading
// flows, so that an exclusion always changes an answer.
func (s *serve) buildRequest(rng *rand.Rand) (request, error) {
	var req request
	body := predictBody{K: predictK}
	geoip := s.env.sim.GeoIP()
	for i := 0; i < s.flowsPerReq; i++ {
		f := &s.env.flows[rng.Intn(len(s.env.flows))]
		a := f.SrcAddr
		body.Flows = append(body.Flows, flowJSON{
			SrcAddr: fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a)),
			SrcAS:   uint32(f.SrcAS), Region: uint16(f.DstRegion), Service: uint8(f.DstType),
			Bytes: float64(1e6 + rng.Int63n(1e10)),
		})
		prefix := bgp.Slash24(a)
		req.flows = append(req.flows, features.FlowFeatures{
			AS: f.SrcAS, Prefix: prefix, Loc: geoip.Lookup(prefix),
			Region: f.DstRegion, Type: f.DstType,
		})
	}
	for i := 0; len(req.excluded) < s.excludes && i < len(req.flows); i++ {
		preds, _ := s.twin.predict(core.Query{Flow: req.flows[i], K: 1, Exclude: req.isExcluded})
		if len(preds) > 0 {
			req.excluded = append(req.excluded, preds[0].Link)
		}
	}
	body.ExcludeLinks = req.excluded
	var err error
	req.body, err = json.Marshal(body)
	return req, err
}

func (r *request) isExcluded(l wan.LinkID) bool {
	for _, x := range r.excluded {
		if x == l {
			return true
		}
	}
	return false
}

func (s *serve) teardown() {
	if s.d != nil {
		s.d.stop()
		s.d = nil
	}
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
}

func (s *serve) op(client, seq int, tr *tracer, root int) opOutcome {
	req := &s.reqs[client][seq%requestsPerClient]
	sp := tr.start("tipsyd.http_rtt", root, client)
	t0 := time.Now()
	status, body, err := s.post(client, req.body)
	lat := time.Since(t0)
	tr.end(sp)
	if err == nil {
		sp = tr.start("loadgen.verify", root, client)
		// The model tipsyd serves changes with every cycle of
		// serve_live, so only the quiescent daemon has a twin.
		err = s.verify(req, status, body, !s.live && seq%16 == 0)
		tr.end(sp)
	}
	return opOutcome{lat, len(req.flows), err}
}

func (s *serve) post(client int, body []byte) (int, []byte, error) {
	resp, err := s.clients[client].Post(s.d.base+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// verify is the serving oracle: status 200, one result per flow,
// fractions in (0,1], no excluded link returned, and, when twin is
// set, every link and rung equal to the in-process twin's.
func (s *serve) verify(req *request, status int, body []byte, twin bool) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.80s", status, body)
	}
	var reply predictReply
	if err := json.Unmarshal(body, &reply); err != nil {
		return err
	}
	if len(reply.Results) != len(req.flows) {
		return fmt.Errorf("%d results for %d flows", len(reply.Results), len(req.flows))
	}
	for i, r := range reply.Results {
		if r.Flow != i {
			return fmt.Errorf("result %d is for flow %d", i, r.Flow)
		}
		for _, l := range r.Links {
			if !(l.Frac > 0 && l.Frac <= 1+1e-9) {
				return fmt.Errorf("flow %d link %d: fraction %v outside (0,1]", i, l.Link, l.Frac)
			}
			if req.isExcluded(l.Link) {
				return fmt.Errorf("flow %d: excluded link %d returned", i, l.Link)
			}
		}
		if !twin {
			continue
		}
		want, rung := s.twin.predict(core.Query{Flow: req.flows[i], K: predictK, Exclude: req.isExcluded})
		if r.Model != rung || len(r.Links) != len(want) {
			return fmt.Errorf("flow %d: tipsyd answered %s with %d links, twin %s with %d",
				i, r.Model, len(r.Links), rung, len(want))
		}
		for j, l := range r.Links {
			if l.Link != want[j].Link || l.Frac != want[j].Frac {
				return fmt.Errorf("flow %d link %d: tipsyd %d@%v, twin %d@%v",
					i, j, l.Link, l.Frac, want[j].Link, want[j].Frac)
			}
		}
	}
	return nil
}

func (s *serve) beginWindow() error {
	var err error
	s.before, err = s.d.scrape()
	return err
}

// endWindow turns the deltas of tipsyd's own counters over the window
// into the tipsyd.* layer metrics and checks the exact counts.
func (s *serve) endWindow(st loopStats, res *result) error {
	after, err := s.d.scrape()
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - s.before[name] }
	per := func(total, n float64) float64 {
		if n == 0 {
			return 0
		}
		return total / n
	}
	m := res.metrics
	requests := delta("tipsyd_predict_requests_total")
	ensemble := delta("tipsyd_fallback_ensemble_total")
	flows := ensemble + delta("tipsyd_fallback_historical_total") +
		delta("tipsyd_fallback_geo_total") + delta("tipsyd_fallback_none_total")
	cycles := delta("healthz_simulated_hour") / 24
	predictions := delta("monitor_predictions_total")

	var meanRTT time.Duration
	for _, l := range st.lats {
		meanRTT += l
	}
	if len(st.lats) > 0 {
		meanRTT /= time.Duration(len(st.lats))
	}
	handler := per(delta("tipsyd_predict_total_ns_sum"), requests) / 1e6
	m["tipsyd.rtt_p50_ms"] = ms(quantile(st.lats, 0.5))
	m["tipsyd.rtt_p99_ms"] = ms(quantile(st.lats, 0.99))
	m["tipsyd.rtt_max_ms"] = ms(quantile(st.lats, 1))
	m["tipsyd.handler_ms_per_op"] = handler
	m["tipsyd.feature_encode_ms_per_op"] = per(delta("tipsyd_predict_feature_encode_ns_sum"), requests) / 1e6
	m["tipsyd.predict_stage_ms_per_op"] = per(delta("tipsyd_predict_predict_ns_sum"), requests) / 1e6
	m["tipsyd.ladder_ns_per_flow"] = per(delta("tipsyd_rung_ensemble_ns_sum")+
		delta("tipsyd_rung_historical_ns_sum")+delta("tipsyd_rung_geo_ns_sum"), flows)
	m["tipsyd.http_json_ms_per_op"] = ms(meanRTT) - handler
	m["tipsyd.requests"] = requests
	m["tipsyd.rung_ensemble_share"] = per(ensemble, flows)
	m["tipsyd.cycles"] = cycles
	m["tipsyd.cycle_raw_records"] = delta("pipeline_records_raw_total")
	m["tipsyd.gc_pause_ms"] = delta("runtime_gc_pause_ns_sum") / 1e6
	m["tipsyd.gc_cycles"] = delta("runtime_gc_cycles")
	m["tipsyd.sched_latency_ms"] = per(delta("runtime_sched_latency_ns_sum"), delta("runtime_sched_latency_ns_count")) / 1e6
	m["tipsyd.heap_mb"] = after["runtime_heap_bytes"] / (1 << 20)
	m["monitor.predictions"] = predictions

	// A failed op may not have reached the handler, so the exact
	// counts only bind a run without failures.
	if st.failed > 0 {
		return nil
	}
	if int(requests) != st.attempted {
		res.problemf("tipsyd counted %v requests, the clients sent %d", requests, st.attempted)
	}
	if int(flows) != st.work {
		res.problemf("tipsyd's ladder answered %v flows, the clients asked for %d", flows, st.work)
	}
	// Unconstrained queries feed the monitor one prediction per flow;
	// each retrain adds at most 256 shadow samples, and a cycle may be
	// half done at either end of the window.
	lo, hi := 0.0, 0.0
	if s.excludes == 0 {
		lo, hi = flows, flows+256*(cycles+1)
	}
	if predictions < lo || predictions > hi {
		res.problemf("monitor recorded %v predictions, expected %v to %v", predictions, lo, hi)
	}
	return nil
}

// layers measures the in-process twins of the daemon's stages on the
// same queries: what the stage costs without HTTP, JSON and the
// process boundary.
func (s *serve) layers(res *result) {
	m := res.metrics
	reqs := s.reqs[0]
	var nFlows int
	type answer struct {
		preds []core.Prediction
		rung  string
	}
	var answers []answer
	t0 := time.Now()
	for i := range reqs {
		req := &reqs[i]
		for _, f := range req.flows {
			preds, rung := s.twin.predict(core.Query{Flow: f, K: predictK, Exclude: req.isExcluded})
			answers = append(answers, answer{preds, rung})
		}
		nFlows += len(req.flows)
	}
	m["core.predict_ns_per_flow"] = float64(time.Since(t0)) / float64(nFlows)

	// The public part of tipsyd's feature encode; its address parser
	// is private, and tipsyd.feature_encode_ms_per_op has the whole.
	geoip := s.env.sim.GeoIP()
	var sink features.FlowFeatures
	t0 = time.Now()
	for i := range reqs {
		for _, f := range reqs[i].flows {
			prefix := bgp.Slash24(f.Prefix | 7)
			sink = features.FlowFeatures{AS: f.AS, Prefix: prefix, Loc: geoip.Lookup(prefix), Region: f.Region, Type: f.Type}
		}
	}
	m["features.encode_ns_per_flow"] = float64(time.Since(t0)) / float64(nFlows)
	_ = sink

	mon := monitor.New(monitor.DefaultConfig(), obsv.NewRegistry())
	t0 = time.Now()
	k := 0
	for i := range reqs {
		for _, f := range reqs[i].flows {
			mon.RecordPrediction(daemonTrainDays*24, f, answers[k].rung, answers[k].preds)
			k++
		}
	}
	m["monitor.record_prediction_ns_per_flow"] = float64(time.Since(t0)) / float64(nFlows)

	_, day := s.env.aggregate(daemonTrainDays*24, (daemonTrainDays+1)*24)
	m["netsim.day_ms"] = ms(day)
	m["netsim.run_ms"] = ms(s.simDur)
}
