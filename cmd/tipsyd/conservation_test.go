package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"tipsy/internal/bgp"
	"tipsy/internal/serve"
)

// TestServingMetricsConserveFlows: what tipsyd's registry says it
// served adds up to what its clients were sent. Requests land on
// every rung (ensemble, geo and none), plus a refused body and a bad
// address.
// Afterwards:
//   - the fallback counters sum to the flows answered in 200s,
//   - each rung's latency histogram counts the flows that tried it,
//   - the request counter counts the bodies that decoded.
func TestServingMetricsConserveFlows(t *testing.T) {
	s := smallServer(t, 37)
	var known []serve.Flow
	for _, rec := range firstSightings(s.records, 12) {
		known = append(known, serve.Flow{
			SrcAddr: bgp.FormatIP(rec.Flow.Prefix | 7), SrcAS: uint32(rec.Flow.AS),
			Region: uint16(rec.Flow.Region), Service: uint8(rec.Flow.Type), Bytes: 1e9,
		})
	}
	novel := serve.Flow{SrcAddr: "1.2.3.4", SrcAS: 4200000001, Region: known[0].Region, Bytes: 1e6}
	every := s.sim.Links()

	var bodies [][]byte
	for _, req := range []serve.Request{
		{Flows: known, K: 3},                                        // ensemble
		{Flows: append(known[:4:4], novel, novel), K: 1},            // ensemble and geo
		{Flows: []serve.Flow{novel}, ExcludeLinks: every[:1]},       // geo, default k
		{Flows: known[:3], ExcludeLinks: every, K: 3},               // none
		{Flows: []serve.Flow{known[5], novel}, ExcludeLinks: every}, // none
		{K: 3}, // no flows: decoded, nothing answered
	} {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	badAddr, _ := json.Marshal(serve.Request{Flows: []serve.Flow{known[0], {SrcAddr: "1.2.3", SrcAS: 1}}})
	bodies = append(bodies, badAddr, []byte("{not json"))

	var decoded, answered uint64
	var tried [serve.None]uint64
	rungs := map[string]serve.Rung{}
	for r := serve.Ensemble; r <= serve.None; r++ {
		rungs[r.String()] = r
	}
	seen := map[serve.Rung]bool{}
	for _, body := range bodies {
		rr := post(s.handler(), body)
		switch {
		case rr.Code == http.StatusOK:
			decoded++
		case strings.Contains(rr.Body.String(), "bad request JSON"):
			continue
		case rr.Code == http.StatusBadRequest:
			decoded++ // the body decoded; one of its addresses did not
			continue
		default:
			t.Fatalf("status %d: %s", rr.Code, rr.Body)
		}
		var resp serve.Response
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		for _, res := range resp.Results {
			rung, ok := rungs[res.Model]
			if !ok {
				t.Fatalf("unknown rung %q", res.Model)
			}
			seen[rung] = true
			answered++
			// A trained generation has every rung, so a flow tries
			// each one down to the one that answered it.
			for r := serve.Ensemble; r <= rung && r < serve.None; r++ {
				tried[r]++
			}
		}
	}
	for _, r := range []serve.Rung{serve.Ensemble, serve.Geo, serve.None} {
		if !seen[r] {
			t.Errorf("no flow was answered by rung %v", r)
		}
	}

	var fallbacks uint64
	counters := map[string]uint64{}
	snap := s.reg.Snapshot()
	for _, c := range snap.Counters {
		counters[c.Name] = uint64(c.Value)
		if strings.HasPrefix(c.Name, "tipsyd_fallback_") && strings.HasSuffix(c.Name, "_total") {
			fallbacks += uint64(c.Value)
		}
	}
	if fallbacks != answered {
		t.Errorf("fallback counters sum to %d, want the %d flows answered", fallbacks, answered)
	}
	if got := counters["tipsyd_predict_requests_total"]; got != decoded {
		t.Errorf("tipsyd_predict_requests_total = %d, want the %d bodies that decoded", got, decoded)
	}
	hists := map[string]uint64{}
	for _, h := range snap.Histograms {
		hists[h.Name] = h.Hist.Count
	}
	for r := serve.Ensemble; r < serve.None; r++ {
		name := "tipsyd_rung_" + r.String() + "_ns"
		if hists[name] != tried[r] {
			t.Errorf("%s counts %d attempts, want the %d flows that tried it", name, hists[name], tried[r])
		}
	}
}
