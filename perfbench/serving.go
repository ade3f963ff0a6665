package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"time"

	"github.com/aquascale/aquascale/internal/core"
	"github.com/aquascale/aquascale/internal/mlearn"
	"github.com/aquascale/aquascale/internal/serve"
	"github.com/aquascale/aquascale/internal/social"
	"github.com/aquascale/aquascale/internal/weather"
)

// districtID names the one district every served fleet hosts.
const districtID = "bench"

// observePath is the fleet route every observe request is posted to.
const observePath = "/v1/districts/" + districtID + "/observe?wait=1"

// requestSet is a pool of pre-built observe request bodies made from
// real cold scenarios, with the offline evidence each one carries and
// the scenario's ground truth. Even entries are "features" requests
// (IoT deltas only); odd entries are "readings" requests at one of the
// 24 pattern hours carrying temperature, frozen nodes and human reports.
type requestSet struct {
	bodies   [][]byte
	readings []bool
	reqs     []serve.ObserveRequest
	obs      []core.Observation // offline evidence, built as the server builds it
	truth    [][]int            // per-node leak labels
	reports  [][]social.Report  // human reports (readings entries only)
	observe  []float64          // µs per System.Observe call while building
	digest   string             // SHA-256 over every body, in order
}

// coldTemps are the readings requests' air temperatures (°F): mostly
// freezing, so frozen-node evidence counts, with one thaw in four that
// makes the server discard it.
var coldTemps = []float64{18, 25, 12, 41}

// buildRequests draws n cold scenarios from sys and turns each into one
// request body. Bodies, evidence and truth depend only on seed.
func buildRequests(sys *core.System, n int, seed int64, tr *tracer) (*requestSet, error) {
	rng := rand.New(rand.NewSource(seed))
	gen, err := social.NewGenerator(sys.Network(), sys.Social(), rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return nil, err
	}
	nodes := len(sys.Network().Nodes)
	rs := &requestSet{}
	h := sha256.New()
	for i := 0; i < n; i++ {
		sc, err := sys.GenerateColdScenario(multiLeak, rng)
		if err != nil {
			return nil, fmt.Errorf("cold scenario: %w", err)
		}
		sp := tr.begin("core.observe", "requests", -1)
		t0 := time.Now()
		obs, err := sys.Observe(sc, core.ObserveOptions{Sources: core.Sources{Weather: true, Human: true}}, rng)
		rs.observe = append(rs.observe, micros(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("observe: %w", err)
		}
		req := serve.ObserveRequest{Features: obs.Features}
		readings := i%2 == 1
		var reports []social.Report
		if readings {
			hour := (i / 2) % 24
			base, err := sys.QuiescentBaseline(hour)
			if err != nil {
				return nil, fmt.Errorf("baseline: %w", err)
			}
			vals := make([]float64, len(base))
			for k := range vals {
				vals[k] = base[k] + obs.Features[k]
			}
			temp := coldTemps[(i/2)%len(coldTemps)]
			reports, err = gen.Reports(sc.LeakNodes(), 2)
			if err != nil {
				return nil, fmt.Errorf("reports: %w", err)
			}
			req = serve.ObserveRequest{Readings: vals, PatternHour: &hour, TemperatureF: &temp}
			for v, frozen := range obs.Frozen {
				if frozen {
					req.FrozenNodes = append(req.FrozenNodes, v)
				}
			}
			for _, r := range reports {
				req.Reports = append(req.Reports, serve.ReportIn{X: r.X, Y: r.Y, Slot: r.Slot})
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		h.Write(body)
		// The evidence is rebuilt from the decoded body, exactly as the
		// server sees it.
		var got serve.ObserveRequest
		if err := json.Unmarshal(body, &got); err != nil {
			return nil, err
		}
		ev, err := offlineEvidence(sys, got)
		if err != nil {
			return nil, err
		}
		rs.bodies = append(rs.bodies, body)
		rs.readings = append(rs.readings, readings)
		rs.reqs = append(rs.reqs, got)
		rs.obs = append(rs.obs, ev)
		rs.truth = append(rs.truth, sc.Labels(nodes))
		rs.reports = append(rs.reports, reports)
	}
	rs.digest = hex.EncodeToString(h.Sum(nil))
	return rs, nil
}

// offlineEvidence converts a request into the core.Observation the
// served pipeline localizes, following the documented request semantics:
// readings minus the quiescent baseline of their pattern hour, frozen
// nodes only when freezing, reports grouped into cliques at the default
// γ of 30 m.
func offlineEvidence(sys *core.System, req serve.ObserveRequest) (core.Observation, error) {
	obs := core.Observation{Features: req.Features}
	if len(req.Readings) > 0 {
		base, err := sys.QuiescentBaseline(*req.PatternHour)
		if err != nil {
			return obs, err
		}
		obs.Features = make([]float64, len(req.Readings))
		for k, r := range req.Readings {
			obs.Features[k] = r - base[k]
		}
	}
	net := sys.Network()
	if len(req.FrozenNodes) > 0 && (req.TemperatureF == nil || weather.Freezing(*req.TemperatureF)) {
		obs.Frozen = make([]bool, len(net.Nodes))
		for _, v := range req.FrozenNodes {
			obs.Frozen[v] = true
		}
	}
	if len(req.Reports) > 0 {
		pe := sys.Social().FalsePositiveRate
		if pe <= 0 {
			pe = 0.3
		}
		reports := make([]social.Report, len(req.Reports))
		for i, r := range req.Reports {
			reports[i] = social.Report{X: r.X, Y: r.Y, Slot: r.Slot}
		}
		obs.Cliques = social.BuildCliques(net, reports, 30, pe)
	}
	return obs, nil
}

// district is one served fleet on a loopback listener, with two client
// connections.
type district struct {
	sys     *core.System
	fleet   *serve.Fleet
	srv     *serve.Server
	handler http.Handler
	httpSrv *http.Server
	done    chan struct{}
	url     string
	clients []*http.Client
}

// startDistrict serves sys as the one district of a fleet with the
// library's default serving configuration. With a tracer, the handler is
// wrapped to record an "http.handler" span under the client span named
// in the X-Bench-Span header.
func startDistrict(sys *core.System, tr *tracer) (*district, error) {
	fleet, err := serve.NewFleet([]serve.District{{ID: districtID, Sys: sys}}, serve.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = fleet.Shutdown(context.Background())
		return nil, err
	}
	d := &district{sys: sys, fleet: fleet, srv: fleet.District(districtID), handler: fleet.Handler(),
		done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	h := d.handler
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, err := strconv.Atoi(r.Header.Get("X-Bench-Span"))
			if err != nil { // not a traced request
				inner.ServeHTTP(w, r)
				return
			}
			sp := tr.begin("http.handler", r.Header.Get("X-Bench-Trace"), parent)
			inner.ServeHTTP(w, r)
			tr.end(sp)
		})
	}
	d.httpSrv = &http.Server{Handler: h}
	go func() {
		defer close(d.done)
		_ = d.httpSrv.Serve(ln)
	}()
	for c := 0; c < 2; c++ {
		d.clients = append(d.clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   30 * time.Second,
		})
	}
	return d, nil
}

// close stops the listener, drains the fleet and waits for the serve
// goroutine to end.
func (d *district) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.httpSrv.Shutdown(ctx)
	<-d.done
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
	if ferr := d.fleet.Shutdown(ctx); err == nil {
		err = ferr
	}
	return err
}

// post sends one observe body on connection c and returns the response
// body; any status but 200 is an error. spanParent and trace, when set,
// ride along for the traced handler.
func (d *district) post(c int, body []byte, spanParent int, trace string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, d.url+observePath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanParent >= 0 {
		req.Header.Set("X-Bench-Span", strconv.Itoa(spanParent))
		req.Header.Set("X-Bench-Trace", trace)
	}
	resp, err := d.clients[c].Do(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("observe: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// jobReply is the observe response body.
type jobReply struct {
	Job    string        `json:"job"`
	State  string        `json:"state"`
	Result *serve.Result `json:"result,omitempty"`
	Error  string        `json:"error,omitempty"`
	Code   string        `json:"code,omitempty"`
}

// gateResult is the served-vs-offline correctness check over a request
// set.
type gateResult struct {
	requests   int
	failed     int
	mismatches int // requests whose served probabilities differ in any bit
	hamming    float64
	results    []*serve.Result
}

// gate serves every body once over HTTP and compares each served
// probability vector bit for bit with offline System.Localize on the
// same evidence. It also scores the served leak sets against the
// scenarios' ground truth (mean Hamming score).
func (d *district) gate(rs *requestSet) (gateResult, error) {
	g := gateResult{requests: len(rs.bodies)}
	total := 0.0
	for i, body := range rs.bodies {
		raw, err := d.post(0, body, -1, "")
		var rep jobReply
		if err == nil {
			err = json.Unmarshal(raw, &rep)
		}
		if err == nil && (rep.State != "done" || rep.Result == nil) {
			err = fmt.Errorf("observe: job %s ended %q: %s", rep.Job, rep.State, rep.Error)
		}
		if err != nil {
			g.failed++
			g.results = append(g.results, nil)
			continue
		}
		want, _, err := d.sys.Localize(rs.obs[i])
		if err != nil {
			return g, fmt.Errorf("offline localize: %w", err)
		}
		if !sameBits(rep.Result.Proba, want.Proba) {
			g.mismatches++
		}
		total += mlearn.HammingScoreProba(rep.Result.Proba, rs.truth[i])
		g.results = append(g.results, rep.Result)
	}
	if ok := g.requests - g.failed; ok > 0 {
		g.hamming = total / float64(ok)
	}
	return g, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// okReply is the cheap per-request check used under load: the body must
// report a finished job.
func okReply(raw []byte) error {
	if !bytes.Contains(raw, []byte(`"state":"done"`)) {
		return fmt.Errorf("observe: unfinished job: %s", bytes.TrimSpace(raw))
	}
	return nil
}
