package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"driftclean"
	"driftclean/internal/kb/binsnap"
	"driftclean/internal/kb/kbio"
	"driftclean/internal/serve"
	"driftclean/internal/snapshot"
)

// Serving workload shape. Load comes from one process over at most two
// keep-alive connections, the machine's core count when this benchmark
// was written. The fixed rates are half the median closed-loop capacity
// of two connections on two cores (about 6,800 req/s on serve-hot and
// 6,100 on serve-cold), so a slower server shows as latency first.
const (
	serveShards  = 2
	serveConns   = 2
	sloUs        = 5000
	hotRate      = 3400
	coldRate     = 3050
	ladderFactor = 1.25
	// ladderRequests is the length of one serve-hot ladder step. A fixed
	// count, not a fixed time, puts every step's tail at the same
	// percentile (ten samples beyond: p99), whatever the rate. A
	// serve-cold step lasts at least a second instead, so that it holds
	// one reload.
	ladderRequests = 1000
	warmup         = time.Second
	// capacityRequests bounds the closed-loop capacity phase; it runs
	// out of time first.
	capacityRequests = 100000
	// serverStarts is how often a run starts driftserve; setup_s is the
	// median. A start takes about 30 ms.
	serverStarts = 21
	// probeEvery is the pause between probes of a starting server.
	probeEvery = 250 * time.Microsecond
	// reloadPeriod is the schedule time between POST /v1/reload
	// requests on serve-cold; each falls mid-period, so every ladder step
	// holds one.
	reloadPeriod = time.Second
	// hotExplains is how many explain pairs join the hot query set.
	hotExplains = 200
	// coldExplainShare is the share of serve-cold requests that explain
	// a pair drawn uniformly from every pair of the KB.
	coldExplainShare = 0.9
	// sampleOneIn is the output-check sampling rate of request bodies.
	sampleOneIn = 50
	zipfS       = 1.1
)

// request is one scheduled HTTP request. Endpoint "reload" is the
// POST /v1/reload write; the others are /v1 queries.
type request struct {
	Endpoint          string
	Concept, Instance string
	N                 int
	Sample            bool
}

func (q request) isQuery() bool { return q.Endpoint != "reload" }

// path renders the request's URL path and query.
func (q request) path() string {
	v := url.Values{}
	if q.Concept != "" {
		v.Set("concept", q.Concept)
	}
	if q.Instance != "" {
		v.Set("instance", q.Instance)
	}
	if q.N > 0 {
		v.Set("n", strconv.Itoa(q.N))
	}
	p := "/v1/" + q.Endpoint
	if len(v) > 0 {
		p += "?" + v.Encode()
	}
	return p
}

// call answers the query in process, as driftserve's handler does.
func (q request) call(ctx context.Context, r serve.Querier) (any, error) {
	switch q.Endpoint {
	case "stats":
		return r.Stats(ctx)
	case "concepts":
		return r.Concepts(ctx)
	case "instances":
		return r.Instances(ctx, q.Concept)
	case "explain":
		return r.Explain(ctx, q.Concept, q.Instance, q.N)
	case "drifted":
		return r.Drifted(ctx, q.Concept, q.N)
	}
	return nil, fmt.Errorf("no in-process call for %q", q.Endpoint)
}

// lookup makes the query's reads directly on the snapshot: the KB work
// without routing, caching or encoding.
func (q request) lookup(s *snapshot.Snapshot) {
	switch q.Endpoint {
	case "stats":
		s.Stats()
	case "concepts":
		for _, c := range s.Concepts() {
			_ = len(s.Instances(c))
		}
	case "instances":
		for _, e := range s.Instances(q.Concept) {
			s.Count(q.Concept, e)
			s.SubInstances(q.Concept, e)
		}
	case "explain":
		s.Explain(q.Concept, q.Instance, q.N)
	case "drifted":
		if q.Concept != "" {
			s.DriftDepth(q.Concept)
			s.TopDrifted(q.Concept, q.N)
			return
		}
		for _, c := range s.Concepts() {
			s.DriftDepth(c)
			s.Instances(c)
		}
	}
}

// universe is what serving schedules draw from.
type universe struct {
	// hot is a few hundred distinct queries over every query endpoint,
	// in a seeded order that is also their Zipf rank.
	hot []request
	// pairs explains every pair of the KB.
	pairs []request
}

func newUniverse(s *snapshot.Snapshot, rng *rand.Rand) *universe {
	u := &universe{hot: []request{
		{Endpoint: "stats"},
		{Endpoint: "concepts"},
		{Endpoint: "drifted", N: 20},
	}}
	for _, c := range s.Concepts() {
		u.hot = append(u.hot, request{Endpoint: "instances", Concept: c}, request{Endpoint: "drifted", Concept: c, N: 10})
		for _, e := range s.Instances(c) {
			u.pairs = append(u.pairs, request{Endpoint: "explain", Concept: c, Instance: e, N: 3})
		}
	}
	for _, i := range rng.Perm(len(u.pairs))[:min(hotExplains, len(u.pairs))] {
		u.hot = append(u.hot, u.pairs[i])
	}
	rng.Shuffle(len(u.hot), func(i, j int) { u.hot[i], u.hot[j] = u.hot[j], u.hot[i] })
	return u
}

// schedule draws n requests. serve-hot draws Zipf over the hot set;
// serve-cold mostly explains uniformly drawn pairs and, when rate is
// above 0, reloads once per reloadPeriod of schedule time at that rate.
func (u *universe) schedule(rng *rand.Rand, n int, rate float64, cold bool) []request {
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(u.hot)-1))
	reloadEvery := int(rate * reloadPeriod.Seconds())
	out := make([]request, n)
	for i := range out {
		switch {
		case cold && reloadEvery > 0 && i%reloadEvery == reloadEvery/2:
			out[i] = request{Endpoint: "reload"}
			continue
		case cold && rng.Float64() < coldExplainShare:
			out[i] = u.pairs[rng.Intn(len(u.pairs))]
		default:
			out[i] = u.hot[zipf.Uint64()]
		}
		out[i].Sample = rng.Intn(sampleOneIn) == 0
	}
	return out
}

// server is a running driftserve process.
type server struct {
	cmd      *exec.Cmd
	base     string
	done     chan error
	stopOnce sync.Once
}

// running holds every started server until it is stopped, so that a
// signal to the benchmark stops them too (stopAll).
var running struct {
	sync.Mutex
	list []*server
}

// stopAll stops every server still running.
func stopAll() {
	running.Lock()
	list := append([]*server(nil), running.list...)
	running.Unlock()
	for _, s := range list {
		s.stop()
	}
}

// startServer launches driftserve over the KB file and waits for its
// first 200 answer.
func startServer(e env, kbPath string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	_ = l.Close() // only held to pick a free port
	logFile, err := os.OpenFile(filepath.Join(e.dir, "driftserve.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	cmd := exec.Command(e.driftserve, "-kb", kbPath, "-shards", strconv.Itoa(serveShards), "-addr", addr)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting driftserve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	running.Lock()
	running.list = append(running.list, s)
	running.Unlock()

	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := t0.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			s.stop()
			return nil, fmt.Errorf("driftserve exited before answering: %v (log in %s)", err, logFile.Name())
		default:
		}
		resp, err := probe.Get(s.base + "/v1/stats")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to free the connection
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		// nanosleep: time.Sleep would round the poll up to a millisecond.
		sleep(probeEvery)
	}
	s.stop()
	return nil, errors.New("driftserve did not answer within 60s")
}

// stop sends SIGTERM, waits for the process to exit, and kills it if it
// has not drained within ten seconds.
func (s *server) stop() {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
		select {
		case <-s.done:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
		running.Lock()
		for i, t := range running.list {
			if t == s {
				running.list = append(running.list[:i], running.list[i+1:]...)
				break
			}
		}
		running.Unlock()
	})
}

// clients opens one keep-alive connection per client.
func clients(n int) []*http.Client {
	out := make([]*http.Client, n)
	for i := range out {
		out[i] = &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	return out
}

func httpSender(base string, cs []*http.Client) sender {
	return func(conn int, q request) (int, []byte, error) {
		var resp *http.Response
		var err error
		if q.isQuery() {
			resp, err = cs[conn].Get(base + q.path())
		} else {
			resp, err = cs[conn].Post(base+"/v1/reload", "application/json", nil)
		}
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
}

// fleetVars is the part of driftserve's /debug/vars the benchmark reads.
type fleetVars struct {
	Driftserve serve.Metrics `json:"driftserve"`
}

func fetchVars(base string) (serve.Metrics, error) {
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		return serve.Metrics{}, err
	}
	defer resp.Body.Close()
	var v fleetVars
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return serve.Metrics{}, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	return v.Driftserve, nil
}

// varsDelta is the change in driftserve's counters over a phase.
type varsDelta struct {
	hits, misses, coalesced, shed, swaps int64
}

func deltaOf(a, b serve.Metrics) varsDelta {
	d := varsDelta{shed: b.Shed - a.Shed, swaps: b.Swaps - a.Swaps}
	for name, eb := range b.Endpoints {
		ea := a.Endpoints[name]
		d.hits += eb.CacheHits - ea.CacheHits
		d.misses += eb.CacheMisses - ea.CacheMisses
		d.coalesced += eb.Coalesced - ea.Coalesced
	}
	return d
}

func (d varsDelta) hitRatio() float64 {
	if d.hits+d.misses+d.coalesced == 0 {
		return 0
	}
	return float64(d.hits) / float64(d.hits+d.misses+d.coalesced)
}

// newFleet builds the same 2-shard router driftserve -shards 2 serves,
// over one freeze of the KB file.
func newFleet(path string, opts serve.Options) (*serve.Router, *snapshot.Snapshot, error) {
	snap, _, err := kbio.FreezeFile(path)
	if err != nil {
		return nil, nil, err
	}
	ring := serve.NewRing(serveShards, 0)
	parts := snap.Partition(serveShards, ring.Owner)
	svcs := make([]*serve.Service, serveShards)
	for i := range svcs {
		svcs[i] = serve.New(parts[i], opts)
	}
	return serve.NewRouter(svcs, ring, serve.RouterOptions{}), snap, nil
}

// encode renders a query answer exactly as driftserve's handler does.
func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sameBody reports whether an HTTP body equals the in-process answer's
// bytes. /v1/stats carries the snapshot generation, which counts
// freezes in the answering process, so the check takes it from the
// HTTP answer before comparing.
func sameBody(q request, got, want []byte) bool {
	if q.Endpoint != "stats" {
		return bytes.Equal(got, want)
	}
	var g, w serve.StatsResult
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(want, &w) != nil {
		return false
	}
	w.Generation = g.Generation
	wb, err := encode(w)
	return err == nil && bytes.Equal(got, wb)
}

// checkBodies compares every sampled HTTP body with the in-process
// answer over the same file and marks mismatches failed.
func checkBodies(r *report, ref serve.Querier, reqs []request, xs []exchange) error {
	checked := 0
	for i, x := range xs {
		if !reqs[i].Sample || x.Status != http.StatusOK || x.Err != nil {
			continue
		}
		v, err := reqs[i].call(context.Background(), ref)
		if err != nil {
			return fmt.Errorf("reference answer for %s: %w", reqs[i].path(), err)
		}
		want, err := encode(v)
		if err != nil {
			return err
		}
		checked++
		if !sameBody(reqs[i], x.Body, want) {
			r.markFailed("body mismatch")
			r.lines = append(r.lines, fmt.Sprintf("check FAILED: %s answered %d bytes that differ from the in-process answer", reqs[i].path(), len(x.Body)))
		}
	}
	r.lines = append(r.lines, fmt.Sprintf("check %d sampled HTTP bodies against the in-process router", checked))
	return nil
}

// buildServeKB runs the batch workload's pipeline on the seed's first
// corpus and writes the cleaned KB as a binary snapshot.
func buildServeKB(e env) (string, error) {
	rep, err := driftclean.CleanContext(context.Background(), driftclean.WithConfig(pipelineConfig(e.seed, 0, batchSentences)))
	if err = cleanErr(err); err != nil {
		return "", fmt.Errorf("building the serving KB: %w", err)
	}
	path := filepath.Join(e.dir, "kb.bin")
	if err := binsnap.WriteFile(path, rep.System.KB); err != nil {
		return "", err
	}
	return path, nil
}

// phase is one run of scheduled requests.
type phase struct {
	reqs  []request
	xs    []exchange
	stats loadStats
	fails int
}

// runPhase schedules d worth of requests at rate and runs them.
func runPhase(send sender, u *universe, rng *rand.Rand, rate float64, d time.Duration, cold bool) *phase {
	return runRequests(send, u, rng, rate, int(rate*d.Seconds()), cold)
}

// runRequests schedules n requests at rate and runs them.
func runRequests(send sender, u *universe, rng *rand.Rand, rate float64, n int, cold bool) *phase {
	p := &phase{reqs: u.schedule(rng, n, rate, cold)}
	p.xs = openLoop(p.reqs, rate, serveConns, send)
	p.stats = account(p.xs, serveConns, func(i int) bool { return p.reqs[i].isQuery() })
	for _, x := range p.xs {
		if x.Err != nil || x.Status != http.StatusOK {
			p.fails++
		}
	}
	return p
}

// ladder tries start, start·ladderFactor, start·ladderFactor², ... while
// more reports time left, and stops at the first rate that misses the
// SLO. It returns the highest rate that met it (0 if none did) and the
// number of steps tried.
func ladder(start float64, more func() bool, try func(rate float64) bool) (highest float64, steps int) {
	for rate := start; more(); rate *= ladderFactor {
		steps++
		if !try(rate) {
			break
		}
		highest = rate
	}
	return highest, steps
}

// tallyPhase counts a phase's exchanges into the report.
func tallyPhase(r *report, p *phase) {
	for _, x := range p.xs {
		r.status(x.Status, x.Err)
	}
}

// achieved is the completed request rate of a phase.
func (p *phase) achieved() float64 {
	var last time.Duration
	for _, x := range p.xs {
		if x.Done > last {
			last = x.Done
		}
	}
	return float64(len(p.xs)) / last.Seconds()
}

// reloadMs lists the reload exchanges' durations, send to answer.
func (p *phase) reloadMs() []float64 {
	var out []float64
	for i, x := range p.xs {
		if !p.reqs[i].isQuery() {
			out = append(out, ms(x.Done-x.Sent))
		}
	}
	return out
}

// runServe runs serve-hot or serve-cold against a driftserve process.
func runServe(e env, r *report, cold bool) error {
	kbPath, err := buildServeKB(e)
	if err != nil {
		return err
	}
	ref, refSnap, err := newFleet(kbPath, serve.Options{CacheSize: -1})
	if err != nil {
		return err
	}
	u := newUniverse(refSnap, rand.New(rand.NewSource(mix(e.seed, 3))))
	rng := rand.New(rand.NewSource(mix(e.seed, 4)))
	rate := float64(hotRate)
	if cold {
		rate = coldRate
	}

	// Set up several times; the last server stays up for the run.
	var srv *server
	setup, err := timedSetups(serverStarts, func(int) error {
		if srv != nil {
			srv.stop()
		}
		var err error
		srv, err = startServer(e, kbPath)
		return err
	})
	if err != nil {
		return err
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	cs := clients(serveConns)
	defer func() {
		for _, c := range cs {
			c.CloseIdleConnections()
		}
	}()
	send := httpSender(srv.base, cs)

	// Warm-up at the fixed rate fills the result cache and lets the
	// server's heap settle. Its answers are checked but not timed.
	warm := runPhase(send, u, rng, rate, warmup, cold)
	tallyPhase(r, warm)
	if err := checkBodies(r, ref, warm.reqs, warm.xs); err != nil {
		return err
	}

	if e.trace {
		return traceServe(e, r, srv, send, ref, kbPath, u, rng, rate, cold)
	}

	// Half of the run is the fixed rate, a fifth the capacity phase, and
	// the ladder gets what is left.
	fixedDur, capDur := e.seconds/2, e.seconds/5
	v0, err := fetchVars(srv.base)
	if err != nil {
		return err
	}
	pid := srv.cmd.Process.Pid
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return err
	}
	fixed := runPhase(send, u, rng, rate, fixedDur, cold)
	cpu1, err := cpuSeconds(pid)
	if err != nil {
		return err
	}
	v1, err := fetchVars(srv.base)
	if err != nil {
		return err
	}
	tallyPhase(r, fixed)
	if err := checkBodies(r, ref, fixed.reqs, fixed.xs); err != nil {
		return err
	}

	// Capacity: both connections send back to back; on serve-cold one
	// of them reloads once per reloadPeriod.
	capReqs := u.schedule(rng, capacityRequests, 0, cold)
	every := time.Duration(0)
	if cold {
		every = reloadPeriod
	}
	capXs, capReloads := closedLoop(capReqs, serveConns, capDur, request{Endpoint: "reload"}, every, send)
	capPhase := &phase{reqs: capReqs[:len(capXs)], xs: capXs}
	tallyPhase(r, capPhase)
	tallyPhase(r, &phase{xs: capReloads})
	if err := checkBodies(r, ref, capPhase.reqs, capPhase.xs); err != nil {
		return err
	}
	capacity := capPhase.achieved()

	// The ladder starts at a quarter of the fixed rate, an eighth of
	// capacity.
	var ladderErr error
	end := time.Now().Add(e.seconds - fixedDur - capDur)
	more := func() bool { return time.Now().Before(end) }
	maxRPS, steps := ladder(rate/4, more, func(step float64) bool {
		n := ladderRequests
		if cold {
			n = max(n, int(step*reloadPeriod.Seconds()))
		}
		p := runRequests(send, u, rng, step, n, cold)
		tallyPhase(r, p)
		if err := checkBodies(r, ref, p.reqs, p.xs); err != nil && ladderErr == nil {
			ladderErr = err
		}
		t := tail(p.stats.LatencyUs)
		pass := meetsSLO(p.stats, p.fails, sloUs)
		r.lines = append(r.lines, fmt.Sprintf("ladder offered %.0f req/s: achieved %.0f, tail %.0f us (p%.2f), failed %d, backlog end %d, meets SLO %v",
			step, p.achieved(), t.Value, t.Percentile, p.fails, p.stats.BacklogEnd, pass))
		return pass
	})
	if ladderErr != nil {
		return ladderErr
	}

	rss, err := peakRSSMiB(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	d := deltaOf(v0, v1)
	lat := fixed.stats.LatencyUs
	// The bounded latency is send to answer: timed from due, the median
	// also counts how late a stalled generator sent, and moved fourfold
	// between runs with the machine's stalls.
	var serviceUs []float64
	for i, x := range fixed.xs {
		if fixed.reqs[i].isQuery() && x.Err == nil && x.Status == http.StatusOK {
			serviceUs = append(serviceUs, float64(x.Done-x.Sent)/float64(time.Microsecond))
		}
	}
	service := medianOf(serviceUs)
	// The bounded throughput is requests per CPU-second of driftserve at
	// the fixed rate. The closed-loop capacity of two connections on two
	// shared cores mostly measures how fast the host wakes the generator
	// and the server in turn: it moved 1.9x between runs of one build.
	cpuQPS := float64(len(fixed.xs)) / (cpu1 - cpu0)
	r.e2e["setup_s"] = setup
	r.e2e["peak_rss_mb"] = rss
	r.e2e["latency_ms"] = service / 1000
	r.e2e["throughput_per_s"] = cpuQPS
	r.note("setup_s", setup, "s", fmt.Sprintf("driftserve start to first 200, median of %d", serverStarts))
	r.note("query_service_p50_us", service, "us", fmt.Sprintf("send to answer, open loop at %.0f req/s over %d connections", rate, serveConns))
	r.note("query_p50_us", median(lat), "us", "from due time")
	r.noteTail("query_tail_us", tail(lat), "us")
	r.note("server_requests_per_cpu_s", cpuQPS, "1/s", fmt.Sprintf("%d requests at the fixed rate over %.2f s of driftserve CPU time", len(fixed.xs), cpu1-cpu0))
	r.note("capacity_rps", capacity, "req/s", fmt.Sprintf("closed loop over %d connections, %d requests", serveConns, len(capXs)))
	r.note("max_rps_at_slo", maxRPS, "req/s", fmt.Sprintf("highest passing step of %d, x%.2f apart; SLO tail <= %d us, no failures, no growing backlog",
		steps, ladderFactor, sloUs))
	if cold {
		r.note("reload_p50_ms", medianOf(fixed.reloadMs()), "ms", fmt.Sprintf("%d reloads", len(fixed.reloadMs())))
	}
	r.note("peak_rss_mb", rss, "MiB", "driftserve VmHWM")
	r.note("cache_hit_ratio", d.hitRatio(), "ratio", fmt.Sprintf("/debug/vars: %d hits, %d misses, %d coalesced", d.hits, d.misses, d.coalesced))
	r.note("loadgen_late_p99_us", fixed.stats.LateP99Us, "us", fmt.Sprintf("backlog max %d", fixed.stats.BacklogMax))
	return nil
}

// traceServe measures the serving layers: an HTTP phase at the fixed
// rate for the counters only driftserve sees, then an in-process replay
// of the same requests over the same file with spans around the router
// call, the JSON encoding, the direct snapshot reads and each reload.
func traceServe(e env, r *report, srv *server, send sender, ref *serve.Router, kbPath string,
	u *universe, rng *rand.Rand, rate float64, cold bool) error {
	v0, err := fetchVars(srv.base)
	if err != nil {
		return err
	}
	hp := runPhase(send, u, rng, rate, e.seconds/2, cold)
	v1, err := fetchVars(srv.base)
	if err != nil {
		return err
	}
	tallyPhase(r, hp)
	if err := checkBodies(r, ref, hp.reqs, hp.xs); err != nil {
		return err
	}

	// Replay untraced, then traced, each on a fresh fleet as the server
	// started; the traced bytes must equal the sampled HTTP bodies.
	plainQ, _, _, err := replay(nil, kbPath, hp.reqs)
	if err != nil {
		return err
	}
	rec := newRecorder()
	tracedQ, bodies, fleet, err := replay(rec, kbPath, hp.reqs)
	if err != nil {
		return err
	}
	for i, x := range hp.xs {
		if hp.reqs[i].Sample && x.Status == http.StatusOK && !sameBody(hp.reqs[i], x.Body, bodies[i]) {
			r.markFailed("traced != untraced")
			r.lines = append(r.lines, "check FAILED: traced replay answer differs from HTTP for "+hp.reqs[i].path())
		}
	}
	var fanout int64
	for _, m := range fleet.ShardMetrics() {
		for _, es := range m.Endpoints {
			fanout += es.Requests
		}
	}
	queries, sizes := 0, 0
	var clientUs []float64
	for i, x := range hp.xs {
		if hp.reqs[i].isQuery() && x.Err == nil && x.Status == http.StatusOK {
			queries++
			sizes += x.Size
			clientUs = append(clientUs, float64(x.Done-x.Sent)/float64(time.Microsecond))
		}
	}
	// Direct snapshot reads for the same queries, uncached.
	snap, _, err := kbio.FreezeFile(kbPath)
	if err != nil {
		return err
	}
	for i, q := range hp.reqs {
		if q.isQuery() {
			s := rec.begin("snapshot.lookup", 0, int64(i+1))
			q.lookup(snap)
			s.end()
		}
	}

	d := deltaOf(v0, v1)
	routerUs := medianOf(rec.durationsUs("serve.router"))
	L := r.layers
	L["serve.router_us"] = routerUs
	L["serve.fanout"] = float64(fanout) / float64(max(queries, 1))
	L["serve.cache_hit_ratio"] = d.hitRatio()
	L["serve.coalesced"] = float64(d.coalesced)
	L["serve.shed"] = float64(d.shed)
	L["snapshot.lookup_us"] = medianOf(rec.durationsUs("snapshot.lookup"))
	L["json.encode_us"] = medianOf(rec.durationsUs("json.encode"))
	L["http.resp_bytes"] = float64(sizes) / float64(max(queries, 1))
	L["http.overhead_us"] = medianOf(clientUs) - routerUs
	L["kbio.freeze_file_ms"] = medianOf(rec.durationsUs("kbio.freeze_file")) / 1000
	L["snapshot.partition_ms"] = medianOf(rec.durationsUs("snapshot.partition")) / 1000
	L["serve.swaps"] = float64(d.swaps)
	L["loadgen.late_p99_us"] = hp.stats.LateP99Us
	L["loadgen.backlog_max"] = float64(hp.stats.BacklogMax)
	L["trace.overhead_ms"] = (medianOf(tracedQ) - medianOf(plainQ)) / 1000
	st := snap.Stats()
	L["kb.pairs"] = float64(st.DistinctPairs)
	L["kb.extractions"] = float64(st.ActiveExtractions)
	zeroPipelineLayers(L)
	r.lines = append(r.lines, fmt.Sprintf("trace %d HTTP requests replayed in process", len(hp.reqs)))
	return writeTrace(e, rec)
}

// replay answers reqs in order on a fresh fleet over the KB file,
// mirroring driftserve: a query is a router call plus JSON encoding, a
// reload re-reads the file and re-partitions it once per shard. It
// returns each query's wall time in µs, the encoded answers by index,
// and the fleet.
func replay(rec *recorder, kbPath string, reqs []request) ([]float64, [][]byte, *serve.Router, error) {
	fleet, _, err := newFleet(kbPath, serve.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	ring := serve.NewRing(serveShards, 0)
	ctx := context.Background()
	bodies := make([][]byte, len(reqs))
	var wall []float64
	for i, q := range reqs {
		trace := int64(i + 1)
		if !q.isQuery() {
			root := rec.begin("serve.reload", 0, trace)
			for shard := 0; shard < serveShards; shard++ {
				s := rec.begin("kbio.freeze_file", root.id(), trace)
				next, _, err := kbio.FreezeFile(kbPath)
				s.end()
				if err != nil {
					return nil, nil, nil, err
				}
				s = rec.begin("snapshot.partition", root.id(), trace)
				part := next.Partition(serveShards, ring.Owner)[shard]
				s.end()
				fleet.Shard(shard).Swap(part)
			}
			root.end()
			continue
		}
		t0 := time.Now()
		root := rec.begin("serve.query", 0, trace)
		s := rec.begin("serve.router", root.id(), trace)
		v, err := q.call(ctx, fleet)
		s.end()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("replaying %s: %w", q.path(), err)
		}
		s = rec.begin("json.encode", root.id(), trace)
		bodies[i], err = encode(v)
		s.end()
		root.end()
		wall = append(wall, float64(time.Since(t0))/float64(time.Microsecond))
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return wall, bodies, fleet, nil
}

// zeroServingLayers reports the serving layers a pipeline workload does
// not run.
func zeroServingLayers(L map[string]float64) {
	for _, n := range []string{"serve.router_us", "serve.fanout", "serve.cache_hit_ratio", "serve.coalesced",
		"serve.shed", "snapshot.lookup_us", "json.encode_us", "http.resp_bytes", "http.overhead_us",
		"kbio.freeze_file_ms", "snapshot.partition_ms", "serve.swaps", "loadgen.late_p99_us", "loadgen.backlog_max"} {
		L[n] = 0
	}
}

// zeroPipelineLayers reports the pipeline layers a serving workload does
// not run: its KB is built before measuring starts.
func zeroPipelineLayers(L map[string]float64) {
	for _, n := range []string{"world.new_ms", "corpus.generate_ms", "extract.append_ms", "extract.replay_ms",
		"extract.replayed_sentences", "extract.batch_share", "core.analyze_ms", "core.analyze_calls",
		"core.task_rebuilds", "core.task_reuse_ratio", "rank.walk_reuse", "core.detect_ms", "clean.self_ms",
		"clean.rounds", "clean.dps", "clean.rolled_back_pairs", "eval.report_ms", "snapshot.freeze_ms",
		"runtime.alloc_mb", "runtime.gc_cycles", "runtime.gc_pause_ms", "core.round_task_reuse_ratio"} {
		L[n] = 0
	}
}
