package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"ecnsharp/internal/cache"
	"ecnsharp/internal/experiments"
	"ecnsharp/internal/metrics"
	"ecnsharp/internal/service"
)

// The daemon workload drives ecnsharpd's service over loopback HTTP: a
// closed loop of one client per CPU, each submitting a sweep, following
// its NDJSON stream to "done" and fetching the results before sending
// the next. Every sweep is an 8-cell star grid (4 loads x 2 seeds).
var daemonLoads = []float64{0.3, 0.5, 0.7, 0.9}

const (
	daemonFlows       = 40  // flows per cell
	daemonWarmPairs   = 4   // warm untraced sweeps: ECN♯/DCTCP-RED-Tail pairs
	daemonCacheMB     = 512 // ecnsharpd's default cache budget
	daemonSetupReps   = 3   // set-up repetitions per round
	daemonSetupRounds = 10  // set-up rounds, daemonSetupGap apart
	daemonSetupGap    = 200 * time.Millisecond
)

// Sweep classes. Warm sweeps were computed while the fixture was built,
// so every cell is a cache hit; traced ones carry "mark,drop" event
// traces, a few hundred KB per sweep. Cold sweeps use seeds private to
// their client, so every cell is computed and written to the cache.
const (
	warmUntraced = iota
	warmTraced
	cold
	numClasses
)

var classNames = [numClasses]string{"warm", "warm-traced", "cold"}

// daemonBlock is each client's mix per block of 40 sweeps, by class. A
// warm sweep takes a millisecond or two unless it waits behind the other
// client's cold computation for tens of ms (about a quarter of them do),
// so warm sweeps are 87.5% of the mix to keep p50 among the fast ones,
// well clear of that edge. Cold sweeps (10%) are the slowest class and
// hold the tail percentile tens of samples deep. Traced sweeps are 2.5%:
// the daemon keeps every result in memory, and their payloads are some 15
// times an untraced one (about 2 KB per cell).
var daemonBlock = [numClasses]int{35, 1, 4}

// sweepSpec builds one daemon sweep: scheme over the daemon loads at two
// consecutive seeds from first.
func sweepSpec(scheme string, first int64, traced bool) experiments.SweepSpec {
	s := experiments.SweepSpec{
		Topo: "star", Scheme: scheme, Workload: "websearch",
		Loads: daemonLoads, Flows: daemonFlows, Seeds: []int64{first, first + 1},
		RTTMinUS: 70, RTTVariation: 3,
	}
	if traced {
		// Every 32nd event keeps payloads near 30 KB per cell. The daemon
		// holds every result in memory, and a traced sweep's trace volume
		// moves by a fifth either way with the seed's traffic: at 1 in 8
		// events traced sweeps held half the daemon's heap, and
		// bytes_per_host spread 17% across seeds.
		s.Trace = &experiments.TraceSpec{Events: "mark,drop", Sample: 32}
	}
	return s
}

// pairScheme alternates ECN♯ and DCTCP-RED-Tail.
func pairScheme(i int) string {
	if i%2 == 0 {
		return "ecnsharp"
	}
	return "red-tail"
}

// warmSpecs are the prewarmed sweeps: daemonWarmPairs pairs, untraced
// and traced.
func warmSpecs(seed int64) (untraced, traced []experiments.SweepSpec) {
	base := seed * 1_000_000
	for i := 0; i < 2*daemonWarmPairs; i++ {
		untraced = append(untraced, sweepSpec(pairScheme(i), base+2*int64(i/2), false))
		traced = append(traced, sweepSpec(pairScheme(i), base+2*int64(i/2), true))
	}
	return untraced, traced
}

// coldSpec is client c's k-th cold sweep, on seeds no other client and no
// warm sweep uses. Consecutive cold sweeps pair ECN♯ and DCTCP-RED-Tail
// on the same seeds.
func coldSpec(seed int64, c, k int) experiments.SweepSpec {
	base := seed*1_000_000 + int64(c+1)*100_000
	return sweepSpec(pairScheme(k), base+2*int64(k/2), false)
}

// daemonSharpPairs is how many cold pairs per client the ECN♯ ratios pool.
const daemonSharpPairs = 6

// clientPlan returns client c's sweeps in order. Classes follow a seeded
// shuffle of daemonBlock per block of 40, and a client stops only at the
// end of a block, so every client's realized mix is exact whatever the
// timing. Each class's sweeps are taken round-robin (warm ones starting at
// a per-client offset), so the served set does not depend on the timing
// either.
type clientPlan struct {
	seed  int64
	c     int
	order []int
	rng   *rand.Rand
	n     [numClasses]int
}

func newClientPlan(seed int64, c int) *clientPlan {
	return &clientPlan{seed: seed, c: c, rng: rand.New(rand.NewSource(seed*7919 + int64(c)*104729))}
}

// blockDone reports whether the client has sent every sweep of its
// current block.
func (p *clientPlan) blockDone() bool { return len(p.order) == 0 }

func (p *clientPlan) next(warmU, warmT []experiments.SweepSpec) (int, experiments.SweepSpec) {
	if len(p.order) == 0 {
		for class, n := range daemonBlock {
			for i := 0; i < n; i++ {
				p.order = append(p.order, class)
			}
		}
		p.rng.Shuffle(len(p.order), func(i, j int) { p.order[i], p.order[j] = p.order[j], p.order[i] })
	}
	class := p.order[0]
	p.order = p.order[1:]
	k := p.n[class]
	p.n[class]++
	switch class {
	case warmUntraced:
		return class, warmU[(k+p.c)%len(warmU)]
	case warmTraced:
		return class, warmT[(k+p.c)%len(warmT)]
	}
	return class, coldSpec(p.seed, p.c, k)
}

// sweepOutcome is one sweep as the client saw it.
type sweepOutcome struct {
	class                           int
	spec                            experiments.SweepSpec
	keys                            []string
	latencyMS                       float64 // submit → results received
	submitMS, streamMS, resultsMS   float64
	traceMS                         float64
	resultsBytes                    int
	trace                           []byte // cell traceIdx's trace, traced sweeps only
	traceIdx                        int
	cellMS                          []float64 // harness elapsed per cell index
	results                         sweepResults
	completedFlows, injected, fails int
}

// sweepResults is the part of GET /v1/sweeps/{id}/results the benchmark
// reads.
type sweepResults struct {
	State     string `json:"state"`
	CacheHits int    `json:"cache_hits"`
	Cells     []struct {
		Index    int              `json:"index"`
		Counters map[string]int64 `json:"counters"`
	} `json:"cells"`
}

// client is one closed-loop HTTP client of the daemon.
type client struct {
	base string
	hc   *http.Client
	sp   *spans
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// sweep runs one sweep end to end: POST, stream to "done", results, and
// for traced sweeps one cell's trace.
func (c *client) sweep(class int, spec experiments.SweepSpec) (*sweepOutcome, error) {
	so := &sweepOutcome{class: class, spec: spec}
	parent := c.sp.begin("http.sweep."+classNames[class], 0)
	defer c.sp.end(parent)
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	var sub struct {
		ID   string   `json:"id"`
		Keys []string `json:"keys"`
	}
	so.submitMS = 1e3 * c.sp.do("service.submit", parent, func() {
		var resp *http.Response
		if resp, err = c.hc.Post(c.base+"/v1/sweeps", "application/json", bytes.NewReader(body)); err != nil {
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b, _ := io.ReadAll(resp.Body) // best effort: the status already failed the call
			err = fmt.Errorf("POST /v1/sweeps: %s: %s", resp.Status, bytes.TrimSpace(b))
			return
		}
		err = json.NewDecoder(resp.Body).Decode(&sub)
	})
	if err != nil {
		return nil, err
	}
	so.keys = sub.Keys
	so.cellMS = make([]float64, len(so.keys))

	so.streamMS = 1e3 * c.sp.do("service.stream", parent, func() { err = c.follow(sub.ID, so) })
	if err != nil {
		return nil, err
	}
	var res []byte
	so.resultsMS = 1e3 * c.sp.do("service.results", parent, func() { res, err = c.get("/v1/sweeps/" + sub.ID + "/results") })
	if err != nil {
		return nil, err
	}
	so.latencyMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	so.resultsBytes = len(res)
	if err := json.Unmarshal(res, &so.results); err != nil {
		return nil, fmt.Errorf("results of %s: %w", sub.ID, err)
	}
	events := int64(0)
	for _, cell := range so.results.Cells {
		so.completedFlows += int(cell.Counters["completed"])
		so.injected += int(cell.Counters["injected"])
		so.fails += int(cell.Counters["failed"])
		// The trace fetched is the cell with the most marks and drops:
		// the daemon answers 404 for a traced cell whose trace is empty.
		if n := cell.Counters["marks"] + cell.Counters["drops"]; n > events {
			events, so.traceIdx = n, cell.Index
		}
	}
	if spec.Trace != nil && events > 0 {
		path := fmt.Sprintf("/v1/sweeps/%s/cells/%d/trace", sub.ID, so.traceIdx)
		so.traceMS = 1e3 * c.sp.do("service.trace", parent, func() { so.trace, err = c.get(path) })
		if err != nil {
			return nil, err
		}
	}
	return so, nil
}

// follow reads the sweep's NDJSON progress stream until its "done" event,
// keeping each cell's harness-measured elapsed time and cache outcome.
func (c *client) follow(id string, so *sweepOutcome) error {
	resp, err := c.hc.Get(c.base + "/v1/sweeps/" + id + "/stream")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET stream of %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Type    string  `json:"type"`
			Index   int     `json:"index"`
			Cached  *bool   `json:"cached"`
			Elapsed float64 `json:"elapsed_ms"`
			Error   string  `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("stream of %s: %w", id, err)
		}
		switch ev.Type {
		case "cell":
			if ev.Error != "" {
				return fmt.Errorf("stream of %s: cell failed: %s", id, ev.Error)
			}
			if ev.Index < 0 || ev.Index >= len(so.keys) {
				return fmt.Errorf("stream of %s: cell index %d out of range", id, ev.Index)
			}
			so.cellMS[ev.Index] = ev.Elapsed
		case "done":
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream of %s ended before its done event", id)
}

// checkSweep holds one sweep to its class's contract.
func checkSweep(so *sweepOutcome, out *outcome) {
	cells := len(daemonLoads) * len(so.spec.Seeds)
	label := fmt.Sprintf("daemon: %s sweep (%s, seeds %v)", classNames[so.class], so.spec.Scheme, so.spec.Seeds)
	switch {
	case so.results.State != "done" || len(so.results.Cells) != cells:
		out.fail("%s: state %q with %d cells", label, so.results.State, len(so.results.Cells))
	case so.completedFlows != so.injected || so.fails > 0 || so.injected != cells*daemonFlows:
		out.fail("%s: completed %d of %d flows (%d failed)", label, so.completedFlows, so.injected, so.fails)
	case so.class == cold && so.results.CacheHits != 0:
		out.fail("%s: %d cache hits on private seeds", label, so.results.CacheHits)
	case so.class != cold && so.results.CacheHits != cells:
		out.fail("%s: %d of %d cells were cache hits", label, so.results.CacheHits, cells)
	case so.spec.Trace != nil && len(so.trace) == 0:
		out.fail("%s: empty trace", label)
	}
}

// daemonServer is one daemon instance over a cache directory.
type daemonServer struct {
	store *cache.Store
	srv   *service.Server
	http  *httptest.Server
}

// openDaemon opens the store, builds the service with ecnsharpd's
// defaults and serves it on a loopback listener; openS is cache.Open's
// share of that.
func openDaemon(dir string) (d *daemonServer, openS float64, err error) {
	t0 := time.Now()
	store, err := cache.Open(dir, cache.Options{MaxBytes: daemonCacheMB << 20})
	openS = time.Since(t0).Seconds()
	if err != nil {
		return nil, 0, err
	}
	srv, err := service.New(service.Config{Store: store})
	if err != nil {
		return nil, 0, err
	}
	return &daemonServer{store: store, srv: srv, http: httptest.NewServer(srv.Handler())}, openS, nil
}

// close stops the listener (waiting for in-flight requests) and the
// server's sweeps.
func (d *daemonServer) close() {
	d.http.Close()
	d.srv.Close()
}

func (d *daemonServer) client(sp *spans) *client {
	return &client{base: d.http.URL, hc: d.http.Client(), sp: sp}
}

func (d *daemonServer) cacheStats() (cache.Stats, error) {
	var st cache.Stats
	b, err := d.client(nil).get("/v1/cache/stats")
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, err
}

// prewarm computes every warm sweep into the cache at dir through a
// throwaway daemon, as an operator would have before the measured one
// starts.
func prewarm(dir string, specs []experiments.SweepSpec) error {
	d, _, err := openDaemon(dir)
	if err != nil {
		return err
	}
	defer d.close()
	c := d.client(nil)
	for _, s := range specs {
		so, err := c.sweep(warmUntraced, s)
		if err != nil {
			return fmt.Errorf("prewarm: %w", err)
		}
		if so.results.State != "done" {
			return fmt.Errorf("prewarm: sweep ended %q", so.results.State)
		}
	}
	return nil
}

func runDaemon(o options) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	var sp *spans
	if o.trace {
		sp = newSpans(fmt.Sprintf("daemon-%d", o.seed))
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workDir, "daemon-cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	warmU, warmT := warmSpecs(o.seed)
	t0 := time.Now()
	if err := prewarm(dir, append(append([]experiments.SweepSpec(nil), warmU...), warmT...)); err != nil {
		return nil, err
	}
	info("daemon: fixture of %d warm sweeps built in %.2f s", len(warmU)+len(warmT), time.Since(t0).Seconds())

	// Set-up: cache.Open over the prewarmed store, service.New and the
	// listener, in rounds spread over a couple of seconds (the loop leaves
	// no gaps to time it in, and it changes the store); the last instance
	// is the one measured.
	var d *daemonServer
	var setup setupClock
	var opens []float64
	for r := 0; r < daemonSetupRounds*daemonSetupReps; r++ {
		if r > 0 && r%daemonSetupReps == 0 {
			time.Sleep(daemonSetupGap)
		}
		if d != nil {
			d.close()
		}
		var openS float64
		setup.round(1, func() { d, openS, err = openDaemon(dir) })
		if err != nil {
			return nil, err
		}
		opens = append(opens, openS)
	}
	defer d.close()

	before, err := d.cacheStats()
	if err != nil {
		return nil, err
	}
	timed := sp.begin("timed", 0)
	var mu sync.Mutex
	var sweeps []*sweepOutcome
	var sweepErrs []error
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < o.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			plan := newClientPlan(o.seed, c)
			cl := d.client(sp)
			for time.Since(start).Seconds() < o.seconds || !plan.blockDone() {
				so, err := cl.sweep(plan.next(warmU, warmT))
				mu.Lock()
				if err != nil {
					sweepErrs = append(sweepErrs, err)
				} else {
					sweeps = append(sweeps, so)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	sp.end(timed)
	peakRSS := peakRSSMiB()
	for _, err := range sweepErrs {
		out.attempted++
		out.fail("daemon: sweep: %v", err)
	}
	after, err := d.cacheStats()
	if err != nil {
		return nil, err
	}

	var latMS []float64
	var counts [numClasses]int
	var classLat [numClasses][]float64
	cells := 0
	for _, so := range sweeps {
		out.attempted++
		checkSweep(so, out)
		latMS = append(latMS, so.latencyMS)
		counts[so.class]++
		classLat[so.class] = append(classLat[so.class], so.latencyMS)
		cells += len(so.keys)
	}
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	info("daemon: %d sweeps (%.2f/s): %d %s, %d %s, %d %s; traced share %.3f; realized cache hit ratio %.3f (%d hits, %d misses, %d puts)",
		len(sweeps), float64(len(sweeps))/wall, counts[warmUntraced], classNames[warmUntraced],
		counts[warmTraced], classNames[warmTraced], counts[cold], classNames[cold],
		ratio(float64(counts[warmTraced]), float64(len(sweeps))), ratio(float64(hits), float64(hits+misses)),
		hits, misses, after.Puts-before.Puts)
	for class := range classLat {
		info("daemon: %s sweeps: median %.2f ms over %d", classNames[class], median(classLat[class]), len(classLat[class]))
	}
	tailMS := opTail("daemon", "sweep", latMS)

	// Live heap with the server holding every sweep it ran, per
	// simulated host in those sweeps' cells.
	heap := float64(liveHeap())

	// Output checks, outside the timed region: payloads of a seeded sample
	// of cells are byte-equal to a fresh Cell.Run, warm sweeps stay all
	// hits, and the cold pairs give the ECN♯ ÷ DCTCP-RED-Tail ratios.
	contention, err := checkPayloads(d, sweeps, o.seed, out)
	if err != nil {
		return nil, err
	}
	dig, err := warmDigest(d, warmU, warmT, out)
	if err != nil {
		return nil, err
	}
	info("daemon: seed %d output digest %s (warm cache payloads)", o.seed, dig)
	served := map[string]bool{}
	for _, so := range sweeps {
		served[so.keys[0]] = true
	}
	ratios, err := coldSharp(d, o.seed, o.nproc, served, out)
	if err != nil {
		return nil, err
	}

	m := out.metrics
	ratios.put(m, o.trace)
	if !o.trace {
		m["setup_s"] = setup.seconds()
		simBytes, err := computedBytes(d.store, sweeps)
		if err != nil {
			return nil, err
		}
		m["sim_mb_per_s"] = float64(simBytes) / 1e6 / wall
		m["op_p50_ms"] = median(latMS)
		m["op_tail_ms"] = tailMS
		m["peak_rss_mb"] = peakRSS
		m["bytes_per_host"] = heap / float64(8*cells)
		return out, nil
	}

	var submit, stream, results, traceMS, resBytes []float64
	busy := 0.0
	for _, so := range sweeps {
		submit = append(submit, so.submitMS)
		stream = append(stream, so.streamMS)
		results = append(results, so.resultsMS)
		resBytes = append(resBytes, float64(so.resultsBytes))
		if so.spec.Trace != nil {
			traceMS = append(traceMS, so.traceMS)
		}
		for _, ms := range so.cellMS {
			busy += ms / 1e3
		}
	}
	m["cache.open_s"] = median(opens)
	m["cache.hits"] = float64(hits)
	m["cache.misses"] = float64(misses)
	m["cache.puts"] = float64(after.Puts - before.Puts)
	m["cache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["cache.bytes"] = float64(after.Bytes)
	m["cache.get_ms_untraced"], err = storeGetMS(d.store, warmU[0])
	if err != nil {
		return nil, err
	}
	if m["cache.get_ms_traced"], err = storeGetMS(d.store, warmT[0]); err != nil {
		return nil, err
	}
	m["harness.busy_frac"] = busy / (wall * float64(o.nproc))
	m["harness.contention"] = contention
	m["service.submit_ms"] = median(submit)
	m["service.stream_ms"] = median(stream)
	m["service.results_ms"] = median(results)
	m["service.trace_ms"] = median(traceMS)
	m["service.results_bytes"] = median(resBytes)

	// The representative cell: the first warm sweep's load-0.7 cell.
	spec := warmU[0]
	cell := specCells(spec)[2*len(spec.Seeds)]
	cfg, err := cell.RunConfig()
	if err != nil {
		return nil, err
	}
	p := probe{cfg: cfg, cell: cell}
	er, err := runEngines(cfg, sp, 0)
	if err != nil {
		return nil, err
	}
	if _, err := measureLayers(p, er, sp, out); err != nil {
		return nil, err
	}
	return out, sp.write(o.spans)
}

// computedBytes sums the completed flow bytes of every cell the daemon
// computed (a cache miss) during the timed sweeps, read back from the
// cached payloads. Cache hits are not simulation work and do not count.
func computedBytes(store *cache.Store, sweeps []*sweepOutcome) (int64, error) {
	var total int64
	for _, so := range sweeps {
		if so.class != cold {
			continue
		}
		for _, key := range so.keys {
			b, found, err := store.Get(key)
			if err != nil || !found {
				return 0, fmt.Errorf("computed payload %s missing (err %v)", key, err)
			}
			res, err := experiments.DecodeCellResult(b)
			if err != nil {
				return 0, err
			}
			for _, rec := range res.Records {
				total += rec.Size
			}
		}
	}
	return total, nil
}

// specCells resolves a sweep spec into its cells exactly as the daemon
// does: parse (which normalizes) and expand.
func specCells(spec experiments.SweepSpec) []experiments.Cell {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err)
	}
	s, err := experiments.ParseSweepSpec(b)
	if err != nil {
		panic(fmt.Sprintf("daemon sweep spec is invalid: %v", err))
	}
	return s.Cells()
}

// storeGetMS is the median of direct Store.Get calls on cell 0 of spec.
func storeGetMS(store *cache.Store, spec experiments.SweepSpec) (float64, error) {
	key := specCells(spec)[0].Key(experiments.ResultSchemaVersion)
	var err error
	var ok bool
	ms := 1e3 * medianSeconds(5, func() {
		_, ok, err = store.Get(key)
	})
	if err == nil && !ok {
		err = fmt.Errorf("cache.get: warm key %s missing", key)
	}
	return ms, err
}

// checkPayloads re-runs a seeded sample of served cells — two warm, one
// warm traced and two cold — with Cell.Run and requires the daemon's
// cached payload bytes (and the traced cell's served trace) to equal the
// fresh ones. It returns the median ratio of a sampled cold cell's
// elapsed time under load to the same cell run alone.
func checkPayloads(d *daemonServer, sweeps []*sweepOutcome, seed int64, out *outcome) (float64, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5a3))
	var byClass [numClasses][]*sweepOutcome
	for _, so := range sweeps {
		byClass[so.class] = append(byClass[so.class], so)
	}
	var loaded, alone []float64
	for class, n := range [numClasses]int{2, 1, 2} {
		for i := 0; i < n && len(byClass[class]) > 0; i++ {
			so := byClass[class][rng.Intn(len(byClass[class]))]
			idx := so.traceIdx
			if class != warmTraced {
				idx = rng.Intn(len(so.keys))
			}
			cell := specCells(so.spec)[idx]
			key := cell.Key(experiments.ResultSchemaVersion)
			out.attempted++
			if key != so.keys[idx] {
				out.fail("daemon: cell %d key %s != served key %s", idx, key, so.keys[idx])
				continue
			}
			t0 := time.Now()
			fresh, err := cell.Run(context.Background())
			if err != nil {
				return 0, err
			}
			wall := time.Since(t0).Seconds()
			want, err := fresh.Encode()
			if err != nil {
				return 0, err
			}
			got, ok, err := d.store.Get(key)
			switch {
			case err != nil || !ok:
				out.fail("daemon: cached payload of %s unreadable (present %v, err %v)", key, ok, err)
			case !bytes.Equal(got, want):
				out.fail("daemon: cached payload of %s differs from a fresh Cell.Run", key)
			case class == warmTraced && !bytes.Equal(so.trace, []byte(fresh.TraceJSONL)):
				out.fail("daemon: served trace of %s differs from a fresh Cell.Run", key)
			}
			if class == cold {
				loaded = append(loaded, so.cellMS[idx]/1e3)
				alone = append(alone, wall)
			}
		}
	}
	return ratio(median(loaded), median(alone)), nil
}

// warmDigest fetches every warm untraced sweep's results from the daemon
// (all cache hits, each checked like a timed sweep) and returns a digest
// of every warm cell's cached payload.
func warmDigest(d *daemonServer, warmU, warmT []experiments.SweepSpec, out *outcome) (string, error) {
	c := d.client(nil)
	for _, spec := range warmU {
		so, err := c.sweep(warmUntraced, spec)
		if err != nil {
			return "", err
		}
		out.attempted++
		checkSweep(so, out)
	}
	var payloads strings.Builder
	for _, spec := range append(append([]experiments.SweepSpec(nil), warmU...), warmT...) {
		for _, cell := range specCells(spec) {
			b, ok, err := d.store.Get(cell.Key(experiments.ResultSchemaVersion))
			if err != nil || !ok {
				return "", fmt.Errorf("warm payload missing (err %v)", err)
			}
			payloads.WriteString(hashBytes(b))
		}
	}
	return hashBytes([]byte(payloads.String())), nil
}

// coldSharp pools the records of each client's first daemonSharpPairs
// cold ECN♯/DCTCP-RED-Tail pairs per scheme, as the daemon cached them,
// and returns their ECN♯ ÷ DCTCP-RED-Tail ratios. Pairs the timed loop did not reach are submitted
// now, untimed, so the ratios depend on the seed alone.
func coldSharp(d *daemonServer, seed int64, clients int, served map[string]bool, out *outcome) (sharpRatios, error) {
	c := d.client(nil)
	var pools [2][]*metrics.FCTCollector
	for cl := 0; cl < clients; cl++ {
		for k := 0; k < 2*daemonSharpPairs; k++ {
			spec := coldSpec(seed, cl, k)
			cells := specCells(spec)
			if !served[cells[0].Key(experiments.ResultSchemaVersion)] {
				so, err := c.sweep(cold, spec)
				if err != nil {
					return sharpRatios{}, err
				}
				out.attempted++
				checkSweep(so, out)
			}
			for _, cell := range cells {
				b, ok, err := d.store.Get(cell.Key(experiments.ResultSchemaVersion))
				if err != nil || !ok {
					return sharpRatios{}, fmt.Errorf("cold payload missing (err %v)", err)
				}
				res, err := experiments.DecodeCellResult(b)
				if err != nil {
					return sharpRatios{}, err
				}
				pools[k%2] = append(pools[k%2], res.Collector())
			}
		}
	}
	return sharpNorm(pools[0], pools[1]), nil
}
