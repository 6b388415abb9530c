package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"ecnsharp/internal/experiments"
	"ecnsharp/internal/harness"
	"ecnsharp/internal/metrics"
	"ecnsharp/internal/workload"
)

// The testbed workload is the Fig 6 grid: an 8-host star at 10 Gbps with
// web-search traffic, base RTTs of 70 µs with 3x variation, the four
// TestbedSchemes at the fig6 loads, 400 flows per cell, serial engine.
var testbedLoads = []float64{0.3, 0.5, 0.7, 0.9}

const (
	testbedFlows  = 400
	testbedTail   = 0 // DCTCP-RED-Tail in experiments.TestbedSchemes
	testbedSharp  = 3 // ECN♯ in experiments.TestbedSchemes
	testbedProbeL = 2 // load 0.7, the representative cell's load index
)

// testbedCell is the spec cell whose resolved config carries the fig6
// traffic: Cell.RunConfig builds the same Poisson star workload the
// figure uses, and the scheme is replaced by the testbed's.
func testbedCell(load float64, seed int64) experiments.Cell {
	return experiments.Cell{
		Topo: "star", Scheme: "ecnsharp", Workload: "websearch",
		Load: load, Flows: testbedFlows, Seed: seed,
		RTTMinUS: 70, RTTVariation: 3,
	}
}

// testbedConfigs resolves the grid, loads outermost, schemes inner. Each
// cell draws its own traffic from the grid's seed, except that ECN♯ runs
// on DCTCP-RED-Tail's flows so the ratios compare the two on the same
// traffic: a grid then samples 12 independent flow sets instead of one,
// which keeps the heavy-tailed web-search sizes from setting a run's speed.
func testbedConfigs(seed int64) ([]experiments.RunConfig, error) {
	schemes := experiments.TestbedSchemes()
	cfgs := make([]experiments.RunConfig, 0, len(testbedLoads)*len(schemes))
	for li, load := range testbedLoads {
		for si, s := range schemes {
			cfg, err := testbedCell(load, seed).RunConfig()
			if err != nil {
				return nil, err
			}
			cfg.Scheme = s
			if si == testbedSharp {
				si = testbedTail
			}
			gen, salt := cfg.FlowGen, int64(li*len(schemes)+si)
			cfg.FlowGen = func(rng *rand.Rand) []workload.FlowSpec {
				return gen(rand.New(rand.NewSource(rng.Int63() + salt)))
			}
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs, nil
}

// sharpRatios are ECN♯ ÷ DCTCP-RED-Tail FCT ratios over records pooled
// per scheme, in simulated time.
type sharpRatios struct {
	shortAvg, overallAvg, shortP99 float64
}

// sharpNorm pools each scheme's records and compares the pools.
func sharpNorm(sharp, tail []*metrics.FCTCollector) sharpRatios {
	pool := func(cs []*metrics.FCTCollector) metrics.FCTStats {
		p := metrics.NewFCTCollector()
		for _, c := range cs {
			p.Merge(c)
		}
		return p.Stats()
	}
	s, t := pool(sharp), pool(tail)
	r := sharpRatios{ratio(s.ShortAvg, t.ShortAvg), ratio(s.OverallAvg, t.OverallAvg), ratio(s.ShortP99, t.ShortP99)}
	info("ECN# / DCTCP-RED-Tail: short avg %.4f, overall avg %.4f, short p99 %.4f", r.shortAvg, r.overallAvg, r.shortP99)
	return r
}

// put stores the ratios: the averages are end-to-end metrics, the p99 is
// per-layer (core), because its spread across seeds is too wide to bound.
func (r sharpRatios) put(m map[string]float64, traced bool) {
	if traced {
		m["core.sharp_short_p99_norm"] = r.shortP99
		return
	}
	m["sharp_short_avg_norm"] = r.shortAvg
	m["sharp_overall_avg_norm"] = r.overallAvg
}

// testbedMinGrids is how many grids every run completes before the clock
// decides: the output digest and the ECN♯ ratios cover exactly these, so
// they depend on the seed alone.
const testbedMinGrids = 3

// testbedSetupReps is how many times each set-up round resolves the grid.
const testbedSetupReps = 21

// gridSeed is the seed of the g-th grid of a run. Each grid draws fresh
// traffic, so a longer run averages over more flow-size samples.
func gridSeed(seed int64, g int) int64 { return seed*1000 + int64(g) }

func runTestbed(o options) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	var sp *spans
	if o.trace {
		sp = newSpans(fmt.Sprintf("testbed-%d", o.seed))
	}

	// Set-up is resolving the grid's configs; it is timed again after
	// every grid, outside the timed calls.
	var cfgs []experiments.RunConfig
	var err error
	var setup setupClock
	setup.round(testbedSetupReps, func() { cfgs, err = testbedConfigs(o.seed) })
	if err != nil {
		return nil, err
	}

	// Per-job wall times arrive through the harness progress hook; the
	// harness metrics of the traced run use them.
	var mu sync.Mutex
	var probeMS []float64
	var busy time.Duration
	probeIdx := testbedProbeL*len(experiments.TestbedSchemes()) + testbedSharp
	grid := 0
	sc := experiments.Scale{
		Parallel: o.nproc,
		Progress: func(p harness.Progress) {
			mu.Lock()
			defer mu.Unlock()
			busy += p.Elapsed
			if p.Index == probeIdx && grid == 0 {
				probeMS = append(probeMS, float64(p.Elapsed.Nanoseconds())/1e6)
			}
		},
	}

	timed := sp.begin("timed", 0)
	var digests []string
	var sharp, tail []*metrics.FCTCollector
	var wall float64
	var simBytes int64
	var gridMS, rates, heapPerHost []float64
	for ; grid < testbedMinGrids || wall < o.seconds; grid++ {
		sc.Seeds = []int64{gridSeed(o.seed, grid)}
		var res []experiments.RunResult
		runtime.GC()
		d := sp.do("experiments.RunAll", timed, func() { res = experiments.RunAll(sc, cfgs) })
		wall += d
		gridMS = append(gridMS, d*1e3)
		hosts := 0
		var gridBytes int64
		for i, r := range res {
			out.attempted++
			gridBytes += completedBytes(r)
			hosts += len(r.Net.Hosts) * len(r.PerSeed)
			if r.Completed != r.Injected || r.Failed > 0 {
				out.fail("testbed: grid %d cell %d completed %d of %d flows (%d failed)", grid, i, r.Completed, r.Injected, r.Failed)
			}
			if grid >= testbedMinGrids {
				continue
			}
			digests = append(digests, digest(r.Collector.Records()))
			switch i % len(experiments.TestbedSchemes()) {
			case testbedSharp:
				sharp = append(sharp, r.Collector)
			case testbedTail:
				tail = append(tail, r.Collector)
			}
		}
		simBytes += gridBytes
		rates = append(rates, float64(gridBytes)/1e6/d)
		// Live heap with this grid's results still referenced, per
		// simulated host they hold, as BENCH_scale measures a fabric.
		heapPerHost = append(heapPerHost, float64(liveHeap())/float64(hosts))
		runtime.KeepAlive(res)
		setup.round(testbedSetupReps, func() { _, _ = testbedConfigs(o.seed) })
	}
	sp.end(timed)
	peakRSS := peakRSSMiB()

	info("testbed: seed %d output digest %s (%d grids of %d cells; %.1f simulated MB)",
		o.seed, hashBytes([]byte(strings.Join(digests, "\n"))), grid, len(cfgs), float64(simBytes)/1e6)
	ratios := sharpNorm(sharp, tail)
	tailMS := opTail("testbed", "grid", gridMS)

	m := out.metrics
	if !o.trace {
		m["setup_s"] = setup.seconds()
		m["sim_mb_per_s"] = median(rates)
		m["op_p50_ms"] = median(gridMS)
		m["op_tail_ms"] = tailMS
		m["peak_rss_mb"] = peakRSS
		m["bytes_per_host"] = median(heapPerHost)
		ratios.put(m, false)
		return out, nil
	}

	ratios.put(m, true)
	// Traced: the per-layer numbers of the representative cell, plus the
	// harness's view of the grids the timed region ran.
	p := probe{cfg: cfgs[probeIdx], cell: testbedCell(testbedLoads[testbedProbeL], gridSeed(o.seed, 0))}
	p.cfg.Seed = gridSeed(o.seed, 0)
	er, err := runEngines(p.cfg, sp, 0)
	if err != nil {
		return nil, err
	}
	if _, err := measureLayers(p, er, sp, out); err != nil {
		return nil, err
	}
	// The serial-engine run of the probe is the same job RunAll ran, alone.
	m["harness.busy_frac"] = busy.Seconds() / (wall * float64(o.nproc))
	m["harness.contention"] = ratio(median(probeMS)/1e3, er.serial.wall)
	zeroLayers(m, "cache.open_s", "cache.hits", "cache.misses", "cache.puts", "cache.hit_ratio",
		"cache.bytes", "cache.get_ms_untraced", "cache.get_ms_traced",
		"service.submit_ms", "service.stream_ms", "service.results_ms", "service.trace_ms", "service.results_bytes")
	return out, sp.write(o.spans)
}

// completedBytes sums the sizes of a run's completed flows.
func completedBytes(r experiments.RunResult) int64 {
	var n int64
	for _, rec := range r.Collector.Records() {
		n += rec.Size
	}
	return n
}
