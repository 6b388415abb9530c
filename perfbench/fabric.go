package main

import (
	"fmt"
	"runtime"

	"ecnsharp/internal/experiments"
	"ecnsharp/internal/metrics"
)

// fabricHosts selects the experiments.ScaleCells tier the fabric workload
// runs: 8 spines x 64 leaves x 160 hosts, one 30 KB cross-leaf flow per
// host. Its traffic is a pure function of the dimensions (no RNG), so
// the seed only sets RunConfig.Seed.
const fabricHosts = 10_240

// fabricSetupReps is how many times each set-up round resolves the tier.
const fabricSetupReps = 5

// fabricConfigs resolves the tier under ECN♯ (ScaleCellConfig's scheme)
// and under DCTCP-RED-Tail, both on the sharded engine.
func fabricConfigs(seed int64, workers int) ([2]experiments.RunConfig, error) {
	cell, err := experiments.ScaleCellByHosts(fabricHosts)
	if err != nil {
		return [2]experiments.RunConfig{}, err
	}
	sharp := experiments.ScaleCellConfig(cell, workers)
	sharp.Seed = seed
	tail := sharp
	tail.Scheme = experiments.TestbedSchemes()[testbedTail]
	return [2]experiments.RunConfig{sharp, tail}, nil
}

func runFabric(o options) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	var sp *spans
	if o.trace {
		sp = newSpans(fmt.Sprintf("fabric-%d", o.seed))
	}

	// Set-up is resolving the tier's configs; it is timed again after
	// every run, outside the timed calls.
	var cfgs [2]experiments.RunConfig
	var err error
	var setup setupClock
	setup.round(fabricSetupReps, func() { cfgs, err = fabricConfigs(o.seed, o.nproc) })
	if err != nil {
		return nil, err
	}

	// Operations alternate ECN♯ and DCTCP-RED-Tail runs of the fabric and
	// come in pairs, so both schemes weigh equally in every median. Each
	// starts from a collected heap, so one run's garbage is not the next
	// run's GC work, and its live heap is measured before it is dropped.
	timed := sp.begin("timed", 0)
	var opMS, rates, heapPerHost []float64
	var wall float64
	var firstDigest [2]string
	var firstColl [2]*metrics.FCTCollector
	for op := 0; op == 0 || op%2 == 1 || wall < o.seconds; op++ {
		k := op % 2
		runtime.GC()
		var e entryRun
		d := sp.do("experiments.Run", timed, func() { e, err = runEntry(cfgs[k]) })
		if err != nil {
			return nil, err
		}
		wall += d
		opMS = append(opMS, d*1e3)
		rates = append(rates, float64(completedBytes(e.res))/1e6/d)
		heapPerHost = append(heapPerHost, float64(liveHeap())/fabricHosts)
		setup.round(fabricSetupReps, func() { _, _ = fabricConfigs(o.seed, o.nproc) })
		out.attempted++
		switch {
		case e.res.Completed != e.res.Injected || e.res.Failed > 0:
			out.fail("fabric: run %d completed %d of %d flows (%d failed)", op, e.res.Completed, e.res.Injected, e.res.Failed)
		case op >= 2 && e.digest != firstDigest[k]:
			out.fail("fabric: run %d changed output between repeats", op)
		}
		if op < 2 {
			firstDigest[k] = e.digest
			firstColl[k] = e.res.Collector
		}
	}
	sp.end(timed)
	peakRSS := peakRSSMiB()

	// The determinism invariant: the ECN♯ cell's records are identical
	// at 1 and 2 workers (the serial engine is reported beside them).
	var er engineRuns
	if er, err = runEngines(cfgs[0], sp, 0); err != nil {
		return nil, err
	}
	checkEngines("fabric", er, firstDigest[0], out)
	info("fabric: seed %d output digest %s (ECN#) %s (DCTCP-RED-Tail)", o.seed, firstDigest[0], firstDigest[1])
	tailMS := opTail("fabric", "run", opMS)

	m := out.metrics
	ratios := sharpNorm(firstColl[:1], firstColl[1:])
	ratios.put(m, o.trace)
	if !o.trace {
		m["setup_s"] = setup.seconds()
		m["sim_mb_per_s"] = median(rates)
		m["op_p50_ms"] = median(opMS)
		m["op_tail_ms"] = tailMS
		m["peak_rss_mb"] = peakRSS
		m["bytes_per_host"] = median(heapPerHost)
		return out, nil
	}

	p := probe{cfg: cfgs[0]}
	p.cfg.Shards = 2
	if _, err := measureLayers(p, er, sp, out); err != nil {
		return nil, err
	}
	// The fabric's flows come from ScaleCellConfig, not a FlowGen.
	m["workload.gen_s"] = sp.do("workload.gen", 0, func() { _, err = fabricConfigs(o.seed, 2) })
	zeroLayers(m, "cache.open_s", "cache.hits", "cache.misses", "cache.puts", "cache.hit_ratio",
		"cache.bytes", "cache.get_ms_untraced", "cache.get_ms_traced",
		"harness.busy_frac", "harness.contention",
		"service.submit_ms", "service.stream_ms", "service.results_ms", "service.trace_ms", "service.results_bytes")
	return out, sp.write(o.spans)
}
