// Command ecnsim runs a single simulation and prints FCT statistics —
// the quickest way to poke at the simulator from the shell.
//
// Usage:
//
//	ecnsim [flags]
//
// Examples:
//
//	ecnsim -scheme ecnsharp -workload websearch -load 0.7
//	ecnsim -scheme red-tail -workload datamining -load 0.5 -flows 500
//	ecnsim -topo leafspine -scheme codel -load 0.4
//	ecnsim -seeds 1,2,3 -parallel 3   # pooled statistics over three seeds
//	ecnsim -trace run.jsonl -trace-events mark,drop -trace-sample 10
//	ecnsim -topo leafspine -faults flaps.json -trace churn.jsonl -trace-events fault,reroute,flow_fail
//	ecnsim -spec sweep.json -parallel 4   # run a JSON sweep spec (same schema ecnsharpd serves)
//	ecnsim -tune tune.json -parallel 4 -tune-out result.json   # auto-tune AQM parameters
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ecnsharp/internal/cache"
	"ecnsharp/internal/experiments"
	"ecnsharp/internal/fault"
	"ecnsharp/internal/harness"
	"ecnsharp/internal/metrics"
	"ecnsharp/internal/trace"
	"ecnsharp/internal/transport"
	"ecnsharp/internal/tune"
	"ecnsharp/internal/workload"
)

func main() {
	var (
		schemeName = flag.String("scheme", "ecnsharp", "AQM: ecnsharp, red-tail, red-avg, codel or tcn")
		wlName     = flag.String("workload", "websearch", "workload: websearch or datamining")
		load       = flag.Float64("load", 0.5, "offered load in (0,1]")
		flows      = flag.Int("flows", 400, "number of flows")
		seed       = flag.Int64("seed", 1, "random seed")
		seedsFlag  = flag.String("seeds", "", "comma-separated seeds to pool statistics over (overrides -seed)")
		parallel   = flag.Int("parallel", 0, "worker pool size for per-seed runs (0 = one per CPU, 1 = serial)")
		timeout    = flag.Duration("timeout", 0, "wall-clock limit per individual run (0 = none)")
		progress   = flag.Bool("progress", false, "report each completed run on stderr")
		topo       = flag.String("topo", "star", "topology: star (8-host testbed) or leafspine (128 hosts)")
		shards     = flag.Int("shards", 0,
			"worker goroutines for the sharded conservative-time engine (0 = serial\nengine; results are identical at any positive value — see DESIGN.md)")
		rttMinUS   = flag.Float64("rtt-min", 70, "minimum base RTT in microseconds")
		variation  = flag.Float64("rtt-variation", 3, "RTT variation factor (RTTmax/RTTmin)")
		replayPath = flag.String("replay", "", "replay flows from this flow CSV instead of generating them")
		saveFlows  = flag.String("save-flows", "", "write the generated flows to this flow CSV")
		faultsPath = flag.String("faults", "",
			"inject topology faults from this JSON schedule (link flaps, switch\nfailures, degrades — see internal/fault and DESIGN.md)")
		specPath = flag.String("spec", "",
			"run a JSON sweep spec instead of the flag-built single config — the\nsame schema ecnsharpd accepts (see docs/API.md); ignores the scheme/\nworkload/topology flags")
		tunePath = flag.String("tune", "",
			"run a JSON tune spec: search AQM parameters over the spec's sweep\ngrid (same schema ecnsharpd's POST /v1/tune accepts; see docs/API.md\nand DESIGN.md); ignores the scheme/workload/topology flags")
		tuneOut = flag.String("tune-out", "",
			"with -tune: write the full TuneResult JSON document to this file")
		tuneCache = flag.String("tune-cache", "",
			"with -tune: cache per-cell results in this directory, so re-tuning\noverlapping specs never recomputes a cell")

		traceFile = flag.String("trace", "",
			"stream an event trace to this file (JSONL; a .csv suffix selects CSV);\nwith multiple seeds each job writes <name>.job<N><ext>  (see TRACING.md)")
		traceEvents = flag.String("trace-events", "all",
			"comma-separated event types to trace: enqueue,dequeue,drop,mark,sojourn,cwnd,rate,echo,flow_start,flow_finish,fault,reroute,flow_fail or all")
		traceSample = flag.Int("trace-sample", 1, "keep every n-th selected event (sampling stride)")
	)
	flag.Parse()

	if *specPath != "" {
		runSpec(*specPath, *parallel, *timeout, *progress, *traceFile)
		return
	}
	if *tunePath != "" {
		runTune(*tunePath, *tuneOut, *tuneCache, *parallel, *timeout, *progress)
		return
	}

	// The flags build a one-load sweep spec, validated and defaulted like
	// any other, so flag runs and -spec runs resolve through the same cell.
	spec := experiments.SweepSpec{
		Topo:         *topo,
		Scheme:       *schemeName,
		Workload:     *wlName,
		Loads:        []float64{*load},
		Flows:        *flows,
		Seeds:        []int64{*seed},
		RTTMinUS:     *rttMinUS,
		RTTVariation: *variation,
		Shards:       *shards,
	}
	if *seedsFlag != "" {
		spec.Seeds = nil
		for _, s := range strings.Split(*seedsFlag, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ecnsim: bad -seeds entry %q\n", s)
				os.Exit(2)
			}
			spec.Seeds = append(spec.Seeds, v)
		}
	}
	if *traceFile != "" {
		spec.Trace = &experiments.TraceSpec{Events: *traceEvents, Sample: *traceSample}
	}
	if err := spec.Normalize(); err != nil {
		fmt.Fprintln(os.Stderr, "ecnsim:", err)
		os.Exit(2)
	}
	cell := spec.Cells()[0]
	cfg, err := cell.RunConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecnsim:", err)
		os.Exit(2)
	}

	if *replayPath != "" {
		f, err := os.Open(*replayPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecnsim:", err)
			os.Exit(1)
		}
		specs, err := workload.ReadSpecs(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecnsim:", err)
			os.Exit(1)
		}
		cfg.FlowGen = nil
		cfg.Flows = specs
	} else if *saveFlows != "" {
		specs := cfg.FlowGen(rand.New(rand.NewSource(cell.Seed ^ 0x5eed)))
		f, err := os.Create(*saveFlows)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecnsim:", err)
			os.Exit(1)
		}
		if err := workload.WriteSpecs(f, specs); err != nil {
			fmt.Fprintln(os.Stderr, "ecnsim:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("flows written to %s (%d flows)\n", *saveFlows, len(specs))
		cfg.FlowGen = nil
		cfg.Flows = specs
	}

	if *faultsPath != "" {
		sched, err := fault.Load(*faultsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecnsim:", err)
			os.Exit(2)
		}
		cfg.Faults = sched
		// Bound RTO retries so a schedule that permanently severs a path
		// fails its flows (reported below) instead of hanging the run.
		cfg.Transport = transport.DefaultConfig()
		cfg.Transport.MaxConsecTimeouts = 20
	}

	// Event tracing: one writer per run. Under -seeds/-parallel every job
	// gets its own file named by its harness job id, so concurrent runs
	// never interleave writes; the files are flushed after all runs finish.
	var (
		traceMu    sync.Mutex
		traceFlush []func() error
		tracePaths []string
	)
	if *traceFile != "" {
		mask, err := trace.ParseMask(cell.TraceEvents)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecnsim:", err)
			os.Exit(2)
		}
		cfg.NewTracer = func(ctx context.Context, runSeed int64) trace.Tracer {
			path := *traceFile
			if len(spec.Seeds) > 1 {
				id, ok := harness.JobID(ctx)
				if !ok {
					id = int(runSeed)
				}
				path = jobTracePath(path, id)
			}
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ecnsim:", err)
				return nil
			}
			var (
				t     trace.Tracer
				flush func() error
			)
			if strings.HasSuffix(path, ".csv") {
				w := trace.NewCSVWriter(f)
				t, flush = w, w.Flush
			} else {
				w := trace.NewJSONLWriter(f)
				t, flush = w, w.Flush
			}
			traceMu.Lock()
			traceFlush = append(traceFlush, func() error {
				if err := flush(); err != nil {
					f.Close()
					return err
				}
				return f.Close()
			})
			tracePaths = append(tracePaths, path)
			traceMu.Unlock()
			return trace.NewFilter(t, mask, cell.TraceSample)
		}
	}

	sc := experiments.Scale{Seeds: spec.Seeds, Parallel: *parallel, Timeout: *timeout}
	if *progress {
		sc.Progress = func(p harness.Progress) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s (%v)\n",
				p.Done, p.Total, p.Label, p.Elapsed.Round(time.Millisecond))
		}
	}
	r := experiments.RunAll(sc, []experiments.RunConfig{cfg})[0]
	for _, flush := range traceFlush {
		if err := flush(); err != nil {
			fmt.Fprintln(os.Stderr, "ecnsim: trace:", err)
			os.Exit(1)
		}
	}
	s := r.Stats
	fmt.Printf("scheme    %s\n", cfg.Scheme.Label)
	fmt.Printf("workload  %s @ %.0f%% load, %d flows, RTT %v-%v\n",
		cell.Workload, cell.Load*100, r.Injected, cfg.RTT.Min, cfg.RTT.Max)
	if len(spec.Seeds) > 1 {
		fmt.Printf("pooled    %d seeds %v\n", len(spec.Seeds), spec.Seeds)
	}
	if cfg.Faults != nil {
		fmt.Printf("faults    %s\n", *faultsPath)
	}
	fmt.Printf("completed %d/%d flows", r.Completed, r.Injected)
	if r.Failed > 0 {
		fmt.Printf(" (%d failed by RTO exhaustion)", r.Failed)
	}
	fmt.Printf("\n\n")
	fmt.Printf("FCT overall avg      %10.1f us (%d flows)\n", s.OverallAvg, s.OverallCount)
	fmt.Printf("FCT short (<=100KB)  %10.1f us avg, %10.1f us p99 (%d flows)\n",
		s.ShortAvg, s.ShortP99, s.ShortCount)
	fmt.Printf("FCT large (>=10MB)   %10.1f us avg (%d flows)\n", s.LargeAvg, s.LargeCount)
	fmt.Printf("\nswitch drops %d, CE marks %d, timeouts %d, retransmits %d\n",
		r.Drops, r.Marks, r.Timeouts, r.Retransmits)
	if len(tracePaths) > 0 {
		sort.Strings(tracePaths)
		fmt.Printf("event trace: %s\n", strings.Join(tracePaths, ", "))
	}
}

// jobTracePath derives a per-job trace file name by inserting ".job<id>"
// before the extension: run.jsonl -> run.job3.jsonl.
func jobTracePath(path string, id int) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.job%d%s", strings.TrimSuffix(path, ext), id, ext)
}

// runSpec executes a JSON sweep spec through the exact spec→cell→result
// path ecnsharpd caches (experiments.Cell.Run), pools the per-seed results
// per load point, and prints one stats block per load. When the spec
// requests tracing and -trace names a file, each cell's captured JSONL
// stream is written to <name>.job<N><ext>.
func runSpec(path string, parallel int, timeout time.Duration, progress bool, traceFile string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecnsim:", err)
		os.Exit(1)
	}
	spec, err := experiments.ParseSweepSpec(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecnsim:", err)
		os.Exit(2)
	}
	cells := spec.Cells()
	jobs := make([]harness.Job, len(cells))
	for i, cell := range cells {
		cell := cell
		jobs[i] = harness.Job{
			Label: fmt.Sprintf("%s load=%.2f seed=%d", cell.Scheme, cell.Load, cell.Seed),
			Run:   func(ctx context.Context) (any, error) { return cell.Run(ctx) },
		}
	}
	opts := harness.Options{Parallel: parallel, Timeout: timeout}
	if progress {
		opts.OnDone = func(p harness.Progress) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s (%v)\n",
				p.Done, p.Total, p.Label, p.Elapsed.Round(time.Millisecond))
		}
	}
	res, _ := harness.Execute(context.Background(), jobs, opts)
	results := make([]experiments.CellResult, len(res))
	for i, r := range res {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "ecnsim: %s: %v\n", r.Label, r.Err)
			os.Exit(1)
		}
		results[i] = r.Value.(experiments.CellResult)
	}

	fmt.Printf("sweep     %s: %s/%s on %s, %d flows, RTT %vus x%v\n",
		path, spec.Scheme, spec.Workload, spec.Topo, spec.Flows, spec.RTTMinUS, spec.RTTVariation)
	fmt.Printf("grid      %d loads x %d seeds = %d cells\n\n", len(spec.Loads), len(spec.Seeds), len(cells))
	for li, load := range spec.Loads {
		pool := metrics.NewFCTCollector()
		var merged experiments.CellResult
		for si := range spec.Seeds {
			r := results[li*len(spec.Seeds)+si]
			pool.Merge(r.Collector())
			merged.Drops += r.Drops
			merged.Marks += r.Marks
			merged.Timeouts += r.Timeouts
			merged.Retransmits += r.Retransmits
			merged.Completed += r.Completed
			merged.Injected += r.Injected
		}
		s := pool.Stats()
		fmt.Printf("load %.0f%%  completed %d/%d\n", load*100, merged.Completed, merged.Injected)
		fmt.Printf("  FCT overall avg      %10.1f us (%d flows)\n", s.OverallAvg, s.OverallCount)
		fmt.Printf("  FCT short (<=100KB)  %10.1f us avg, %10.1f us p99 (%d flows)\n",
			s.ShortAvg, s.ShortP99, s.ShortCount)
		fmt.Printf("  FCT large (>=10MB)   %10.1f us avg (%d flows)\n", s.LargeAvg, s.LargeCount)
		fmt.Printf("  drops %d, marks %d, timeouts %d, retransmits %d\n\n",
			merged.Drops, merged.Marks, merged.Timeouts, merged.Retransmits)
	}

	if traceFile != "" && spec.Trace != nil {
		var paths []string
		for i, r := range results {
			if r.TraceJSONL == "" {
				continue
			}
			p := jobTracePath(traceFile, i)
			if err := os.WriteFile(p, []byte(r.TraceJSONL), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "ecnsim: trace:", err)
				os.Exit(1)
			}
			paths = append(paths, p)
		}
		sort.Strings(paths)
		fmt.Printf("event trace: %s\n", strings.Join(paths, ", "))
	}
}

// runTune executes a JSON tune spec: the searcher proposes candidate
// parameter vectors, every candidate is scored on the spec's (load, seed)
// cell grid, and the winner is printed next to the paper-default anchor.
// With -tune-cache, per-cell results are content-addressed on disk so
// re-tuning never recomputes a cell.
func runTune(path, outPath, cacheDir string, parallel int, timeout time.Duration, progress bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecnsim:", err)
		os.Exit(1)
	}
	spec, err := tune.ParseSpec(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecnsim:", err)
		os.Exit(2)
	}
	opts := tune.Options{Parallel: parallel, Timeout: timeout}
	if cacheDir != "" {
		store, err := cache.Open(cacheDir, cache.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecnsim:", err)
			os.Exit(1)
		}
		opts.Store = store
	}
	if progress {
		opts.OnProgress = func(p tune.Progress) {
			if p.Type != "eval" {
				return
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] round %d cand %d score %.1f (best %.1f, %d/%d cells cached)\n",
				p.Evals, p.Budget, p.Round, p.Index, p.Score, p.BestScore, p.CachedCells, p.Cells)
		}
	}
	res, err := tune.Run(context.Background(), spec, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecnsim:", err)
		os.Exit(1)
	}

	fmt.Printf("tune      %s: %s over %d params, budget %d, seed %d\n",
		path, spec.Searcher, spec.Space.NumParams(), spec.Budget, spec.Seed)
	fmt.Printf("grid      %s/%s on %s, %d loads x %d seeds per candidate\n",
		spec.Sweep.Scheme, spec.Sweep.Workload, spec.Sweep.Topo, len(spec.Sweep.Loads), len(spec.Sweep.Seeds))
	fmt.Printf("evals     %d candidates in %d rounds\n\n", len(res.Evals), res.Rounds)
	printVec := func(label string, e tune.Eval) {
		fmt.Printf("%s  objective(%s) = %.1f\n", label, spec.Objective, e.Score)
		for p, v := range e.Vector {
			fmt.Printf("  %-28s %10.1f\n", spec.Space.ParamName(p), v)
		}
	}
	printVec("default", res.Default)
	fmt.Println()
	printVec("tuned  ", res.Best)
	fmt.Printf("\nimprovement %.2fx (default/best)\n", res.Improvement)

	if outPath != "" {
		b, err := res.Encode()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecnsim:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(outPath, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ecnsim:", err)
			os.Exit(1)
		}
		fmt.Printf("result written to %s\n", outPath)
	}
}
