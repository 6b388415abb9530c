// Command perfbench is the repository benchmark. It runs one named
// workload — testbed, fabric or daemon — against the simulator's public
// entry points, checks the outputs, and prints one JSON result line:
//
//	go run . --workload testbed --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no instrumentation attached. With --trace 1 it carries the per-layer
// metrics instead, taken around public calls (constructors, hooks, the
// HTTP API) in a separate instrumented pass, and the spans recorded around
// those calls are written under --work-dir. run.py builds this program from
// source and is the entry point BENCHMARK.json names.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// metricDef is one printed metric: its name, unit and which direction is
// better ("lower" or "higher"). The lists below mirror BENCHMARK.json (a
// test keeps them in lockstep).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator or the daemon sees,
// printed by every workload with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_mb_per_s", "MB/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"bytes_per_host", "B", "lower"},
	{"sharp_short_avg_norm", "ratio", "lower"},
	{"sharp_overall_avg_norm", "ratio", "lower"},
}

// perLayer are the metrics of single internal/ modules, printed by every
// workload with --trace 1. A layer a workload never reaches reads 0.
var perLayer = []metricDef{
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.heap_len_mean", "count", "lower"},
	{"sim.heap_len_max", "count", "lower"},
	{"sim.windows", "count", "lower"},
	{"sim.events_per_window", "count", "higher"},
	{"sim.domain_imbalance", "ratio", "lower"},
	{"sim.speedup_2w", "ratio", "higher"},
	{"sim.serial_run_s", "s", "lower"},
	{"topology.build_s", "s", "lower"},
	{"topology.bytes_per_host", "B", "lower"},
	{"workload.gen_s", "s", "lower"},
	{"rttvar.assign_s", "s", "lower"},
	{"transport.launch_s", "s", "lower"},
	{"transport.bytes_per_flow", "B", "lower"},
	{"transport.cwnd_updates", "count", "lower"},
	{"transport.ecn_echoes", "count", "lower"},
	{"transport.timeouts", "count", "lower"},
	{"transport.retransmits", "count", "lower"},
	{"queue.enqueues", "count", "lower"},
	{"queue.dequeues", "count", "lower"},
	{"queue.drops", "count", "lower"},
	{"aqm.calls", "count", "lower"},
	{"aqm.ns_per_call", "ns", "lower"},
	{"aqm.share", "fraction", "lower"},
	{"aqm.mark_ratio", "fraction", "lower"},
	{"core.marks_instantaneous", "count", "lower"},
	{"core.marks_persistent", "count", "lower"},
	{"core.sharp_short_p99_norm", "ratio", "lower"},
	{"metrics.stats_s", "s", "lower"},
	{"experiments.encode_s", "s", "lower"},
	{"experiments.decode_s", "s", "lower"},
	{"experiments.decode_traced_s", "s", "lower"},
	{"experiments.result_bytes", "B", "lower"},
	{"trace.bytes_per_cell", "B", "lower"},
	{"trace.overhead", "ratio", "lower"},
	{"cache.open_s", "s", "lower"},
	{"cache.hits", "count", "higher"},
	{"cache.misses", "count", "lower"},
	{"cache.puts", "count", "lower"},
	{"cache.hit_ratio", "fraction", "higher"},
	{"cache.bytes", "B", "lower"},
	{"cache.get_ms_untraced", "ms", "lower"},
	{"cache.get_ms_traced", "ms", "lower"},
	{"harness.busy_frac", "fraction", "lower"},
	{"harness.contention", "ratio", "lower"},
	{"service.submit_ms", "ms", "lower"},
	{"service.stream_ms", "ms", "lower"},
	{"service.results_ms", "ms", "lower"},
	{"service.trace_ms", "ms", "lower"},
	{"service.results_bytes", "B", "lower"},
	{"go.allocs_per_event", "count", "lower"},
	{"go.alloc_bytes_per_event", "B", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_cpu_frac", "fraction", "lower"},
	{"bench.trace_overhead_s", "s", "lower"},
}

// options are the parsed command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
	workDir  string
	nproc    int
}

// outcome is what one workload run produces: its metric values, the
// operation counts behind the result's attempted/failed fields, and
// whether an instrumented pass reproduced its entry point (traced runs
// only; a mismatch invalidates the run without counting as a failed
// operation).
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	invalid   bool
}

// fail records one failed operation with its reason on stderr. Checks
// never abort the run: every failure is counted and the run continues.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

var workloads = map[string]func(options) (*outcome, error){
	"testbed": runTestbed,
	"fabric":  runFabric,
	"daemon":  runDaemon,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: testbed, fabric or daemon")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the timed region in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = instrumented run printing per-layer metrics")
	flag.StringVar(&o.workDir, "work-dir", ".bench_build", "scratch directory for fixtures and spans")
	flag.Parse()
	o.trace = trace == 1
	o.nproc = runtime.GOMAXPROCS(0)

	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload testbed|fabric|daemon, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	o.spans = filepath.Join(o.workDir, "spans", fmt.Sprintf("%s-%d.json", o.workload, o.seed))

	out, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	line, err := resultLine(out, defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	for _, d := range defs {
		info("%s = %g %s (%s is better)", d.name, out.metrics[d.name], d.unit, d.better)
	}
	fmt.Println(string(line))
	if out.failed > 0 || out.invalid {
		os.Exit(1)
	}
}

// resultLine renders the final JSON object. Every metric in defs must be
// present and finite; a missing one is a benchmark bug, not a measurement.
func resultLine(out *outcome, defs []metricDef) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.name, v)
		}
		ms[d.name] = value{v, d.unit}
	}
	for name := range out.metrics {
		if !hasMetric(defs, name) {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0 && !out.invalid, out.attempted, out.failed, ms})
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// info prints one informational line (digests, realized mixes, tail
// percentile provenance) to stdout ahead of the result line.
func info(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}
