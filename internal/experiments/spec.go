package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"ecnsharp/internal/metrics"
	"ecnsharp/internal/rttvar"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/trace"
	"ecnsharp/internal/workload"
)

// ResultSchemaVersion tags every serialized CellResult and every cache key
// derived from a Cell. Bump it whenever a change makes previously computed
// results stale — a new result field, a simulator behavior change that
// alters output bytes, a spec semantic change — and old cache entries stop
// matching (they age out under the cache's size budget) instead of being
// served wrong.
const ResultSchemaVersion = "ecnsharp-result-v2"

// SweepSpec is the sweep description shared by `ecnsim -spec` and the
// ecnsharpd daemon: one JSON document naming a (scheme, workload, topology)
// and the load × seed grid to sweep. Every field has a default, so `{}` is
// a valid spec (one websearch ECN♯ star run at 50% load, seed 1).
//
// ecnsim's flags build a one-load spec of this type, so flag runs share its
// defaults and validation; docs/API.md documents the schema and the
// cache-key derivation rules built on it.
type SweepSpec struct {
	// Topo is "star" (8-host testbed shape) or "leafspine" (128 hosts).
	Topo string `json:"topo,omitempty"`
	// Scheme is the AQM under test: ecnsharp, red-tail, red-avg, codel
	// or tcn (same names as ecnsim -scheme).
	Scheme string `json:"scheme,omitempty"`
	// Workload names the flow-size distribution: websearch or datamining.
	Workload string `json:"workload,omitempty"`
	// Loads are the offered-load points in (0, 1]; one run grid column
	// per load.
	Loads []float64 `json:"loads,omitempty"`
	// Flows is the number of flows injected per run.
	Flows int `json:"flows,omitempty"`
	// Seeds are the per-config random seeds; one cell per (load, seed).
	Seeds []int64 `json:"seeds,omitempty"`
	// RTTMinUS is the minimum base RTT in microseconds.
	RTTMinUS float64 `json:"rtt_min_us,omitempty"`
	// RTTVariation is the RTTmax/RTTmin factor (>= 1).
	RTTVariation float64 `json:"rtt_variation,omitempty"`
	// Shards selects the sharded conservative-time engine worker count
	// for each run (0 = serial engine). Simulated output is byte-identical
	// at any positive value, so the worker count is a wall-clock knob.
	// Serial and sharded leaf-spine runs break same-timestamp ties
	// differently, so the cache keys the two engines apart.
	Shards int `json:"shards,omitempty"`
	// Trace, when non-nil, captures a JSONL event trace per cell.
	Trace *TraceSpec `json:"trace,omitempty"`
}

// TraceSpec configures per-cell event tracing inside a SweepSpec.
type TraceSpec struct {
	// Events is the comma-separated event-type list ecnsim's
	// -trace-events accepts ("all", "mark,drop", ...).
	Events string `json:"events,omitempty"`
	// Sample keeps every n-th selected event (default 1 = keep all).
	Sample int `json:"sample,omitempty"`
}

// ParseSweepSpec decodes and normalizes a JSON sweep spec, rejecting
// unknown fields so typos fail loudly instead of silently running the
// default sweep.
func ParseSweepSpec(data []byte) (*SweepSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s SweepSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("experiments: bad sweep spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("experiments: bad sweep spec: trailing data after JSON document")
	}
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Normalize fills defaults and validates the spec in place. It is
// idempotent; every other SweepSpec method requires a normalized spec.
func (s *SweepSpec) Normalize() error {
	if s.Topo == "" {
		s.Topo = "star"
	}
	if s.Scheme == "" {
		s.Scheme = "ecnsharp"
	}
	if s.Workload == "" {
		s.Workload = "websearch"
	}
	if len(s.Loads) == 0 {
		s.Loads = []float64{0.5}
	}
	if s.Flows == 0 {
		s.Flows = 400
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{1}
	}
	if s.RTTMinUS == 0 {
		s.RTTMinUS = 70
	}
	if s.RTTVariation == 0 {
		s.RTTVariation = 3
	}
	if s.Trace != nil {
		if s.Trace.Events == "" {
			s.Trace.Events = "all"
		}
		if s.Trace.Sample == 0 {
			s.Trace.Sample = 1
		}
	}

	switch s.Topo {
	case "star", "leafspine":
	default:
		return fmt.Errorf("experiments: unknown topology %q (want star or leafspine)", s.Topo)
	}
	for _, l := range s.Loads {
		if l <= 0 || l > 1 {
			return fmt.Errorf("experiments: load %v outside (0, 1]", l)
		}
	}
	if s.Flows < 1 {
		return fmt.Errorf("experiments: flows must be positive (got %d)", s.Flows)
	}
	if s.RTTMinUS <= 0 {
		return fmt.Errorf("experiments: rtt_min_us must be positive (got %v)", s.RTTMinUS)
	}
	if s.RTTVariation < 1 {
		return fmt.Errorf("experiments: rtt_variation must be >= 1 (got %v)", s.RTTVariation)
	}
	if s.Shards < 0 {
		return fmt.Errorf("experiments: shards must be >= 0 (got %d)", s.Shards)
	}
	// Name resolution last: the RTT model construction above requires the
	// numeric bounds already validated.
	if _, err := SchemeByName(s.Scheme, rttvar.NewVariation(sim.Micros(s.RTTMinUS), s.RTTVariation)); err != nil {
		return err
	}
	if _, err := workload.ByName(s.Workload); err != nil {
		return err
	}
	if s.Trace != nil {
		if _, err := trace.ParseMask(s.Trace.Events); err != nil {
			return fmt.Errorf("experiments: trace spec: %w", err)
		}
		if s.Trace.Sample < 1 {
			return fmt.Errorf("experiments: trace sample must be >= 1 (got %d)", s.Trace.Sample)
		}
	}
	return nil
}

// SchemeByName resolves ecnsim's -scheme names against an RTT
// distribution, the single naming authority shared by the CLI and the
// sweep spec: ecnsharp, red-tail, red-avg (thresholds derived per §3.4),
// codel and tcn (90th-percentile parameterizations).
func SchemeByName(name string, rtt rttvar.RTTDistribution) (Scheme, error) {
	tail, avg, sharp := DeriveSchemes(rtt, topology.TenGbps)
	switch name {
	case "ecnsharp":
		return sharp, nil
	case "red-tail":
		return tail, nil
	case "red-avg":
		return avg, nil
	case "codel":
		return CoDelScheme(10*sim.Microsecond, rtt.Percentile(90)), nil
	case "tcn":
		return TCNScheme(rtt.Percentile(90)), nil
	default:
		return Scheme{}, fmt.Errorf("experiments: unknown scheme %q (want ecnsharp, red-tail, red-avg, codel or tcn)", name)
	}
}

// Cell is one fully resolved (config, seed) run of a sweep: the unit of
// execution, caching and result serialization. All fields are value types
// with exact JSON encodings, so a cell canonicalizes to deterministic
// bytes and hashes to a stable cache key.
type Cell struct {
	// Topo, Scheme and Workload are the resolved spec names.
	Topo     string `json:"topo"`
	Scheme   string `json:"scheme"`
	Workload string `json:"workload"`
	// Load is this cell's offered load in (0, 1].
	Load float64 `json:"load"`
	// Flows is the number of flows injected.
	Flows int `json:"flows"`
	// Seed is this cell's random seed.
	Seed int64 `json:"seed"`
	// RTTMinUS and RTTVariation are the base-RTT model parameters.
	RTTMinUS     float64 `json:"rtt_min_us"`
	RTTVariation float64 `json:"rtt_variation"`
	// Shards is the engine worker count; the cache key keeps only
	// whether it is zero (see CanonicalJSON).
	Shards int `json:"shards,omitempty"`
	// TraceEvents/TraceSample mirror TraceSpec; empty TraceEvents means
	// the cell is untraced.
	TraceEvents string `json:"trace_events,omitempty"`
	// TraceSample is the sampling stride when TraceEvents is set.
	TraceSample int `json:"trace_sample,omitempty"`
	// Tuned, when non-nil, overrides the named scheme's derived parameters
	// with an explicit per-scope assignment — the tuner's candidate (see
	// internal/tune). It participates in the canonical encoding and hence
	// the cache key; omitempty keeps untuned cells' keys unchanged.
	Tuned *TunedParams `json:"tuned,omitempty"`
}

// Cells expands the normalized spec into its load × seed grid, loads
// outermost, in spec order.
func (s *SweepSpec) Cells() []Cell {
	cells := make([]Cell, 0, len(s.Loads)*len(s.Seeds))
	for _, load := range s.Loads {
		for _, seed := range s.Seeds {
			c := Cell{
				Topo:         s.Topo,
				Scheme:       s.Scheme,
				Workload:     s.Workload,
				Load:         load,
				Flows:        s.Flows,
				Seed:         seed,
				RTTMinUS:     s.RTTMinUS,
				RTTVariation: s.RTTVariation,
				Shards:       s.Shards,
			}
			if s.Trace != nil {
				c.TraceEvents = s.Trace.Events
				c.TraceSample = s.Trace.Sample
			}
			cells = append(cells, c)
		}
	}
	return cells
}

// CanonicalJSON returns the cell's canonical byte encoding: a single JSON
// object with fields in declaration order and Shards normalized to 0
// (serial engine) or 1 (sharded engine, any worker count). The sharded
// engine is byte-identical at every worker count — pinned by
// TestShardedByteIdenticalToSerial — so the count must not split the
// cache; but on a leaf-spine fabric it orders same-timestamp events
// differently from the serial engine, so the two engines must. Two cells
// describe the same computation iff their canonical encodings are equal.
func (c Cell) CanonicalJSON() []byte {
	c.Shards = min(c.Shards, 1)
	b, err := json.Marshal(c)
	if err != nil {
		// Cell holds only value types with exact encodings; Marshal can
		// fail only on a non-finite Tuned value, which TunedParams.Validate
		// rejects before any cell is run or keyed.
		panic(fmt.Sprintf("experiments: canonicalizing cell: %v", err))
	}
	return b
}

// Key derives the cell's content-addressed cache key: the hex SHA-256 of
// the schema version and the canonical cell encoding. Everything that can
// change the result bytes is in the hash — resolved config, seed, trace
// selection, schema/code version — and nothing else is.
func (c Cell) Key(version string) string {
	h := sha256.New()
	h.Write([]byte(version))
	h.Write([]byte{'\n'})
	h.Write(c.CanonicalJSON())
	return hex.EncodeToString(h.Sum(nil))
}

// RunConfig resolves the cell into a runnable configuration — the same
// construction ecnsim performs from its flags, factored here so the CLI,
// the daemon and tests share one spec→job path.
func (c Cell) RunConfig() (RunConfig, error) {
	rtt := rttvar.NewVariation(sim.Micros(c.RTTMinUS), c.RTTVariation)
	scheme, err := SchemeByName(c.Scheme, rtt)
	if err != nil {
		return RunConfig{}, err
	}
	cdf, err := workload.ByName(c.Workload)
	if err != nil {
		return RunConfig{}, err
	}
	cfg := RunConfig{
		Seed:   c.Seed,
		Scheme: scheme,
		RTT:    &rtt,
		Shards: c.Shards,
	}
	if c.Tuned != nil {
		at, err := c.Tuned.AQMAt(scheme)
		if err != nil {
			return RunConfig{}, err
		}
		cfg.AQMAt = at
	}
	load, flows := c.Load, c.Flows
	switch c.Topo {
	case "star":
		cfg.Topo = TopoStar
		cfg.Hosts = 8
		senders := []int{0, 1, 2, 3, 4, 5, 6}
		cfg.FlowGen = func(rng *rand.Rand) []workload.FlowSpec {
			return workload.PoissonFlows(rng, workload.PoissonConfig{
				SizeDist:    cdf,
				Load:        load,
				CapacityBps: topology.TenGbps,
				Pairs:       workload.StarPairs(senders, 7),
				FlowCount:   flows,
			})
		}
	case "leafspine":
		cfg.Topo = TopoLeafSpine
		cfg.Spines, cfg.Leaves, cfg.HostsPerLeaf = 8, 8, 16
		hosts := make([]int, 128)
		for i := range hosts {
			hosts[i] = i
		}
		cfg.FlowGen = func(rng *rand.Rand) []workload.FlowSpec {
			return workload.PoissonFlows(rng, workload.PoissonConfig{
				SizeDist:    cdf,
				Load:        load,
				CapacityBps: topology.TenGbps,
				RefLinks:    len(hosts),
				Pairs:       workload.RandomPairs(hosts),
				FlowCount:   flows,
			})
		}
	default:
		return RunConfig{}, fmt.Errorf("experiments: unknown topology %q", c.Topo)
	}
	return cfg, nil
}

// CellResult is the serializable outcome of one cell: the FCT record
// stream, the counters the CLI reports, and (when requested) the cell's
// JSONL event trace. Encode produces deterministic bytes — same cell, same
// code version, same bytes — which is what makes cached responses provably
// identical to recomputation.
type CellResult struct {
	// SchemaVersion records the ResultSchemaVersion that produced this
	// result.
	SchemaVersion string `json:"schema_version"`
	// Cell echoes the resolved cell that was run.
	Cell Cell `json:"cell"`
	// Stats is the per-class FCT breakdown of Records.
	Stats metrics.FCTStats `json:"stats"`
	// Records is the full completed-flow record stream, in completion
	// order.
	Records []metrics.FCTRecord `json:"records"`
	// Drops, Marks, Timeouts and Retransmits are the run's counters.
	Drops       int64 `json:"drops"`
	Marks       int64 `json:"marks"`
	Timeouts    int64 `json:"timeouts"`
	Retransmits int64 `json:"retransmits"`
	// Completed, Failed and Injected count flows.
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Injected  int `json:"injected"`
	// TraceJSONL is the captured event trace (empty when untraced),
	// byte-identical to what ecnsim -trace would have written.
	TraceJSONL string `json:"trace_jsonl,omitempty"`
}

// Encode serializes the result to its canonical byte form (single-line
// JSON, fields in declaration order).
func (r CellResult) Encode() ([]byte, error) {
	return json.Marshal(r)
}

// DecodeCellResult parses bytes produced by Encode.
func DecodeCellResult(data []byte) (CellResult, error) {
	var r CellResult
	if err := json.Unmarshal(data, &r); err != nil {
		return CellResult{}, fmt.Errorf("experiments: bad cell result: %w", err)
	}
	return r, nil
}

// Collector rebuilds an FCT collector over the result's records, so cached
// cells pool into multi-seed statistics exactly like fresh runs.
func (r CellResult) Collector() *metrics.FCTCollector {
	return metrics.CollectorFromRecords(r.Records)
}

// Run executes the cell and assembles its serializable result. The context
// carries cancellation and per-job deadlines as in RunContext; a canceled
// run returns the error, never a partial result.
func (c Cell) Run(ctx context.Context) (CellResult, error) {
	cfg, err := c.RunConfig()
	if err != nil {
		return CellResult{}, err
	}
	var capture *trace.Capture
	if c.TraceEvents != "" {
		mask, err := trace.ParseMask(c.TraceEvents)
		if err != nil {
			return CellResult{}, err
		}
		capture = trace.NewCapture()
		stride := c.TraceSample
		if stride < 1 {
			stride = 1
		}
		cfg.NewTracer = func(context.Context, int64) trace.Tracer {
			return trace.NewFilter(capture, mask, stride)
		}
	}
	res, err := RunContext(ctx, cfg)
	if err != nil {
		return CellResult{}, err
	}
	out := CellResult{
		SchemaVersion: ResultSchemaVersion,
		Cell:          c,
		Stats:         res.Stats,
		Records:       append([]metrics.FCTRecord(nil), res.Collector.Records()...),
		Drops:         res.Drops,
		Marks:         res.Marks,
		Timeouts:      res.Timeouts,
		Retransmits:   res.Retransmits,
		Completed:     res.Completed,
		Failed:        res.Failed,
		Injected:      res.Injected,
	}
	if capture != nil {
		b, err := capture.Bytes()
		if err != nil {
			return CellResult{}, err
		}
		out.TraceJSONL = string(b)
	}
	return out, nil
}
