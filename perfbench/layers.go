package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	runmetrics "runtime/metrics"
	"time"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/experiments"
	"ecnsharp/internal/metrics"
	"ecnsharp/internal/packet"
	"ecnsharp/internal/rttvar"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/trace"
	"ecnsharp/internal/transport"
)

// probe is a workload's representative cell: the configuration its
// per-layer numbers are taken on, and the Cell it encodes under (the
// zero Cell when the workload's runs are not spec cells).
type probe struct {
	cfg  experiments.RunConfig
	cell experiments.Cell
}

// heapSampleEvery is the Step stride between Engine.Len samples on the
// serial engine; the sharded engine is sampled at every window barrier.
const heapSampleEvery = 64

// resolveDefaults fills the RunConfig defaults experiments.RunContext
// applies before building, so a reproduction builds the same network.
func resolveDefaults(c *experiments.RunConfig) {
	if c.RateBps == 0 {
		c.RateBps = topology.TenGbps
	}
	if c.PropDelay == 0 {
		c.PropDelay = experiments.DefaultPropDelay
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = experiments.DefaultBufferBytes
	}
	if c.Transport.MSS == 0 {
		c.Transport = transport.DefaultConfig()
	}
}

// pathRTT copies experiments' unexported intrinsic-RTT estimate (hop
// propagation both ways plus one MTU and one ACK serialization per
// forward hop), which rttvar.NewAssigner needs. The reproduction's digest
// check against the entry point guards this copy.
func pathRTT(c *experiments.RunConfig) sim.Time {
	hops := 2
	if c.Topo == experiments.TopoLeafSpine {
		hops = 4
	}
	txData := sim.Time(float64(packet.MTU) * 8 / c.RateBps * float64(sim.Second))
	txAck := sim.Time(float64(packet.HeaderSize) * 8 / c.RateBps * float64(sim.Second))
	return sim.Time(2*hops)*c.PropDelay + sim.Time(hops)*(txData+txAck)
}

// repro is one reproduction of a cell from public constructors.
type repro struct {
	digest                          string
	events                          uint64
	flows                           int
	build, gen, assign, launch, run float64 // seconds per phase
	topoBytes, launchBytes          float64 // live-heap growth per phase
	heapMean, heapMax               float64 // Engine.Len samples
	wall                            float64
	counts                          *counter
	aqm                             *aqmTimer
}

// reproduce builds and runs cfg the way experiments.RunContext does, but
// from the constructors it calls — topology.New*, FlowGen,
// rttvar.NewAssigner, transport.FlowTable.Launch, Engine.Step or
// ShardedEngine.RunPoll — so each phase can be timed on its own. With
// instrument set it also attaches a counting tracer and wraps every AQM
// in a timer; without, it measures per-phase heap growth instead. Either
// way the FCT record digest must equal the entry point's.
func reproduce(cfg experiments.RunConfig, instrument bool, sp *spans, parent int) (repro, error) {
	if cfg.AQMFactory != nil || cfg.AQMAt != nil || cfg.NewTracer != nil || cfg.Faults != nil ||
		cfg.SampleInterval > 0 || cfg.ClassOf != nil || len(cfg.Weights) > 0 ||
		cfg.SharedBufferBytes > 0 || cfg.NumQueues > 0 || cfg.Deadline > 0 {
		return repro{}, fmt.Errorf("reproduce: config uses a feature the reproduction does not mirror")
	}
	var r repro
	t0 := time.Now()
	resolveDefaults(&cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	newAQM := cfg.Scheme.Factory(rng)
	if instrument {
		r.aqm = &aqmTimer{}
		newAQM = r.aqm.wrap(newAQM)
	}
	opts := topology.Options{
		Link: topology.LinkParams{
			RateBps:     cfg.RateBps,
			PropDelay:   cfg.PropDelay,
			BufferBytes: cfg.BufferBytes,
		},
		NewAQM: newAQM,
		Shards: cfg.Shards,
	}

	var net *topology.Net
	var h0 uint64
	if !instrument {
		h0 = liveHeap()
	}
	r.build = sp.do("topology.build", parent, func() {
		if cfg.Topo == experiments.TopoLeafSpine {
			net = topology.NewLeafSpine(cfg.Spines, cfg.Leaves, cfg.HostsPerLeaf, opts)
		} else {
			net = topology.NewStar(cfg.Hosts, opts)
		}
	})
	if !instrument {
		r.topoBytes = float64(liveHeap()) - float64(h0)
	}
	if instrument {
		r.counts = &counter{}
		net.AttachTracer(r.counts)
	}

	specs := cfg.Flows
	if cfg.FlowGen != nil {
		r.gen = sp.do("workload.gen", parent, func() {
			specs = cfg.FlowGen(rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)))
		})
	}
	r.flows = len(specs)
	if cfg.RTT != nil {
		r.assign = sp.do("rttvar.assign", parent, func() {
			a := rttvar.NewAssigner(*cfg.RTT, pathRTT(&cfg), rng)
			for i, spec := range specs {
				_, extra := a.Next()
				net.Host(spec.Src).SetFlowDelay(uint64(i+1), extra)
			}
		})
	}

	// Completion accounting mirrors RunContext: one collector per domain,
	// merged in domain order after the run.
	doms := net.Domains()
	collectors := make([]*metrics.FCTCollector, doms)
	for d := range collectors {
		collectors[d] = metrics.NewFCTCollector()
	}
	table := transport.NewFlowTable(len(specs))
	table.CloseOnDone = net.Shard == nil
	table.OnDone = func(i int) {
		collectors[net.DomainOfHost(table.Src[i])].Record(table.Size[i], table.FCT[i], table.Query[i])
	}
	if !instrument {
		h0 = liveHeap()
	}
	r.launch = sp.do("transport.launch", parent, func() {
		for i, spec := range specs {
			table.Launch(cfg.Transport, net.Host(spec.Src), net.Host(spec.Dst), uint64(i+1), spec.Size, spec.Start, spec.Query)
		}
	})
	if !instrument {
		r.launchBytes = float64(liveHeap()) - float64(h0)
	}

	var samples, sum, maxLen int
	sample := func(l int) {
		samples++
		sum += l
		maxLen = max(maxLen, l)
	}
	r.run = sp.do("sim.run", parent, func() {
		if net.Shard == nil {
			eng := net.Engine
			for n := 1; eng.Step(); n++ {
				if n%heapSampleEvery == 0 {
					sample(eng.Len())
				}
			}
			r.events = eng.Processed
			return
		}
		_ = net.Shard.RunPoll(sim.MaxTime, 1, func() error { // the poll never fails
			l := 0
			for d := 0; d < net.Shard.Domains(); d++ {
				l += net.Shard.Domain(d).Len()
			}
			sample(l)
			return nil
		})
		table.CloseAll()
		r.events = net.Shard.Processed()
	})
	if samples > 0 {
		r.heapMean = float64(sum) / float64(samples)
	}
	r.heapMax = float64(maxLen)

	merged := collectors[0]
	if doms > 1 {
		merged = metrics.NewFCTCollector()
		for _, c := range collectors {
			merged.Merge(c)
		}
	}
	r.digest = digest(merged.Records())
	r.wall = time.Since(t0).Seconds()
	return r, nil
}

// counter is a trace.Tracer that counts events by type and marks by kind.
// The sharded engine delivers every domain's events on the coordinator,
// so no locking is needed.
type counter struct {
	byType [trace.NumTypes]int64
	marks  [trace.MarkProbabilistic + 1]int64
}

func (c *counter) Trace(e trace.Event) {
	if int(e.Type) < len(c.byType) {
		c.byType[e.Type]++
	}
	if e.Type == trace.ECNMark && int(e.Mark) < len(c.marks) {
		c.marks[e.Mark]++
	}
}

// aqmTimer hands out timing wrappers, one per (port, queue) AQM. Each
// wrapper is touched only by its port's domain, so per-wrapper counters
// need no locks; totals are summed after the run.
type aqmTimer struct {
	wrapped []*timedAQM
}

func (t *aqmTimer) wrap(mk func(q int) aqm.AQM) func(q int) aqm.AQM {
	if mk == nil {
		return nil
	}
	return func(q int) aqm.AQM {
		w := newTimedAQM(mk(q))
		t.wrapped = append(t.wrapped, w)
		return w
	}
}

// totals sums calls and measured nanoseconds over every wrapper.
func (t *aqmTimer) totals() (calls, ns int64) {
	for _, w := range t.wrapped {
		calls += w.calls
		ns += w.ns
	}
	return calls, ns
}

// timedAQM passes every call through to the wrapped AQM unchanged and
// times it. It forwards mark attribution when the inner AQM has one, and
// otherwise reports MarkUnknown — what the queue records for an AQM
// without attribution — so the wrapped trace equals the unwrapped one.
type timedAQM struct {
	inner  aqm.AQM
	kinder aqm.MarkKinder
	calls  int64
	ns     int64
}

var _ aqm.MarkKinder = (*timedAQM)(nil)

func newTimedAQM(inner aqm.AQM) *timedAQM {
	k, _ := inner.(aqm.MarkKinder)
	return &timedAQM{inner: inner, kinder: k}
}

func (a *timedAQM) Name() string { return a.inner.Name() }

func (a *timedAQM) OnEnqueue(now sim.Time, p *packet.Packet, b aqm.Backlog) bool {
	t0 := time.Now()
	m := a.inner.OnEnqueue(now, p, b)
	a.ns += int64(time.Since(t0))
	a.calls++
	return m
}

func (a *timedAQM) OnDequeue(now sim.Time, p *packet.Packet, sojourn sim.Time) bool {
	t0 := time.Now()
	m := a.inner.OnDequeue(now, p, sojourn)
	a.ns += int64(time.Since(t0))
	a.calls++
	return m
}

func (a *timedAQM) LastMarkKind() trace.MarkKind {
	if a.kinder == nil {
		return trace.MarkUnknown
	}
	return a.kinder.LastMarkKind()
}

// emptyTimedCallNS is the cost the wrapper measures around a call that
// does nothing, subtracted from every timed AQM call: the median of
// batch means, each call made through the aqm.AQM interface as the
// queue makes it.
func emptyTimedCallNS() float64 {
	const batches, n = 9, 1 << 16
	means := make([]float64, batches)
	for b := range means {
		w := newTimedAQM(aqm.Nop{})
		var a aqm.AQM = w
		for i := 0; i < n; i++ {
			a.OnEnqueue(0, nil, aqm.Backlog{})
		}
		means[b] = float64(w.ns) / n
	}
	return median(means)
}

// goStats is a snapshot of the runtime counters the go.* metrics diff.
type goStats struct {
	mallocs, bytes uint64
	gcs            uint32
	gcCPU, allCPU  float64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []runmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	runmetrics.Read(s)
	g := goStats{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
	if s[0].Value.Kind() == runmetrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == runmetrics.KindFloat64 {
		g.allCPU = s[1].Value.Float64()
	}
	return g
}

// entryRun is one untraced run of cfg through experiments.RunContext.
type entryRun struct {
	res    experiments.RunResult
	wall   float64
	events uint64
	digest string
}

func runEntry(cfg experiments.RunConfig) (entryRun, error) {
	t0 := time.Now()
	res, err := experiments.RunContext(context.Background(), cfg)
	e := entryRun{res: res, wall: time.Since(t0).Seconds()}
	if err != nil {
		return e, err
	}
	if res.Net.Shard != nil {
		e.events = res.Net.Shard.Processed()
	} else {
		e.events = res.Net.Engine.Processed
	}
	e.digest = digest(res.Collector.Records())
	return e, nil
}

// cellResult packages a run the way Cell.Run does, for encode/decode
// timing on workloads whose runs are not spec cells.
func cellResult(cell experiments.Cell, res experiments.RunResult, traceJSONL string) experiments.CellResult {
	return experiments.CellResult{
		SchemaVersion: experiments.ResultSchemaVersion,
		Cell:          cell,
		Stats:         res.Stats,
		Records:       res.Collector.Records(),
		Drops:         res.Drops,
		Marks:         res.Marks,
		Timeouts:      res.Timeouts,
		Retransmits:   res.Retransmits,
		Completed:     res.Completed,
		Failed:        res.Failed,
		Injected:      res.Injected,
		TraceJSONL:    traceJSONL,
	}
}

// shardRun is the representative cell on one engine configuration.
type shardRun struct {
	wall             float64
	windows          uint64
	events           uint64
	imbalance        float64
	digest, multiset string
}

func runOnEngine(cfg experiments.RunConfig, workers int) (shardRun, error) {
	cfg.Shards = workers
	e, err := runEntry(cfg)
	if err != nil {
		return shardRun{}, err
	}
	s := shardRun{wall: e.wall, events: e.events, digest: e.digest,
		multiset: multisetDigest(e.res.Collector.Records())}
	if sh := e.res.Net.Shard; sh != nil {
		s.windows = sh.Windows()
		var maxP, sum float64
		for d := 0; d < sh.Domains(); d++ {
			p := float64(sh.Domain(d).Processed)
			sum += p
			maxP = max(maxP, p)
		}
		s.imbalance = ratio(maxP, sum/float64(sh.Domains()))
	}
	return s, nil
}

// engineRuns holds the representative cell on the serial engine and on
// the sharded engine at 1 and 2 workers.
type engineRuns struct {
	serial, one, two shardRun
}

func runEngines(cfg experiments.RunConfig, sp *spans, parent int) (engineRuns, error) {
	var er engineRuns
	var err error
	id := sp.begin("sim.engines", parent)
	defer sp.end(id)
	if er.serial, err = runOnEngine(cfg, 0); err != nil {
		return er, err
	}
	if er.one, err = runOnEngine(cfg, 1); err != nil {
		return er, err
	}
	er.two, err = runOnEngine(cfg, 2)
	return er, err
}

// checkEngines holds the engine runs of one cell to the determinism
// invariant: the sharded engine at 1 and 2 workers reproduces want
// exactly, or the check fails. The serial engine is compared too, but
// only reported: on multi-domain fabrics it completes a few flows at
// slightly different times than the sharded engine (a known divergence
// of the program, not of the benchmark), so its digest is printed for
// the record rather than counted as a failed operation.
func checkEngines(label string, er engineRuns, want string, out *outcome) {
	out.attempted += 2
	for _, r := range []struct {
		workers int
		got     string
	}{{1, er.one.digest}, {2, er.two.digest}} {
		if r.got != want {
			out.fail("%s: %d-worker sharded engine digest %s != %s", label, r.workers, r.got, want)
		}
	}
	if er.serial.digest != want {
		info("%s: KNOWN DIVERGENCE: serial engine digest %s (multiset %s) != sharded %s (multiset %s)",
			label, er.serial.digest, er.serial.multiset, want, er.one.multiset)
	} else {
		info("%s: serial engine reproduces the sharded digest %s", label, want)
	}
}

// measureLayers takes every per-layer number that the representative
// cell yields — sim, topology, workload, rttvar, transport, queue,
// aqm/core, metrics, experiments, trace and the Go runtime — into m. The
// entry point runs first, untraced; two reproductions follow, one plain
// (phase times and heap growth) and one instrumented (event counts and
// AQM timing), and both must reproduce the entry point's digest, or the
// run is marked invalid. Engine comparisons come from er.
func measureLayers(p probe, er engineRuns, sp *spans, out *outcome) (entry entryRun, err error) {
	m := out.metrics
	id := sp.begin("layers", 0)
	defer sp.end(id)

	runtime.GC()
	before := readGoStats()
	sp.do("experiments.RunContext", id, func() { entry, err = runEntry(p.cfg) })
	if err != nil {
		return entry, err
	}
	after := readGoStats()
	if entry.res.Completed != entry.res.Injected {
		out.fail("layers: entry point completed %d of %d flows", entry.res.Completed, entry.res.Injected)
	}

	pid := sp.begin("reproduce.plain", id)
	plain, err := reproduce(p.cfg, false, sp, pid)
	sp.end(pid)
	if err != nil {
		return entry, err
	}
	iid := sp.begin("reproduce.instrumented", id)
	inst, err := reproduce(p.cfg, true, sp, iid)
	sp.end(iid)
	if err != nil {
		return entry, err
	}
	for _, r := range []repro{plain, inst} {
		if r.digest != entry.digest || r.events != entry.events {
			out.invalid = true
			fmt.Printf("# layers: reproduction digest %s (%d events) != entry point %s (%d events): traced run invalid\n",
				r.digest, r.events, entry.digest, entry.events)
		}
	}
	info("layers: entry-point digest %s, %d events, reproduced by both passes: %v", entry.digest, entry.events, !out.invalid)

	ev := float64(entry.events)
	m["sim.events"] = ev
	m["sim.ns_per_event"] = plain.run * 1e9 / ev
	m["sim.heap_len_mean"] = plain.heapMean
	m["sim.heap_len_max"] = plain.heapMax
	m["sim.windows"] = float64(er.two.windows)
	m["sim.events_per_window"] = ratio(float64(er.two.events), float64(er.two.windows))
	m["sim.domain_imbalance"] = er.two.imbalance
	m["sim.speedup_2w"] = ratio(er.one.wall, er.two.wall)
	m["sim.serial_run_s"] = er.serial.wall
	checkEngines("layers", er, entry.digest, out)

	hosts := float64(len(entry.res.Net.Hosts))
	m["topology.build_s"] = plain.build
	m["topology.bytes_per_host"] = plain.topoBytes / hosts
	m["workload.gen_s"] = plain.gen
	m["rttvar.assign_s"] = plain.assign
	m["transport.launch_s"] = plain.launch
	m["transport.bytes_per_flow"] = ratio(plain.launchBytes, float64(plain.flows))

	c := inst.counts.byType
	m["transport.cwnd_updates"] = float64(c[trace.CwndUpdate])
	m["transport.ecn_echoes"] = float64(c[trace.ECNEcho])
	m["transport.timeouts"] = float64(entry.res.Timeouts)
	m["transport.retransmits"] = float64(entry.res.Retransmits)
	m["queue.enqueues"] = float64(c[trace.Enqueue])
	m["queue.dequeues"] = float64(c[trace.Dequeue])
	m["queue.drops"] = float64(c[trace.Drop])

	// Net of the wrapper's own cost; near zero (either sign) when the AQM
	// costs less than the timer's noise.
	calls, ns := inst.aqm.totals()
	perCall := ratio(float64(ns), float64(calls)) - emptyTimedCallNS()
	m["aqm.calls"] = float64(calls)
	m["aqm.ns_per_call"] = perCall
	m["aqm.share"] = ratio(perCall*float64(calls)/1e9, plain.run)
	m["aqm.mark_ratio"] = ratio(float64(c[trace.ECNMark]), float64(c[trace.Enqueue]))
	m["core.marks_instantaneous"] = float64(inst.counts.marks[trace.MarkInstantaneous])
	m["core.marks_persistent"] = float64(inst.counts.marks[trace.MarkPersistent])

	recs := entry.res.Collector.Records()
	m["metrics.stats_s"] = medianSeconds(5, func() { metrics.CollectorFromRecords(recs).Stats() })
	untraced := cellResult(p.cell, entry.res, "")
	enc, err := untraced.Encode()
	if err != nil {
		return entry, err
	}
	m["experiments.encode_s"] = medianSeconds(5, func() { _, _ = untraced.Encode() })
	m["experiments.decode_s"] = medianSeconds(5, func() { _, _ = experiments.DecodeCellResult(enc) })
	m["experiments.result_bytes"] = float64(len(enc))

	// The trace layer: the same capture Cell.Run installs for a traced
	// cell ("mark,drop"), against the untraced entry point.
	capture := trace.NewCapture()
	mask, err := trace.ParseMask("mark,drop")
	if err != nil {
		return entry, err
	}
	traced := p.cfg
	traced.NewTracer = func(context.Context, int64) trace.Tracer { return trace.NewFilter(capture, mask, 1) }
	var tres entryRun
	sp.do("experiments.RunContext.traced", id, func() { tres, err = runEntry(traced) })
	if err != nil {
		return entry, err
	}
	jsonl, err := capture.Bytes()
	if err != nil {
		return entry, err
	}
	if tres.digest != entry.digest {
		out.fail("layers: traced entry point digest %s != untraced %s", tres.digest, entry.digest)
	}
	tencoded, err := cellResult(p.cell, tres.res, string(jsonl)).Encode()
	if err != nil {
		return entry, err
	}
	m["experiments.decode_traced_s"] = medianSeconds(3, func() { _, _ = experiments.DecodeCellResult(tencoded) })
	m["trace.bytes_per_cell"] = float64(len(jsonl))
	m["trace.overhead"] = ratio(tres.wall, entry.wall)

	m["go.allocs_per_event"] = float64(after.mallocs-before.mallocs) / ev
	m["go.alloc_bytes_per_event"] = float64(after.bytes-before.bytes) / ev
	m["go.gc_cycles"] = float64(after.gcs - before.gcs)
	m["go.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, after.allCPU-before.allCPU)
	m["bench.trace_overhead_s"] = inst.wall - entry.wall
	return entry, nil
}

// zeroLayers sets the per-layer metrics of layers the workload never
// reaches to 0, so every run prints the full per-layer set.
func zeroLayers(m map[string]float64, names ...string) {
	for _, n := range names {
		if _, ok := m[n]; !ok {
			m[n] = 0
		}
	}
}
