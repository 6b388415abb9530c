package experiments

import (
	"fmt"
	"math/rand"

	"ecnsharp/internal/asciiplot"
	"ecnsharp/internal/core"
	"ecnsharp/internal/metrics"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/transport"
	"ecnsharp/internal/workload"
)

// Incast setup (§5.4 microscopic view): 16 senders, 1 receiver, 10 Gbps.
// Background flows follow the data-mining workload; at QueryAt, N query
// flows (uniform 3–60 KB) fire simultaneously.
const (
	incastSenders = 16
	incastHosts   = incastSenders + 1
	// incastQueryAt is when the synchronized burst fires. The paper uses
	// t=4 s into a long run; we reach the same steady state sooner.
	incastQueryAt = 200 * sim.Millisecond
	// incastBackgroundLoad keeps the bottleneck busy so a standing queue
	// can form under tail-threshold marking.
	incastBackgroundLoad = 0.25
)

// SimTransport returns the transport settings of the §5.3/§5.4 ns-3
// simulations: identical to the testbed stack except for the conservative
// 2-segment initial window of the simulator's TCP, which is what lets a
// 100-flow synchronized incast fit a switch buffer at all.
func SimTransport() transport.Config {
	cfg := transport.DefaultConfig()
	cfg.InitCwndSegments = 2
	return cfg
}

// MicroscopicSchemes returns the three schemes Figure 10 traces, with the
// §5.4 parameters: CoDel interval 240 µs / target 10 µs; ECN♯ derived
// from the 80–240 µs RTT distribution.
func MicroscopicSchemes() []Scheme {
	rtt := LeafSpineRTT()
	tail, _, _ := DeriveSchemes(rtt, topology.TenGbps)
	return []Scheme{tail, CoDelScheme(10*sim.Microsecond, 240*sim.Microsecond), SimECNSharp()}
}

// incastFlowGen produces background data-mining traffic plus one query
// burst of fanout senders at incastQueryAt.
//
// The background has two parts, standing in for the steady state the
// paper reaches after 4 s of warm-up: a handful of long-lived flows (the
// established data-mining elephants, which are what builds the standing
// queue the microscopic view is about) and a Poisson stream of
// data-mining-distributed flows truncated at 10 MB (the untruncated tail
// has 1 GB flows whose arrival is a minutes-scale overload transient that
// the paper's long run averages out but a 500 ms window cannot).
func incastFlowGen(fanout, bgFlows int) func(*rand.Rand) []workload.FlowSpec {
	senders := make([]int, incastSenders)
	for i := range senders {
		senders[i] = i
	}
	bgDist := workload.DataMiningCDF.Truncated(10_000_000)
	return func(rng *rand.Rand) []workload.FlowSpec {
		var flows []workload.FlowSpec
		// Long-lived elephants from the first four senders.
		for i := 0; i < 4; i++ {
			flows = append(flows, workload.LongFlow(i, incastSenders, 0))
		}
		if bgFlows > 0 {
			flows = append(flows, workload.PoissonFlows(rng, workload.PoissonConfig{
				SizeDist:    bgDist,
				Load:        incastBackgroundLoad,
				CapacityBps: topology.TenGbps,
				Pairs:       workload.StarPairs(senders, incastSenders),
				FlowCount:   bgFlows,
			})...)
		}
		// The query burst reuses senders round-robin when fanout exceeds
		// the host count, emulating N concurrent query responders.
		qsenders := make([]int, fanout)
		for i := range qsenders {
			qsenders[i] = senders[i%len(senders)]
		}
		flows = append(flows, workload.QueryFlows(rng, workload.QueryConfig{
			Senders:  qsenders,
			Receiver: incastSenders,
			At:       incastQueryAt,
			MinBytes: 3_000,
			MaxBytes: 60_000,
		})...)
		return flows
	}
}

// incastCfg builds one incast configuration; the seed is assigned per run.
// The run is bounded by a deadline rather than full completion since
// background flows may extend far past the burst.
func incastCfg(s Scheme, fanout, bgFlows int, sample bool) RunConfig {
	rtt := LeafSpineRTT()
	cfg := RunConfig{
		Topo:      TopoStar,
		Hosts:     incastHosts,
		Scheme:    s,
		RTT:       &rtt,
		Transport: SimTransport(),
		FlowGen:   incastFlowGen(fanout, bgFlows),
		// Generous runway for query retransmissions after the burst.
		Deadline: incastQueryAt + 300*sim.Millisecond,
	}
	if sample {
		// Window straddles the burst: the pre-burst half shows the standing
		// queue (the paper's 182-vs-8 comparison), the post-burst half the
		// burst response.
		cfg.SampleQueueOf = incastSenders
		cfg.SampleStart = incastQueryAt - 5*sim.Millisecond
		cfg.SampleEnd = incastQueryAt + 5*sim.Millisecond
		cfg.SampleInterval = 10 * sim.Microsecond
	}
	return cfg
}

// runIncast executes one incast configuration on the calling goroutine.
func runIncast(s Scheme, fanout, bgFlows int, seed int64, sample bool) RunResult {
	cfg := incastCfg(s, fanout, bgFlows, sample)
	cfg.Seed = seed
	return Run(cfg)
}

// Fig10 reproduces Figure 10: a 5 ms microscopic view of the bottleneck
// queue around a 100-flow query burst for DCTCP-RED-Tail, CoDel and ECN♯.
// It reports the average/peak occupancy over the window and drop counts —
// the numbers the paper quotes off the trace (182 vs 8 packets; CoDel
// drops, ECN♯ doesn't).
func Fig10(sc Scale) (*Table, map[string][]metrics.QueueSample) {
	t := &Table{
		ID:    "fig10",
		Title: "[Simulation] queue occupancy around a 100-flow query burst (Fig 10)",
		Columns: []string{"scheme", "standing queue(pkts)", "burst avg(pkts)",
			"burst peak(pkts)", "drops", "timeouts"},
	}
	traces := make(map[string][]metrics.QueueSample)
	schemes := MicroscopicSchemes()
	cfgs := make([]RunConfig, 0, len(schemes))
	for _, s := range schemes {
		cfgs = append(cfgs, incastCfg(s, 100, sc.FlowCount, true))
	}
	one := sc
	one.Seeds = sc.Seeds[:1] // the microscopic trace is a single-seed view
	results := RunAll(one, cfgs)
	for si, s := range schemes {
		r := results[si]
		var standing, burst float64
		var nStand, nBurst int
		for _, smp := range r.QueueSamples {
			if smp.At < incastQueryAt {
				standing += float64(smp.Packets)
				nStand++
			} else {
				burst += float64(smp.Packets)
				nBurst++
			}
		}
		if nStand > 0 {
			standing /= float64(nStand)
		}
		if nBurst > 0 {
			burst /= float64(nBurst)
		}
		t.AddRow(s.Label, f1(standing), f1(burst), fmt.Sprintf("%d", r.MaxQueuePkts),
			fmt.Sprintf("%d", r.Drops), fmt.Sprintf("%d", r.Timeouts))
		traces[s.Label] = r.QueueSamples
	}
	t.AddNote("paper: ECN# keeps ~8 pkts vs Tail's ~182 (95.6%% lower); CoDel drops ~125 pkts, ECN# none")
	t.Raw = renderQueueTraces(traces)
	return t, traces
}

// renderQueueTraces draws the Figure-10 occupancy traces (time relative to
// the burst, in ms) as an ASCII chart.
func renderQueueTraces(traces map[string][]metrics.QueueSample) string {
	var series []asciiplot.Series
	for _, name := range []string{"DCTCP-RED-Tail", "CoDel", "ECN#"} {
		tr, ok := traces[name]
		if !ok {
			continue
		}
		s := asciiplot.Series{Name: name}
		for i, smp := range tr {
			if i%10 != 0 { // thin the 10 µs samples to keep cells readable
				continue
			}
			s.X = append(s.X, (smp.At-incastQueryAt).Seconds()*1000)
			s.Y = append(s.Y, float64(smp.Packets))
		}
		series = append(series, s)
	}
	return asciiplot.Render(series, asciiplot.Options{
		Width:  72,
		Height: 14,
		XLabel: "ms relative to the query burst",
		YLabel: "queue (packets)",
	})
}

// Fig11 reproduces Figure 11: query-flow completion time (average and
// 99th percentile) as the incast fanout grows from 25 to 200 concurrent
// senders, for the three microscopic schemes.
func Fig11(sc Scale) []*Table {
	schemes := MicroscopicSchemes()
	avg := &Table{
		ID:      "fig11a",
		Title:   "[Simulation] query flow FCT vs fanout — average (Fig 11a)",
		Columns: append([]string{"fanout"}, schemeLabels(schemes)...),
	}
	p99 := &Table{
		ID:      "fig11b",
		Title:   "[Simulation] query flow FCT vs fanout — 99th percentile (Fig 11b)",
		Columns: append([]string{"fanout"}, schemeLabels(schemes)...),
	}
	drops := &Table{
		ID:      "fig11c",
		Title:   "[Simulation] packet drops and timeouts vs fanout (supporting Fig 11)",
		Columns: append([]string{"fanout"}, schemeLabels(schemes)...),
	}
	// One batch over the (fanout, scheme) grid; seeds pool per cell, so the
	// reported query p99 is the percentile of all seeds' query flows.
	cfgs := make([]RunConfig, 0, len(sc.Fanouts)*len(schemes))
	for _, fanout := range sc.Fanouts {
		for _, s := range schemes {
			cfgs = append(cfgs, incastCfg(s, fanout, sc.FlowCount, false))
		}
	}
	results := RunAll(sc, cfgs)
	for fi, fanout := range sc.Fanouts {
		rowA := []string{fmt.Sprintf("%d", fanout)}
		rowP := []string{fmt.Sprintf("%d", fanout)}
		rowD := []string{fmt.Sprintf("%d", fanout)}
		for si := range schemes {
			r := results[fi*len(schemes)+si]
			rowA = append(rowA, f1(r.Stats.QueryAvg))
			rowP = append(rowP, f1(r.Stats.QueryP99))
			rowD = append(rowD, fmt.Sprintf("%d", r.Drops))
		}
		avg.AddRow(rowA...)
		p99.AddRow(rowP...)
		drops.AddRow(rowD...)
	}
	avg.AddNote("FCT in microseconds; paper plots seconds (1e-3 scale)")
	p99.AddNote("paper: CoDel degrades from ~100 senders; ECN# supports 1.75x more (to ~175)")
	return []*Table{avg, p99, drops}
}

// Fig12 reproduces Figure 12: ECN♯'s sensitivity to pst_interval and
// pst_target on both workloads at 50% load. Values are overall average
// FCT normalized to the §5.2 defaults (200 µs / 85 µs scaled per axis).
func Fig12(sc Scale) []*Table {
	rtt := LeafSpineRTT()
	load := 0.5

	mkCfg := func(wl string, p core.Params) RunConfig {
		return poissonCell("star", wl, load, sc.flowsFor(wl), rtt).withScheme(ECNSharpScheme(p))
	}

	base := core.Params{
		InsTarget:   rtt.Percentile(90),
		PstTarget:   10 * sim.Microsecond,
		PstInterval: 240 * sim.Microsecond,
	}

	intervals := []sim.Time{100 * sim.Microsecond, 150 * sim.Microsecond,
		200 * sim.Microsecond, 250 * sim.Microsecond}
	targets := []sim.Time{6 * sim.Microsecond, 10 * sim.Microsecond,
		14 * sim.Microsecond, 18 * sim.Microsecond}

	// Both sensitivity sweeps go out as one batch of (setting, workload)
	// cells; results come back in submission order.
	cfgs := make([]RunConfig, 0, 2*(len(intervals)+len(targets)))
	for _, iv := range intervals {
		p := base
		p.PstInterval = iv
		cfgs = append(cfgs, mkCfg(workload.WebSearch, p), mkCfg(workload.DataMining, p))
	}
	for _, tg := range targets {
		p := base
		p.PstTarget = tg
		cfgs = append(cfgs, mkCfg(workload.WebSearch, p), mkCfg(workload.DataMining, p))
	}
	results := RunAll(sc, cfgs)
	idx := 0
	next := func() float64 {
		v := results[idx].Stats.OverallAvg
		idx++
		return v
	}

	ta := &Table{
		ID:      "fig12a",
		Title:   "[Simulation] ECN# sensitivity to pst_interval (Fig 12a) — normalized overall FCT",
		Columns: []string{"pst_interval(us)", workload.WebSearch, workload.DataMining},
	}
	tb := &Table{
		ID:      "fig12b",
		Title:   "[Simulation] ECN# sensitivity to pst_target (Fig 12b) — normalized overall FCT",
		Columns: []string{"pst_target(us)", workload.WebSearch, workload.DataMining},
	}

	var baseWSi, baseDMi float64
	for i, iv := range intervals {
		ws := next()
		dm := next()
		if i == len(intervals)-1 { // normalize to the largest (default-ish) interval
			baseWSi, baseDMi = ws, dm
		}
		ta.AddRow(f1(iv.Micros()), f1(ws), f1(dm))
	}
	normalizeLastCol(ta, baseWSi, baseDMi)

	var baseWSt, baseDMt float64
	for i, tg := range targets {
		ws := next()
		dm := next()
		if i == 1 { // normalize to the 10 µs default
			baseWSt, baseDMt = ws, dm
		}
		tb.AddRow(f1(tg.Micros()), f1(ws), f1(dm))
	}
	normalizeLastCol(tb, baseWSt, baseDMt)

	ta.AddNote("paper: overall FCT varies <1%% (web search) / <0.2%% (data mining) across settings")
	return []*Table{ta, tb}
}

// normalizeLastCol rewrites the two workload columns in place as ratios to
// the given bases, keeping the raw microsecond values in extra columns.
func normalizeLastCol(t *Table, baseWS, baseDM float64) {
	t.Columns = append(t.Columns, "norm "+workload.WebSearch, "norm "+workload.DataMining)
	for i, row := range t.Rows {
		ws := parseF(row[1])
		dm := parseF(row[2])
		t.Rows[i] = append(row, f3(ratio(ws, baseWS)), f3(ratio(dm, baseDM)))
	}
}

func parseF(s string) float64 {
	var v float64
	fmt.Sscanf(s, "%f", &v)
	return v
}
