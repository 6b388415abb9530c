package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"ecnsharp/internal/aqm"
	"ecnsharp/internal/experiments"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/trace"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		value     float64
		pct       float64
		wellTaken bool
	}{
		{100, 90, 90, true},       // rank 89: samples 91..100 lie beyond
		{11, 1, 100.0 / 11, true}, // the smallest sample count with a tail
		{10, 10, 100, false},      // no percentile has 10 beyond: the maximum
		{1, 1, 100, false},
	} {
		v, p, ok := tailPercentile(seq(tc.n))
		if v != tc.value || p != tc.pct || ok != tc.wellTaken {
			t.Errorf("n=%d: got (%v, %v, %v), want (%v, %v, %v)", tc.n, v, p, ok, tc.value, tc.pct, tc.wellTaken)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > v {
				beyond++
			}
		}
		if ok && beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
		}
	}
	if v, _, ok := tailPercentile(nil); v != 0 || ok {
		t.Errorf("empty input: got (%v, %v)", v, ok)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nprinted by the program:\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nprinted by the program:\n%v", layers, perLayer)
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
}

func TestResultLinePrintsEveryDeclaredMetric(t *testing.T) {
	out := &outcome{metrics: map[string]float64{}, attempted: 3}
	for i, d := range endToEnd {
		out.metrics[d.name] = float64(i + 1)
	}
	line, err := resultLine(out, endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 3 || got.Failed != 0 || len(got.Metrics) != len(endToEnd) {
		t.Fatalf("result line %s", line)
	}
	for _, d := range endToEnd {
		if m, ok := got.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s printed as %+v", d.name, m)
		}
	}

	delete(out.metrics, endToEnd[0].name)
	if _, err := resultLine(out, endToEnd); err == nil {
		t.Error("a missing metric was not reported")
	}
	out.metrics[endToEnd[0].name] = 1
	out.metrics["undeclared"] = 1
	if _, err := resultLine(out, endToEnd); err == nil {
		t.Error("an undeclared metric was not reported")
	}
}

func TestWorkloadGeneratorsAreSeedDeterministic(t *testing.T) {
	flows := func(seed int64) [][]byte {
		cfgs, err := testbedConfigs(seed)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, c := range cfgs {
			b, _ := json.Marshal(c.FlowGen(rand.New(rand.NewSource(gridSeed(seed, 0)))))
			out = append(out, b)
		}
		return out
	}
	if !reflect.DeepEqual(flows(4), flows(4)) {
		t.Error("testbed traffic differs between two resolutions of one seed")
	}

	a, _ := fabricConfigs(4, 2)
	b, _ := fabricConfigs(4, 2)
	if !reflect.DeepEqual(a[0].Flows, b[0].Flows) || !reflect.DeepEqual(a[1].Flows, b[1].Flows) {
		t.Error("fabric traffic differs between two resolutions")
	}

	plan := func(seed int64, c int) []string {
		warmU, warmT := warmSpecs(seed)
		p := newClientPlan(seed, c)
		var out []string
		for i := 0; i < 60; i++ {
			class, spec := p.next(warmU, warmT)
			b, _ := json.Marshal(spec)
			out = append(out, classNames[class]+string(b))
		}
		return out
	}
	if !reflect.DeepEqual(plan(4, 1), plan(4, 1)) {
		t.Error("daemon client plan differs between two runs of one seed")
	}
	if reflect.DeepEqual(plan(4, 1), plan(5, 1)) {
		t.Error("daemon client plan ignores the seed")
	}
}

func TestDaemonMixAndPrivateSeeds(t *testing.T) {
	const seed = 3
	warmU, warmT := warmSpecs(seed)
	owner := map[int64]string{}
	claim := func(who string, s experiments.SweepSpec) {
		for _, x := range s.Seeds {
			if prev, ok := owner[x]; ok && prev != who {
				t.Fatalf("seed %d used by %s and %s", x, prev, who)
			}
			owner[x] = who
		}
	}
	for _, s := range append(append([]experiments.SweepSpec(nil), warmU...), warmT...) {
		claim("warm", s)
	}
	for c := 0; c < 4; c++ {
		p := newClientPlan(seed, c)
		var counts [numClasses]int
		for i := 0; i < 80; i++ {
			class, spec := p.next(warmU, warmT)
			counts[class]++
			if class == cold {
				claim(string(rune('A'+c)), spec)
			}
		}
		for class, n := range daemonBlock {
			if counts[class] != 2*n {
				t.Errorf("client %d: %d %s sweeps in two blocks, want %d", c, counts[class], classNames[class], 2*n)
			}
		}
	}
}

// tracedRun runs a small star cell with every AQM built through wrap and
// returns its full event trace and record digest.
func tracedRun(t *testing.T, wrap func(aqm.AQM) aqm.AQM) (string, string) {
	t.Helper()
	cell := testbedCell(0.7, 5)
	cell.Flows = 60
	cfg, err := cell.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	mk := cfg.Scheme.Factory(nil)
	cfg.AQMAt = func(_ topology.PortLoc, q int) aqm.AQM { return wrap(mk(q)) }
	capture := trace.NewCapture()
	cfg.NewTracer = func(context.Context, int64) trace.Tracer { return capture }
	res, err := experiments.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := capture.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return string(b), digest(res.Collector.Records())
}

func TestTimedAQMPassesThrough(t *testing.T) {
	var wrapped []*timedAQM
	plainTrace, plainDigest := tracedRun(t, func(a aqm.AQM) aqm.AQM { return a })
	gotTrace, gotDigest := tracedRun(t, func(a aqm.AQM) aqm.AQM {
		w := newTimedAQM(a)
		wrapped = append(wrapped, w)
		return w
	})
	if gotTrace != plainTrace || gotDigest != plainDigest {
		t.Fatalf("wrapped run differs: trace %d vs %d bytes, digest %s vs %s",
			len(gotTrace), len(plainTrace), gotDigest, plainDigest)
	}
	calls := int64(0)
	for _, w := range wrapped {
		calls += w.calls
	}
	if calls == 0 {
		t.Error("the wrapper timed no calls")
	}
}

func TestReproductionMatchesEntryPoint(t *testing.T) {
	star, err := testbedCell(0.5, 9).RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	star.Scheme = experiments.TestbedSchemes()[testbedSharp]
	fabric := experiments.ScaleCellConfig(experiments.ScaleCell{Hosts: 64, Spines: 2, Leaves: 4, HostsPerLeaf: 16}, 2)
	for name, cfg := range map[string]experiments.RunConfig{"star": star, "fabric": fabric} {
		entry, err := runEntry(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, instrument := range []bool{false, true} {
			r, err := reproduce(cfg, instrument, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if r.digest != entry.digest || r.events != entry.events {
				t.Errorf("%s (instrumented %v): reproduction %s/%d events, entry point %s/%d",
					name, instrument, r.digest, r.events, entry.digest, entry.events)
			}
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	list := withSelf([]span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps its sibling
		{ID: 4, Parent: 1, Start: 80, End: 90},
	})
	if list[0].SelfNS != 100-50-10 {
		t.Errorf("parent self time %d, want 40", list[0].SelfNS)
	}
	if list[1].SelfNS != 30 {
		t.Errorf("leaf self time %d, want its duration", list[1].SelfNS)
	}
}
