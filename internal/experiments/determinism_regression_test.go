package experiments

// Regression tests for the determinism invariants that the ecnlint suite
// (internal/analysis) enforces statically: rendered outputs must be
// byte-identical across repeated runs and across worker-pool widths. A
// failure here usually means map-iteration order or a wall-clock/global-RNG
// dependency leaked into an output path — re-run
// `go run ./cmd/ecnlint ./...` to find the culprit.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"ecnsharp/internal/metrics"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/trace"
)

// renderSummary flattens everything a SummaryTracer exposes — port order,
// counters, mark-kind breakdown, peaks and the occupancy plot — into one
// string, so any nondeterminism in the aggregation surfaces as a byte
// difference.
func renderSummary(s *metrics.SummaryTracer) string {
	var b strings.Builder
	for _, id := range s.Ports() {
		p := s.Port(id)
		fmt.Fprintf(&b, "port %d: enq=%d deq=%d drop=%d inst=%d pst=%d prob=%d other=%d maxPkts=%d maxBytes=%d samples=%d\n",
			p.Port, p.Enqueued, p.Dequeued, p.Drops,
			p.InstMarks, p.PstMarks, p.ProbMarks, p.OtherMarks,
			p.MaxPackets, p.MaxBytes, len(p.Samples))
		b.WriteString(s.OccupancyPlot(id, 64, 8))
	}
	return b.String()
}

// TestSummaryRenderByteIdentical: two runs of the same (config, seed)
// produce byte-identical summary renderings, including the ASCII
// occupancy plots. Guards the output path of internal/metrics/summary.go
// against map-order leaks (Ports() must stay collect-then-sort).
func TestSummaryRenderByteIdentical(t *testing.T) {
	sc := SmokeScale()
	sc.FlowCount = 60

	render := func() string {
		s := metrics.NewSummaryTracer(100 * sim.Microsecond)
		cfg := testbedCell(0.5, sc.FlowCount).withScheme(TestbedSchemes()[3])
		cfg.Seed = 1
		cfg.NewTracer = func(context.Context, int64) trace.Tracer { return s }
		Run(cfg)
		return renderSummary(s)
	}

	first := render()
	if first == "" {
		t.Fatal("summary rendering is empty; tracer saw no queue events")
	}
	second := render()
	if first != second {
		t.Errorf("summary renderings differ between identical runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestFig6ParallelStress: a small Figure-6 sweep rendered at Parallel=8
// is byte-identical to the serial rendering. Under `go test -race` this
// doubles as a data-race stress of the harness fan-out, and the byte
// comparison catches any submission-order or shared-state leak in the
// merge path.
func TestFig6ParallelStress(t *testing.T) {
	sc := SmokeScale()
	sc.FlowCount = 40
	sc.Seeds = []int64{1, 2} // 4 schemes x 2 seeds = 8 jobs, one per worker

	renderAll := func(parallel int) string {
		s := sc
		s.Parallel = parallel
		var b strings.Builder
		for _, tb := range Fig6(s) {
			b.WriteString(tb.String())
			b.WriteByte('\n')
		}
		return b.String()
	}

	serial := renderAll(1)
	wide := renderAll(8)
	if serial != wide {
		t.Errorf("fig6 rendering differs between Parallel=1 and Parallel=8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, wide)
	}
}
