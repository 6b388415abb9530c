package experiments

import (
	"fmt"

	"ecnsharp/internal/core"
	"ecnsharp/internal/metrics"
	"ecnsharp/internal/rttvar"
	"ecnsharp/internal/sim"
	"ecnsharp/internal/topology"
	"ecnsharp/internal/workload"
)

// fctMetric selects one of the four FCT breakdowns the figures plot.
type fctMetric struct {
	name string
	get  func(metrics.FCTStats) float64
}

var fctMetrics = []fctMetric{
	{"overall:avg", func(s metrics.FCTStats) float64 { return s.OverallAvg }},
	{"(0,100KB]:avg", func(s metrics.FCTStats) float64 { return s.ShortAvg }},
	{"(0,100KB]:p99", func(s metrics.FCTStats) float64 { return s.ShortP99 }},
	{"[10MB,inf):avg", func(s metrics.FCTStats) float64 { return s.LargeAvg }},
}

// fctSweep builds every (load, scheme) cell configuration, fans the whole
// grid (cells × seeds) out over the worker pool in one batch, and emits one
// sub-table per FCT metric, each normalized to the first scheme
// (DCTCP-RED-Tail).
func fctSweep(id, title string, schemes []Scheme, loads []float64, sc Scale,
	mkCfg func(s Scheme, load float64) RunConfig) []*Table {
	cfgs := make([]RunConfig, 0, len(loads)*len(schemes))
	for _, load := range loads {
		for _, s := range schemes {
			cfgs = append(cfgs, mkCfg(s, load))
		}
	}
	pooled := RunAll(sc, cfgs)
	cell := func(li, si int) metrics.FCTStats { return pooled[li*len(schemes)+si].Stats }

	tables := make([]*Table, 0, len(fctMetrics))
	for mi, m := range fctMetrics {
		t := &Table{
			ID:      fmt.Sprintf("%s%c", id, 'a'+mi),
			Title:   fmt.Sprintf("%s — %s (normalized to %s)", title, m.name, schemes[0].Label),
			Columns: append([]string{"load(%)"}, schemeLabels(schemes)...),
		}
		for li, load := range loads {
			base := m.get(cell(li, 0))
			row := []string{f1(load * 100)}
			for si := range schemes {
				row = append(row, f3(ratio(m.get(cell(li, si)), base)))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables
}

func schemeLabels(schemes []Scheme) []string {
	out := make([]string, len(schemes))
	for i, s := range schemes {
		out[i] = s.Label
	}
	return out
}

// Fig6 reproduces Figure 6: testbed FCT statistics with the web-search
// workload across loads, four schemes, normalized to DCTCP-RED-Tail.
func Fig6(sc Scale) []*Table {
	rtt := rttvar.NewVariation(TestbedRTTMin, 3)
	return fctSweep("fig6", "[Testbed] web search FCT", TestbedSchemes(), sc.Loads, sc,
		func(s Scheme, load float64) RunConfig {
			return poissonCell("star", workload.WebSearch, load, sc.FlowCount, rtt).withScheme(s)
		})
}

// Fig7 reproduces Figure 7: the same sweep with the data-mining workload.
func Fig7(sc Scale) []*Table {
	rtt := rttvar.NewVariation(TestbedRTTMin, 3)
	return fctSweep("fig7", "[Testbed] data mining FCT", TestbedSchemes(), sc.Loads, sc,
		func(s Scheme, load float64) RunConfig {
			return poissonCell("star", workload.DataMining, load, sc.flowsFor(workload.DataMining), rtt).withScheme(s)
		})
}

// Fig8 reproduces Figure 8: ECN♯ vs DCTCP-RED-Tail under 3×/4×/5× RTT
// variations with the web-search workload. For each variation the schemes
// are re-derived from the wider RTT distribution (§3.4), and the table
// reports NFCT = ECN♯/Tail for overall-average and short-flow p99.
func Fig8(sc Scale) []*Table {
	variations := []float64{3, 4, 5}

	overall := &Table{
		ID:      "fig8a",
		Title:   "[Testbed] web search, larger RTT variations — overall:avg NFCT (ECN#/Tail)",
		Columns: append([]string{"load(%)"}, variationCols(variations)...),
	}
	shortP99 := &Table{
		ID:      "fig8b",
		Title:   "[Testbed] web search, larger RTT variations — (0,100KB]:p99 NFCT (ECN#/Tail)",
		Columns: append([]string{"load(%)"}, variationCols(variations)...),
	}

	// One batch across the whole (variation, load, {tail, sharp}) grid.
	cfgs := make([]RunConfig, 0, 2*len(variations)*len(sc.Loads))
	for _, v := range variations {
		rtt := rttvar.NewVariation(TestbedRTTMin, v)
		tail, _, sharp := DeriveSchemes(rtt, topology.TenGbps)
		for _, load := range sc.Loads {
			cell := poissonCell("star", workload.WebSearch, load, sc.FlowCount, rtt)
			cfgs = append(cfgs, cell.withScheme(tail), cell.withScheme(sharp))
		}
	}
	results := RunAll(sc, cfgs)

	type key struct {
		li, vi int
	}
	ovr := map[key]float64{}
	shp := map[key]float64{}
	idx := 0
	for vi := range variations {
		for li := range sc.Loads {
			rt, rs := results[idx], results[idx+1]
			idx += 2
			ovr[key{li, vi}] = ratio(rs.Stats.OverallAvg, rt.Stats.OverallAvg)
			shp[key{li, vi}] = ratio(rs.Stats.ShortP99, rt.Stats.ShortP99)
		}
	}
	for li, load := range sc.Loads {
		rowO := []string{f1(load * 100)}
		rowS := []string{f1(load * 100)}
		for vi := range variations {
			rowO = append(rowO, f3(ovr[key{li, vi}]))
			rowS = append(rowS, f3(shp[key{li, vi}]))
		}
		overall.AddRow(rowO...)
		shortP99.AddRow(rowS...)
	}
	overall.AddNote("paper: overall FCT within ~7.6%% of Tail at all variations")
	shortP99.AddNote("paper: short p99 improves 37%% (3x) -> 71%% (4x) -> 73%% (5x)")
	return []*Table{overall, shortP99}
}

func variationCols(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf("NFCT %gx", v)
	}
	return out
}

// LeafSpineRTT is the §5.3 simulation RTT span: 3× from 80 to 240 µs
// (average ≈137 µs, 90th percentile ≈220 µs).
func LeafSpineRTT() rttvar.RTTDistribution {
	return rttvar.NewRTTDistribution(80*sim.Microsecond, 240*sim.Microsecond)
}

// SimECNSharp returns ECN♯'s §5.3/§5.4 simulation parameters:
// ins_target from the 90th-percentile RTT (Equation 2), pst_interval ≈ one
// worst-case RTT (240 µs), pst_target 10 µs — the center of Figure 12b's
// sensitivity sweep and the source of the 8-packet standing queue in
// Figure 10c.
func SimECNSharp() Scheme {
	rtt := LeafSpineRTT()
	return ECNSharpScheme(core.Params{
		InsTarget:   rtt.Percentile(90),
		PstTarget:   10 * sim.Microsecond,
		PstInterval: 240 * sim.Microsecond,
	})
}

// LeafSpineSchemes derives the §5.3 configurations from the fabric RTT
// distribution: DCTCP-RED-Tail/AVG via Equation 1, CoDel with
// interval 240 µs / target 10 µs (§5.4), and ECN♯ per SimECNSharp.
func LeafSpineSchemes() []Scheme {
	rtt := LeafSpineRTT()
	tail, avg, _ := DeriveSchemes(rtt, topology.TenGbps)
	codel := CoDelScheme(10*sim.Microsecond, 240*sim.Microsecond)
	return []Scheme{tail, avg, codel, SimECNSharp()}
}

// Fig9 reproduces Figure 9: the 128-host leaf-spine simulation with the
// web-search workload across loads, normalized to DCTCP-RED-Tail. Flows
// arrive Poisson between uniform host pairs; ECMP spreads them over 8
// spines.
func Fig9(sc Scale) []*Table {
	rtt := LeafSpineRTT()
	tables := fctSweep("fig9", "[Simulation] 128-host leaf-spine, web search FCT",
		LeafSpineSchemes(), sc.Loads, sc,
		func(s Scheme, load float64) RunConfig {
			return poissonCell("leafspine", workload.WebSearch, load, sc.LeafSpineFlowCount, rtt).withScheme(s)
		})
	// The paper's Figure 9 shows (a) overall avg and (b) short avg.
	return tables[:2]
}
