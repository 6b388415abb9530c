// Quickstart: build an 8-host star testbed, inject a web-search workload
// with 3× RTT variation, and compare ECN♯ against the current practice
// (DCTCP-RED with a 90th-percentile-RTT threshold).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"ecnsharp/internal/experiments"
)

func main() {
	// One spec cell per scheme: the same description ecnsim -spec and
	// ecnsharpd accept. Resolving it follows the operator workflow from the
	// paper: take the base-RTT distribution (here: 3× variation, 70–210 µs)
	// and derive marking thresholds from its statistics via Equation 1/2.
	cell := experiments.Cell{
		Topo: "star", Workload: "websearch", Load: 0.6, Flows: 300, Seed: 42,
		RTTMinUS: 70, RTTVariation: 3,
	}
	var cfgs []experiments.RunConfig
	for _, name := range []string{"red-tail", "ecnsharp"} {
		cell.Scheme = name
		cfg, err := cell.RunConfig()
		if err != nil {
			fmt.Fprintln(os.Stderr, "quickstart:", err)
			os.Exit(1)
		}
		cfgs = append(cfgs, cfg)
	}
	rtt, tail, sharp := cfgs[0].RTT, cfgs[0].Scheme, cfgs[1].Scheme

	fmt.Printf("RTT distribution: min=%v mean=%v p90=%v max=%v\n",
		rtt.Min, rtt.Mean(), rtt.Percentile(90), rtt.Max)
	fmt.Printf("derived DCTCP-RED-Tail threshold: %d KB\n", tail.KBytes/1000)
	fmt.Printf("derived ECN# params: ins_target=%v pst_target=%v pst_interval=%v\n\n",
		sharp.Params.InsTarget, sharp.Params.PstTarget, sharp.Params.PstInterval)

	for _, cfg := range cfgs {
		r := experiments.Run(cfg)
		s := r.Stats
		fmt.Printf("%-16s overall avg %8.1f us | short avg %7.1f us p99 %8.1f us | large avg %9.1f us\n",
			cfg.Scheme.Label, s.OverallAvg, s.ShortAvg, s.ShortP99, s.LargeAvg)
	}
	fmt.Println("\nECN# should show clearly lower short-flow FCT at similar large-flow FCT.")
}
