package experiments_test

import (
	"fmt"

	"ecnsharp/internal/experiments"
)

// Example runs one spec cell under two schemes: the Cell every figure is
// built from, and the same description ecnsim -spec and ecnsharpd accept.
func Example() {
	cell := experiments.Cell{
		Topo: "star", Workload: "websearch", Load: 0.6, Flows: 150, Seed: 7,
		RTTMinUS: 70, RTTVariation: 3,
	}
	run := func(scheme string) experiments.RunResult {
		cell.Scheme = scheme
		cfg, err := cell.RunConfig()
		if err != nil {
			panic(err)
		}
		return experiments.Run(cfg)
	}

	rTail := run("red-tail")
	rSharp := run("ecnsharp")
	fmt.Println("all flows completed:",
		rTail.Completed == rTail.Injected && rSharp.Completed == rSharp.Injected)
	fmt.Println("ECN# short-flow p99 below Tail:",
		rSharp.Stats.ShortP99 < rTail.Stats.ShortP99)

	// Output:
	// all flows completed: true
	// ECN# short-flow p99 below Tail: true
}
