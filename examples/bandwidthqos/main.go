// Bandwidthqos: the paper's conclusion (§8) observes that every
// worst-case slowdown — with or without cache partitioning — came from
// memory-bandwidth contention, and calls for bandwidth/latency QoS
// hardware. This example builds that hardware in simulation: each job
// gets a DRAM bandwidth reservation proportional to its cores, and the
// bandwidth-sensitive victims of Figure 4 are re-measured against the
// stream_uncached hog.
package main

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/workload"
)

func main() {
	const scale = 2e-3
	plain := sched.New(sched.Options{Scale: scale})
	qosCfg := machine.Default()
	qosCfg.BandwidthQoS = true
	qos := sched.New(sched.Options{Machine: &qosCfg, Scale: scale})

	hog := workload.MustByName("stream_uncached")
	victims := []string{"462.libquantum", "470.lbm", "459.GemsFDTD", "fluidanimate", "batik"}

	fmt.Println("slowdown vs the stream_uncached bandwidth hog:")
	fmt.Printf("%-16s  %-10s  %-10s\n", "victim", "no QoS", "with QoS")
	for _, name := range victims {
		app := workload.MustByName(name)

		alone := sched.HalfAlone(qosCfg, app)
		pair := sched.Pair(qosCfg, app, hog, 0, 0, true)

		base := plain.Run(alone).JobByName(name).Seconds
		noQ := plain.Run(pair).JobByName(name).Seconds / base

		baseQ := qos.Run(alone).JobByName(name).Seconds
		withQ := qos.Run(pair).JobByName(name).Seconds / baseQ

		fmt.Printf("%-16s  %9.2fx  %9.2fx\n", name, noQ, withQ)
	}

	fmt.Println("\nCache partitioning cannot remove this interference (the hog's")
	fmt.Println("non-temporal stream never touches the LLC); a bandwidth reservation")
	fmt.Println("can — the hardware addition the paper asks for in its conclusion.")
}
