// PDES scaling: the paper's Figure 1 phenomenon as a runnable demo.
//
// The same leaf-spine network and the same workload are simulated by a
// single-threaded kernel and by parallel DES with 2, 4, and 8 logical
// processes under each synchronization algorithm. Leaf-spine fabrics are
// all-to-all between leaves and spines, so almost every ToR-spine link
// crosses a partition: a conservative LP must exchange null messages with
// every other LP to advance its clock a few microseconds at a time, and an
// optimistic LP speculates into work it must constantly roll back. Watch the
// sync-message and rollback counts explode and the sim-seconds-per-second
// drop — "synchronization can actually cause PDES to perform worse than a
// single-threaded implementation" (§2.2).
//
// Pass -quick for a CI-sized smoke run.
package main

import (
	"flag"
	"fmt"
	"log"

	"approxsim/internal/des"
	"approxsim/internal/pdes"
	"approxsim/internal/scenario"
)

func main() {
	quick := flag.Bool("quick", false, "small topology and short horizon (CI smoke)")
	flag.Parse()

	const (
		load = 0.35
		seed = 11
	)
	dur := 2 * des.Millisecond
	sizes := []int{8, 16, 32}
	lpsSet := []int{1, 2, 4, 8}
	algos := []pdes.SyncAlgo{pdes.NullMessages, pdes.Barrier, pdes.TimeWarp}
	if *quick {
		dur = 500 * des.Microsecond
		sizes = []int{4}
		lpsSet = []int{1, 2}
	}

	fmt.Println("leaf-spine, racks of 4 servers, 10 GbE; same workload per row group")
	fmt.Printf("%6s %4s %9s %14s %10s %12s %12s %10s\n",
		"ToRs", "LPs", "sync", "sim-s/wall-s", "events", "sync msgs", "cross pkts", "rollbacks")
	for _, n := range sizes {
		for _, lps := range lpsSet {
			for _, algo := range algos {
				if lps == 1 && algo != pdes.NullMessages {
					continue // one LP never synchronizes; one row is enough
				}
				r, err := scenario.Run(scenario.Spec{
					Mode:      "pdes",
					Topology:  scenario.Topology{Racks: n},
					Workload:  scenario.Workload{Load: load},
					Sync:      algo.String(),
					LPs:       lps,
					Seed:      seed,
					HorizonMS: float64(dur) / float64(des.Millisecond),
				})
				if err != nil {
					log.Fatal(err)
				}
				res := r.Experiment
				fmt.Printf("%6d %4d %9v %14.4g %10d %12d %12d %10d\n",
					n, lps, algo, res.SimPerWall, res.Events,
					res.Nulls+res.Barriers, res.CrossPkts, res.Rollbacks)
			}
		}
		fmt.Println()
	}
	fmt.Println("(on a single-core host every LP shares one CPU, so parallel rows show")
	fmt.Println(" pure synchronization overhead — the large-topology regime of Fig. 1;")
	fmt.Println(" committed event counts agree across sync algorithms by construction)")
}
