// Incast: the pathological TCP minimum-window behavior from §2.1 of the
// paper — "given enough simultaneous connections, it is possible that the
// fair share of each connection is less than their minimum window size.
// When this occurs, TCP will never back off enough to prevent high packet
// loss."
//
// We aim an increasing number of synchronized senders at a single receiver
// behind one 10 GbE rack link and watch loss behavior change qualitatively:
// with a few senders, fast retransmit absorbs the burst; past the point
// where fanIn x (1 MSS minimum window) exceeds the bottleneck queue, every
// round of transmissions overflows the queue and timeouts dominate. This is
// exactly the scale-dependent phenomenon the paper argues small testbeds
// (and truncated simulations) cannot reveal.
//
// The network comes from the PDES builder on one LP, so every host runs the
// simulator's default TCP timers (10 ms MinRTO, 50 ms initial RTO) rather
// than the ~1 ms floors a tuned data center would use. Each timeout is
// therefore expensive, which makes the collapse past the threshold stark.
//
// Alongside the summary table, every run streams an interval metrics time
// series (tagged with its fan-in) to incast_metrics.jsonl and the whole
// sweep ends with an aggregate registry snapshot — the observability layer's
// view of the same collapse: watch tcp.timeouts go from a trickle to the
// dominant term between tags.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"

	"approxsim/internal/des"
	"approxsim/internal/metrics"
	"approxsim/internal/obs"
	"approxsim/internal/packet"
	"approxsim/internal/pdes"
	"approxsim/internal/topology"
	"approxsim/internal/traffic"
)

const (
	horizon    = 2 * des.Second
	seriesPath = "incast_metrics.jsonl"
)

func main() {
	reg := metrics.NewRegistry()
	series, err := os.Create(seriesPath)
	if err != nil {
		log.Fatal(err)
	}
	defer series.Close()
	// One row per 250 virtual ms. The registry is shared across the sweep, so
	// within a tag the rows are that run's deltas and the t_s clock restarts
	// with each fresh kernel.
	sampler := obs.NewSampler(reg, series, 250*des.Millisecond)

	fmt.Println("synchronized incast into one server; bottleneck: its rack link")
	fmt.Println("default TCP timers: MinRTO 10 ms, initial RTO 50 ms")
	fmt.Printf("%7s %10s %12s %12s %14s %12s\n",
		"flows", "completed", "retransmits", "timeouts", "mean FCT (ms)", "p99 (ms)")
	var last des.Time
	for _, fanIn := range []int{2, 8, 24, 48, 96} {
		sampler.SetTag(fmt.Sprintf("fanin=%d", fanIn))
		summary, end := runIncast(fanIn, reg, sampler)
		last = end
		fmt.Printf("%7d %10d %12d %12d %14.3f %12.3f\n",
			fanIn, summary.Completed, summary.Retrans, summary.Timeouts,
			summary.MeanFCT*1e3, summary.P99FCT*1e3)
	}
	if err := sampler.Close(last); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npast the minimum-window threshold the loss pattern shifts from")
	fmt.Println("fast-retransmit repair to RTO-driven collapse (compare the jump in")
	fmt.Println("timeouts and tail FCT) — the Section 2.1 pathology.")

	out, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\naggregate metrics across the sweep (time series in %s):\n%s\n",
		seriesPath, out)
}

func runIncast(fanIn int, reg *metrics.Registry, sampler *obs.Sampler) (traffic.Summary, des.Time) {
	// A cluster topology big enough to host fanIn senders across racks,
	// all converging on host 0: one synchronized block per sender, all
	// starting at time zero.
	clusters := 1 + (fanIn+7)/8
	const flowBytes = 64_000
	specs := make([]traffic.FlowSpec, fanIn)
	for i := range specs {
		specs[i] = traffic.FlowSpec{Src: packet.HostID(i + 1), Dst: 0, Size: flowBytes, ID: uint64(i + 1)}
	}
	net, err := pdes.Build(topology.DefaultClosConfig(clusters), 1, specs)
	if err != nil {
		log.Fatal(err)
	}
	net.RegisterMetrics(reg)
	k := net.Sys.LP(0).Kernel()
	sampler.InstallKernel(k, horizon)
	if err := net.Sys.Run(horizon); err != nil {
		log.Fatal(err)
	}
	return traffic.Summarize(net.Results(), horizon), k.Now()
}
