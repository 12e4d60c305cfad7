package trace

import (
	"bytes"
	"strings"
	"testing"

	"approxsim/internal/des"
	"approxsim/internal/packet"
	"approxsim/internal/tcp"
	"approxsim/internal/topology"
	"approxsim/internal/traffic"
)

// testbed records cluster 0's fabric of a 2-cluster Clos with stacks.
func testbed(t *testing.T) (*des.Kernel, *topology.Topology, []*tcp.Stack, *BoundaryRecorder) {
	t.Helper()
	k := des.NewKernel()
	topo, err := topology.Build(k, topology.DefaultClosConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	stacks := make([]*tcp.Stack, len(topo.Hosts))
	for i, h := range topo.Hosts {
		stacks[i] = tcp.NewStack(h, tcp.Config{})
	}
	return k, topo, stacks, AttachBoundary(topo, topology.Boundary{})
}

func TestEgressTraversalRecorded(t *testing.T) {
	k, _, stacks, rec := testbed(t)
	// Host 0 (cluster 0) -> host 8 (cluster 1): egress traversals.
	stacks[0].StartFlow(8, 3000, 1, nil)
	k.RunAll()
	eg, _ := Split(rec.Records)
	if len(eg) == 0 {
		t.Fatal("no egress records for an inter-cluster flow")
	}
	for _, r := range eg {
		if r.Src != 0 || r.Dst != 8 || r.Flow != 1 {
			t.Errorf("bad record identity: %+v", r)
		}
		if r.Dropped {
			t.Errorf("unexpected drop on idle fabric: %+v", r)
		}
		if r.Latency <= 0 {
			t.Errorf("non-positive fabric latency: %+v", r)
		}
		// Fabric transit (ToR queue + 2 links + agg queue) on idle 10G
		// links: ~2-10 microseconds.
		if r.Latency > des.Millisecond {
			t.Errorf("implausible idle fabric latency %v", r.Latency)
		}
	}
}

func TestIngressTraversalRecorded(t *testing.T) {
	k, _, stacks, rec := testbed(t)
	// Host 8 (cluster 1) -> host 0 (cluster 0): ingress into cluster 0.
	stacks[8].StartFlow(0, 3000, 1, nil)
	k.RunAll()
	eg, ing := Split(rec.Records)
	if len(ing) == 0 {
		t.Fatal("no ingress records")
	}
	// The reverse ACK stream egresses cluster 0.
	if len(eg) == 0 {
		t.Fatal("ACK stream should produce egress records")
	}
	ackish := 0
	for _, r := range eg {
		if r.IsAck {
			ackish++
		}
	}
	if ackish == 0 {
		t.Error("no ACK egress records")
	}
}

func TestIntraClusterNotRecorded(t *testing.T) {
	k, _, stacks, rec := testbed(t)
	// Host 0 -> host 4: same cluster, crosses fabric but never the core.
	stacks[0].StartFlow(4, 3000, 1, nil)
	k.RunAll()
	if len(rec.Records) != 0 {
		t.Errorf("intra-cluster traffic produced %d boundary records", len(rec.Records))
	}
}

func TestOtherClusterNotRecorded(t *testing.T) {
	k, _, stacks, rec := testbed(t)
	// Traffic within cluster 1 must not appear in cluster 0's recorder.
	stacks[8].StartFlow(12, 3000, 1, nil)
	k.RunAll()
	if len(rec.Records) != 0 {
		t.Errorf("cluster-1 traffic produced %d records in cluster-0 recorder", len(rec.Records))
	}
}

// TestDropRecorded overloads shallow fabric and core queues: drops inside
// the recorded region resolve traversals as dropped.
func TestDropRecorded(t *testing.T) {
	k := des.NewKernel()
	cfg := topology.DefaultClosConfig(2)
	// Brutally shallow fabric queues to force drops.
	cfg.FabricLink.QueueBytes = 2 * packet.MaxFrameSize
	cfg.CoreLink.QueueBytes = 2 * packet.MaxFrameSize
	topo, err := topology.Build(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stacks := make([]*tcp.Stack, len(topo.Hosts))
	for i, h := range topo.Hosts {
		stacks[i] = tcp.NewStack(h, tcp.Config{MinRTO: des.Millisecond, InitialRTO: des.Millisecond})
	}
	rec := AttachBoundary(topo, topology.Boundary{})
	// All 8 cluster-0 hosts blast cluster 1: uplinks overload.
	for i := 0; i < 8; i++ {
		stacks[i].StartFlow(packet.HostID(8+i), 500_000, uint64(i+1), nil)
	}
	k.Run(50 * des.Millisecond)
	drops := 0
	for _, r := range rec.Records {
		if r.Dropped {
			drops++
		}
	}
	if drops == 0 {
		t.Error("no drops recorded despite overloaded shallow queues")
	}
}

func TestRecordsInEntryOrder(t *testing.T) {
	k, _, stacks, rec := testbed(t)
	for i := 0; i < 4; i++ {
		stacks[i].StartFlow(packet.HostID(8+i), 20_000, uint64(i+1), nil)
	}
	k.RunAll()
	for i := 1; i < len(rec.Records); i++ {
		if rec.Records[i].Entry < rec.Records[i-1].Entry {
			t.Fatal("records out of entry order")
		}
	}
}

func TestDetachStopsRecording(t *testing.T) {
	k, _, stacks, rec := testbed(t)
	stacks[0].StartFlow(8, 3000, 1, nil)
	k.RunAll()
	n := len(rec.Records)
	rec.Detach()
	stacks[0].StartFlow(8, 3000, 2, nil)
	k.RunAll()
	if len(rec.Records) != n {
		t.Errorf("records grew after Detach: %d -> %d", n, len(rec.Records))
	}
}

func TestChainedRecordersBothSee(t *testing.T) {
	k, topo, stacks, rec0 := testbed(t)
	rec1 := AttachBoundary(topo, topology.Boundary{Cluster: 1})
	stacks[0].StartFlow(8, 3000, 1, nil)
	k.RunAll()
	if len(rec0.Records) == 0 {
		t.Error("first recorder lost its hooks after second attached")
	}
	// The same flow ingresses cluster 1.
	_, ing := Split(rec1.Records)
	if len(ing) == 0 {
		t.Error("second recorder saw nothing")
	}
}

func TestOrphansCounted(t *testing.T) {
	k, _, stacks, rec := testbed(t)
	stacks[0].StartFlow(8, 100_000, 1, nil)
	// Stop mid-flight: some packets are inside the fabric.
	for i := 0; i < 200 && k.Step(); i++ {
	}
	total := len(rec.Records)
	resolved := 0
	for _, r := range rec.Records {
		if r.Dropped || r.Latency > 0 {
			resolved++
		}
	}
	if rec.Orphans() != total-resolved {
		t.Errorf("Orphans = %d, want %d", rec.Orphans(), total-resolved)
	}
}

func TestRTTRecorder(t *testing.T) {
	k, topo, stacks, _ := testbed(t)
	hosts := make([]packet.HostID, 0, 8)
	for _, h := range topo.HostsInCluster(0) {
		hosts = append(hosts, h.ID())
	}
	rtt := AttachRTT(stacks, hosts)
	stacks[0].StartFlow(8, 50_000, 1, nil)
	stacks[9].StartFlow(12, 50_000, 2, nil) // outside cluster 0: not recorded
	k.RunAll()
	if rtt.Sample.Len() == 0 {
		t.Fatal("no RTT samples recorded")
	}
	for _, v := range rtt.Sample.Values() {
		if v <= 0 || v > 1 {
			t.Errorf("implausible RTT %v s", v)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	recs := []Record{
		{Entry: 1000, Latency: 2500, Dir: Egress, Src: 1, Dst: 9, Flow: 77, Size: 1526},
		{Entry: 2000, Dropped: true, Dir: Ingress, Src: 9, Dst: 1, Flow: 78, Size: 66, IsAck: true},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip length %d != %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"entry_ns,latency_ns,dropped,dir,src,dst,flow,size,is_ack\nbad,0,false,egress,0,0,0,0,false\n",
		"entry_ns,latency_ns,dropped,dir,src,dst,flow,size,is_ack\n0,0,false,sideways,0,0,0,0,false\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: no error for malformed csv", i)
		}
	}
}

func TestRealisticTrainingCapture(t *testing.T) {
	// The actual training workflow: 2 clusters, mixed workload, capture
	// cluster 0 for several milliseconds. Verify the capture has both
	// directions and a sane latency distribution.
	k, _, stacks, rec := testbed(t)
	hosts := make([]packet.HostID, len(stacks))
	for i := range hosts {
		hosts[i] = packet.HostID(i)
	}
	specs, err := traffic.GenerateSpecs(traffic.Config{Load: 0.4, HostBandwidthBps: 10e9, Seed: 21}, hosts, 5*des.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		stack := stacks[sp.Src]
		k.At(sp.At, func() { stack.StartFlow(sp.Dst, sp.Size, sp.ID, nil) })
	}
	k.Run(8 * des.Millisecond)
	eg, ing := Split(rec.Records)
	if len(eg) < 50 || len(ing) < 50 {
		t.Fatalf("thin capture: %d egress, %d ingress", len(eg), len(ing))
	}
}
