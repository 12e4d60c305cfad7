package topology

import (
	"reflect"
	"testing"

	"approxsim/internal/packet"
)

// FuzzParseFaults checks the fault grammar against both fabric kinds: a
// schedule that parses is valid, names only devices of the topology, parses
// identically twice, and routes every probe without panicking at every
// instant its routing state can change.
func FuzzParseFaults(f *testing.F) {
	for _, seed := range []string{
		"link:tor0-spine1@1ms+500us,detect=50us,jitter=10us",
		"switch:spine0@2ms+1ms,detect=50us;link:tor1-spine0@3ms",
		"link:agg0-core1@1ms+1ms,detect=40us;switch:core0@2ms",
		"link:host3-tor0@500us",
		"",
	} {
		f.Add(seed)
	}
	cfgs := []Config{DefaultLeafSpineConfig(4), DefaultClosConfig(2)}
	f.Fuzz(func(t *testing.T, spec string) {
		for _, cfg := range cfgs {
			sched, err := ParseFaults(cfg, spec)
			if err != nil {
				continue
			}
			if err := sched.Validate(); err != nil {
				t.Fatalf("%q parsed into an invalid schedule: %v", spec, err)
			}
			again, err := ParseFaults(cfg, spec)
			if err != nil || !reflect.DeepEqual(again, sched) {
				t.Fatalf("%q parses differently twice: %+v / %+v (%v)", spec, sched, again, err)
			}
			n := packet.NodeID(cfg.NumNodes())
			for _, fl := range sched.Faults {
				if fl.A < 0 || fl.A >= n || fl.B < 0 || fl.B >= n {
					t.Fatalf("%q names a device outside the topology: %+v", spec, fl)
				}
			}
			tor, _, _ := cfg.Bases()
			for _, at := range sched.SampleTimes() {
				for sw := tor; sw < n; sw++ {
					p := &packet.Packet{Src: 0, Dst: packet.HostID(cfg.NumHosts() - 1), FlowID: uint64(sw)}
					RouteOn(&cfg, sched, at, sw, p)
				}
			}
		}
	})
}
