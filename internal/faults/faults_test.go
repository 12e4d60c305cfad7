package faults

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"approxsim/internal/des"
	"approxsim/internal/packet"
)

// names resolves a toy fabric: tor0..3 are nodes 0..3, spine0..3 are 4..7.
func names(name string) (packet.NodeID, error) {
	var idx int
	switch {
	case strings.HasPrefix(name, "tor"):
		if _, err := fmt.Sscanf(name, "tor%d", &idx); err == nil && idx < 4 {
			return packet.NodeID(idx), nil
		}
	case strings.HasPrefix(name, "spine"):
		if _, err := fmt.Sscanf(name, "spine%d", &idx); err == nil && idx < 4 {
			return packet.NodeID(4 + idx), nil
		}
	}
	return 0, fmt.Errorf("unknown device %q", name)
}

const (
	us = des.Microsecond
	ms = des.Millisecond
)

func TestParseGrammar(t *testing.T) {
	s, err := Parse(" link:tor0-spine1@1ms+500us,detect=50us,jitter=10us ; switch:spine2@2ms ;", 9, names)
	if err != nil {
		t.Fatal(err)
	}
	want := &Schedule{Seed: 9, Faults: []Fault{
		{Kind: LinkFault, A: 0, B: 5, At: ms, Recover: ms + 500*us, Detect: 50 * us, DetectJitter: 10 * us},
		{Kind: SwitchFault, A: 6, At: 2 * ms},
	}}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("parsed %+v, want %+v", s, want)
	}
	if empty, err := Parse("", 1, names); err != nil || !empty.Empty() {
		t.Fatalf("empty spec: %+v, %v", empty, err)
	}
}

func TestParseRejects(t *testing.T) {
	for _, spec := range []string{
		"tor0-spine1@1ms",                // no kind
		"cable:tor0-spine1@1ms",          // unknown kind
		"link:tor0-spine1",               // no failure time
		"link:tor0@1ms",                  // link without a-b
		"link:tor0-tor9@1ms",             // unresolvable device
		"switch:spine7@1ms",              // unresolvable device
		"link:tor0-tor0@1ms",             // self-link
		"link:tor0-spine1@1ms+0s",        // recovers at the failure instant
		"link:tor0-spine1@1ms,detect",    // option without value
		"link:tor0-spine1@1ms,delay=1ms", // unknown option
		"link:tor0-spine1@-1ms",          // negative time
		"switch:spine0@1ms,detect=NaN",   // non-finite delay
		"switch:spine0@1e300s",           // unrepresentable time
	} {
		if s, err := Parse(spec, 1, names); err == nil {
			t.Errorf("%q parsed: %+v", spec, s)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for in, want := range map[string]des.Time{
		"250": 250, "250ns": 250, "1.5us": 1500, "2µs": 2000,
		"3ms": 3 * ms, "0.5s": 500 * ms, " 7us ": 7 * us, "0": 0,
	} {
		if got, err := ParseDuration(in); err != nil || got != want {
			t.Errorf("ParseDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "ms", "-1us", "x", "NaN", "Inf", "+Inf", "1e19", "1e300s"} {
		if got, err := ParseDuration(in); err == nil {
			t.Errorf("ParseDuration(%q) = %v, want an error", in, got)
		}
	}
}

func TestValidate(t *testing.T) {
	var nilSched *Schedule
	if err := nilSched.Validate(); err != nil {
		t.Errorf("nil schedule: %v", err)
	}
	for i, f := range []Fault{
		{Kind: Kind(7), A: 1},
		{Kind: LinkFault, A: 2, B: 2},
		{Kind: SwitchFault, A: 1, At: -1},
		{Kind: SwitchFault, A: 1, At: ms, Recover: ms},
		{Kind: SwitchFault, A: 1, Detect: -1},
		{Kind: SwitchFault, A: 1, DetectJitter: -1},
	} {
		if err := (&Schedule{Faults: []Fault{f}}).Validate(); err == nil {
			t.Errorf("fault %d (%+v) accepted", i, f)
		}
	}
}

// Physical windows are [At, Recover): the failure instant is down, the
// recovery instant is up, and Recover 0 means down forever.
func TestPhysicalDownWindows(t *testing.T) {
	s := &Schedule{Faults: []Fault{
		{Kind: LinkFault, A: 0, B: 5, At: ms, Recover: 2 * ms},
		{Kind: SwitchFault, A: 6, At: 3 * ms},
	}}
	for _, c := range []struct {
		name string
		got  bool
		want bool
	}{
		{"link before", s.LinkDown(0, 5, ms-1), false},
		{"link at failure", s.LinkDown(0, 5, ms), true},
		{"link reversed", s.LinkDown(5, 0, ms), true},
		{"link at recovery", s.LinkDown(0, 5, 2*ms), false},
		{"other link", s.LinkDown(0, 4, ms), false},
		{"switch before", s.SwitchDown(6, 3*ms-1), false},
		{"switch permanent", s.SwitchDown(6, des.MaxTime-1), true},
		{"switch is not a link", s.LinkDown(0, 6, 4*ms), false},
		{"path via dead switch", s.PathDown(1, 6, 4*ms), true},
		{"path via dead link", s.PathDown(5, 0, ms), true},
		{"healthy path", s.PathDown(1, 4, ms), false},
	} {
		if c.got != c.want {
			t.Errorf("%s: %v, want %v", c.name, c.got, c.want)
		}
	}
	var healthy *Schedule
	if !healthy.Empty() || healthy.LinkDown(0, 5, ms) || healthy.SwitchDown(6, ms) ||
		healthy.ViewedLinkDown(1, 0, 5, ms) || healthy.ViewedSwitchDown(1, 6, ms) ||
		healthy.TouchesLink(0, 5) {
		t.Error("nil schedule reports a fault")
	}
}

// A viewer believes an outage from At+Detect+jitter until Recover plus the
// same delay, with its jitter fixed per viewer and within [0, DetectJitter].
func TestViewedWindowsShiftByDetection(t *testing.T) {
	s := &Schedule{Seed: 3, Faults: []Fault{
		{Kind: LinkFault, A: 0, B: 5, At: ms, Recover: 2 * ms, Detect: 50 * us, DetectJitter: 20 * us},
	}}
	distinct := map[des.Time]bool{}
	for viewer := packet.NodeID(0); viewer < 8; viewer++ {
		j := s.jitter(viewer, 0)
		if j < 0 || j > 20*us || j != s.jitter(viewer, 0) {
			t.Fatalf("viewer %d jitter %v outside [0, 20us] or unstable", viewer, j)
		}
		distinct[j] = true
		d := 50*us + j
		for _, c := range []struct {
			at   des.Time
			want bool
		}{{ms + d - 1, false}, {ms + d, true}, {2*ms + d - 1, true}, {2*ms + d, false}} {
			if got := s.ViewedLinkDown(viewer, 5, 0, c.at); got != c.want {
				t.Errorf("viewer %d at %v: believes down %v, want %v", viewer, c.at, got, c.want)
			}
		}
	}
	if len(distinct) < 2 {
		t.Error("jitter does not stagger viewers")
	}
	sw := &Schedule{Faults: []Fault{{Kind: SwitchFault, A: 6, At: ms, Detect: 10 * us}}}
	if sw.ViewedSwitchDown(1, 6, ms+10*us-1) || !sw.ViewedSwitchDown(1, 6, des.MaxTime-1) {
		t.Error("permanent switch failure viewed wrongly")
	}
}

func TestTouches(t *testing.T) {
	s := &Schedule{Faults: []Fault{
		{Kind: LinkFault, A: 0, B: 5, At: ms},
		{Kind: SwitchFault, A: 6, B: 1, At: ms}, // B is meaningless for a switch
	}}
	for _, c := range []struct {
		a, b packet.NodeID
		want bool
	}{{5, 0, true}, {0, 4, false}, {2, 6, true}, {6, 7, true}, {1, 4, false}} {
		if got := s.TouchesLink(c.a, c.b); got != c.want {
			t.Errorf("TouchesLink(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSampleTimes(t *testing.T) {
	s := &Schedule{Faults: []Fault{
		{Kind: LinkFault, A: 0, B: 5, At: ms, Recover: 2 * ms, Detect: 50 * us, DetectJitter: 10 * us},
		{Kind: SwitchFault, A: 6, At: ms, Detect: 50 * us},
	}}
	want := []des.Time{0, ms, ms + 50*us, ms + 60*us, 2 * ms, 2*ms + 50*us, 2*ms + 60*us}
	if got := s.SampleTimes(); !reflect.DeepEqual(got, want) {
		t.Errorf("SampleTimes = %v, want %v", got, want)
	}
	var healthy *Schedule
	if got := healthy.SampleTimes(); !reflect.DeepEqual(got, []des.Time{0}) {
		t.Errorf("healthy SampleTimes = %v", got)
	}
}
