package collective

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParse checks the collective grammar: whatever parses is valid, and
// rendering the parsed instances back with Params.String parses to the same
// instances.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"ring:size=256KB,iters=4,hosts=8,gap=50us",
		"tree:size=64KB,hosts=8;alltoall:size=1MB,iters=2,hosts=4,gap=50us",
		"ring",
		"alltoall:size=9GB",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ps, err := Parse(spec)
		if err != nil {
			return
		}
		var items []string
		for _, p := range ps {
			if err := p.Validate(); err != nil {
				t.Fatalf("%q parsed into invalid %+v: %v", spec, p, err)
			}
			items = append(items, p.String())
		}
		again, err := Parse(strings.Join(items, ";"))
		if err != nil || !reflect.DeepEqual(again, ps) {
			t.Fatalf("%q round-trips through %q to %+v (%v), want %+v", spec, strings.Join(items, ";"), again, err, ps)
		}
	})
}
