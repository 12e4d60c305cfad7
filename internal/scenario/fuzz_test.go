package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// decodeStrict decodes a spec the way the scenario server does: unknown
// fields are errors.
func decodeStrict(doc []byte) (Spec, error) {
	var sp Spec
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	err := dec.Decode(&sp)
	return sp, err
}

// sortedKeys re-encodes a JSON document with every object's keys in sorted
// order (encoding/json marshals maps that way), numbers kept verbatim.
func sortedKeys(t *testing.T, doc []byte) []byte {
	t.Helper()
	var tree any
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	if err := dec.Decode(&tree); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzSpecKey drives arbitrary JSON through the server's decode, then
// Validate → Normalized → Key, and checks the canonical-form contract the
// result cache relies on: Validate is deterministic, Normalized is
// idempotent and keeps a valid spec valid, the key does not change under
// normalization, and the key does not depend on field order.
func FuzzSpecKey(f *testing.F) {
	for _, g := range goldenSpecs {
		doc, err := json.Marshal(g.spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Add([]byte(`{"mode":"full","sync":"barrier","lps":2}`))
	f.Add([]byte(`{"seed":7,"horizon_ms":6,"lps":2,"workload":{"load":0.5},"topology":{"racks":8},"mode":"pdes"}`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		sp, err := decodeStrict(doc)
		if err != nil {
			return
		}
		verr := sp.Validate()
		if again := sp.Validate(); fmt.Sprint(again) != fmt.Sprint(verr) {
			t.Fatalf("Validate is not deterministic: %v, then %v", verr, again)
		}
		if verr != nil {
			return
		}
		n := sp.Normalized()
		if nn := n.Normalized(); !reflect.DeepEqual(nn, n) {
			t.Fatalf("Normalized is not idempotent:\n %+v\n %+v", n, nn)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("a valid spec normalizes to an invalid one: %v", err)
		}
		key, err := sp.Key()
		if err != nil {
			t.Fatal(err)
		}
		if nk, err := n.Key(); err != nil || nk != key {
			t.Fatalf("normalized spec keys %s (%v), the spec %s", nk, err, key)
		}
		// The same spec in another field order: struct order, then sorted.
		inOrder, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		reordered, err := decodeStrict(sortedKeys(t, inOrder))
		if err != nil {
			t.Fatalf("reordered spec does not decode: %v", err)
		}
		if rk, err := reordered.Key(); err != nil || rk != key {
			t.Fatalf("reordered spec keys %s (%v), the spec %s", rk, err, key)
		}
	})
}
