package hpl_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"hpl"
)

// FuzzUniverseSpec mutates spec JSON as a client would send it. For
// every spec that decodes, canonicalization must be idempotent, the
// digest must not depend on whether the spec was canonicalized first,
// and Validate must give the same verdict on both forms.
func FuzzUniverseSpec(f *testing.F) {
	for _, in := range []string{
		`{"procs":["p","q","r"],"maxSends":2,"maxEvents":6}`,
		`{"protocol":" FREE ","procs":["r","p","p"],"maxSends":-1,"cap":-3}`,
		`{"procs":["p","q"],"sendTags":["m","m",""],"internalTags":[" i "],"maxInternal":1}`,
		`{"procs":["p","q","r"],"maxSends":2,"maxEvents":6,"symmetry":"full"}`,
		`{"procs":["P","Q"],"faults":"CRASH:P, drop:1"}`,
		`{"procs":["p","P"],"faults":"crash:P","symmetry":"Full"}`,
		`{"procs":["p"],"faults":"lossy"}`,
		`{}`,
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s hpl.UniverseSpec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		c := s.Canonical()
		if cc := c.Canonical(); !reflect.DeepEqual(cc, c) {
			t.Fatalf("Canonical not idempotent:\n once  %+v\n twice %+v", c, cc)
		}
		if s.Digest() != c.Digest() {
			t.Fatalf("Digest(s) != Digest(Canonical(s)) for %+v", s)
		}
		if e1, e2 := s.Validate(), c.Validate(); (e1 == nil) != (e2 == nil) {
			t.Fatalf("Validate disagrees: spec %v, canonical %v", e1, e2)
		}
	})
}
