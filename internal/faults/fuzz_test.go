package faults_test

import (
	"reflect"
	"testing"

	"hpl/internal/faults"
)

// FuzzParse mutates fault-model text: whatever the input, Parse must
// return an error or a model, and every model it accepts must render
// (String) to text that parses back to an equal model.
func FuzzParse(f *testing.F) {
	for _, in := range []string{"", "none", "crash", " crash , drop:1 ", "dup:2,crash",
		"crash:q,crash:p,crash:q", "CRASH:P,Drop:1", "drop:0", "crash;drop:1", "crash:"} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		m, err := faults.Parse(in)
		if err != nil {
			return
		}
		re, err := faults.Parse(m.String())
		if err != nil {
			t.Fatalf("%q rendered as %q, which fails to parse: %v", in, m.String(), err)
		}
		if !reflect.DeepEqual(re, m) {
			t.Fatalf("%q: round trip through %q changed %+v to %+v", in, m.String(), m, re)
		}
	})
}
