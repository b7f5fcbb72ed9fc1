package main

import (
	"fmt"
	"testing"

	"hpl"
)

// TestGoldenVerdicts recomputes every pinned verdict with a local
// session, so the table the benchmark checks replies against is itself
// checked against the library.
func TestGoldenVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("enumerates the 107,593-member universe")
	}
	keys := map[string]bool{}
	for _, c := range goldenCases() {
		ck, err := hpl.CheckSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range c.qs {
			got, err := localVerdict(ck, q)
			if err != nil {
				t.Fatalf("%q: %v", q.text, err)
			}
			key := goldenKey(c.spec, q)
			if want, ok := golden[key]; !ok || got != want {
				t.Errorf("golden[%q] = %+v, %v; computed %s", key, want, ok, fmt.Sprintf("%#v", got))
			}
			keys[key] = true
		}
	}
	if len(keys) != len(golden) {
		t.Errorf("golden table has %d entries, the cases cover %d", len(golden), len(keys))
	}
}
