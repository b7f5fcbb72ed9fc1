package main

import (
	"slices"
	"testing"

	"hpl"
)

func TestGenerateFormulas(t *testing.T) {
	atoms, ps := atomNames(fullSpec), procNames()
	a := generateFormulas(7, 2000, atoms, ps)
	if !slices.Equal(a, generateFormulas(7, 2000, atoms, ps)) {
		t.Fatal("the same seed gave a different list")
	}
	if slices.Equal(a, generateFormulas(8, 2000, atoms, ps)) {
		t.Fatal("a different seed gave the same list")
	}
	vocab := hpl.NewVocabulary(fullSpec.Predicates()...)
	seen := map[string]bool{}
	temporal := 0
	for i, q := range a {
		if seen[q.text] {
			t.Fatalf("formula %d repeats %q", i, q.text)
		}
		seen[q.text] = true
		if _, err := hpl.ParseFormula(q.text, vocab); err != nil {
			t.Fatalf("formula %d %q does not parse: %v", i, q.text, err)
		}
		if q.temporal {
			temporal++
		}
	}
	if temporal != len(a)/4 {
		t.Errorf("%d of %d formulas temporal, want one in four", temporal, len(a))
	}
}
