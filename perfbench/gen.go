package main

import (
	"math/rand/v2"
	"strings"
)

// query is one formula of a workload with the endpoint it goes to:
// temporal queries are sent to /v1/check-temporal, the rest to
// /v1/check.
type query struct {
	text     string
	temporal bool
}

// genStream is the PCG stream of the formula generator; any fixed
// value works, it only keeps the generator's sequence apart from the
// other seeded choices the benchmark makes.
const genStream = 0x6e6f76656c

// generateFormulas returns n distinct formulas over the given atoms
// and processes, the same list for the same seed. Every fourth formula
// (index 0, 4, 8, …) is temporal: it wraps epistemic subformulas in EF
// or AG. The rest nest K{P}, C and the boolean connectives. Depths stay
// at three so a formula adds a handful of truth vectors to the memo.
func generateFormulas(seed uint64, n int, atoms []string, procs []string) []query {
	g := &formulaGen{rng: rand.New(rand.NewPCG(seed, genStream)), atoms: atoms, procs: procs}
	seen := make(map[string]bool, n)
	out := make([]query, 0, n)
	for len(out) < n {
		temporal := len(out)%4 == 0
		var f string
		if temporal {
			f = g.temporal()
		} else {
			f = g.epistemic(3)
		}
		if seen[f] {
			continue
		}
		seen[f] = true
		out = append(out, query{text: f, temporal: temporal})
	}
	return out
}

type formulaGen struct {
	rng   *rand.Rand
	atoms []string
	procs []string
}

func (g *formulaGen) atom() string { return `"` + g.atoms[g.rng.IntN(len(g.atoms))] + `"` }

// procSet renders a random non-empty process set as K's subscript.
func (g *formulaGen) procSet() string {
	mask := 1 + g.rng.IntN(1<<len(g.procs)-1)
	var set []string
	for i, p := range g.procs {
		if mask&(1<<i) != 0 {
			set = append(set, p)
		}
	}
	return "{" + strings.Join(set, ",") + "}"
}

// epistemic renders a formula of at most the given depth. Binary
// connectives are always parenthesized, so distinct trees print as
// distinct strings.
func (g *formulaGen) epistemic(depth int) string {
	if depth == 0 {
		return g.atom()
	}
	switch g.rng.IntN(8) {
	case 0:
		return g.atom()
	case 1, 2:
		return "K" + g.procSet() + " " + g.epistemic(depth-1)
	case 3:
		return "C " + g.epistemic(depth-1)
	case 4:
		return "!" + g.epistemic(depth-1)
	default:
		op := [...]string{" & ", " | ", " -> "}[g.rng.IntN(3)]
		return "(" + g.epistemic(depth-1) + op + g.epistemic(depth-1) + ")"
	}
}

func (g *formulaGen) temporal() string {
	switch g.rng.IntN(3) {
	case 0:
		return "EF " + g.epistemic(2)
	case 1:
		return "AG " + g.epistemic(2)
	default:
		return "(" + g.epistemic(2) + " -> AG " + g.epistemic(1) + ")"
	}
}
