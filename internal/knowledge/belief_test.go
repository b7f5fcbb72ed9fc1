package knowledge

import (
	"testing"

	"hpl/internal/trace"
	"hpl/internal/universe"
)

// optimisticPlausibility: agents consider plausible only worlds where no
// message is lost in flight for long — modelled here as "no message in
// flight", i.e. agents assume prompt delivery.
func optimisticPlausibility() Predicate {
	return NoMessagesInFlight()
}

func TestBeliefMatchesKnowledgeWhenAllPlausible(t *testing.T) {
	u := pingPong(t)
	ke := NewEvaluator(u)
	be := NewBelieverEvaluator(u, Constant(true))
	b := NewAtom(SentTag("p", "m"))
	formulas := []Formula{
		b,
		Knows(ps("q"), b),
		Knows(ps("p"), Knows(ps("q"), b)),
		Sure(ps("q"), b),
	}
	for _, f := range formulas {
		for i := 0; i < u.Len(); i++ {
			if be.HoldsAt(f, i) != ke.HoldsAt(f, i) {
				t.Fatalf("belief with total plausibility differs from knowledge on %v at %d", f, i)
			}
		}
	}
}

func TestBeliefLosesVeridicality(t *testing.T) {
	// With "prompt delivery" plausibility, q believes ¬sent(p) is
	// impossible... concretely: at the computation where p has sent and
	// the message is in flight, q's plausible class contains only
	// members where either nothing was sent or delivery completed; q
	// believes "no message is in flight" — which is false at the actual
	// computation. Belief ⇒ truth fails.
	u := pingPong(t)
	be := NewBelieverEvaluator(u, optimisticPlausibility())
	rep := AnalyzeBelief(be, ps("q"), NewAtom(NoMessagesInFlight()))
	if rep.VeridicalityHolds {
		t.Fatalf("veridicality must fail for optimistic belief")
	}
	if rep.VeridicalityCounterIndex < 0 {
		t.Fatalf("no counterexample recorded")
	}
	// The counterexample is a computation with a message in flight.
	cx := u.At(rep.VeridicalityCounterIndex)
	if len(cx.InFlight()) == 0 {
		t.Fatalf("counterexample has no message in flight: %v", cx)
	}
	// Introspection survives: plausibility filters uniformly per class.
	if !rep.IntrospectionHolds {
		t.Fatalf("introspection must survive the move to belief")
	}
}

func TestBeliefConsistencyFailsWithEmptyPlausibleClass(t *testing.T) {
	// A paranoid plausibility that rules out every world makes agents
	// believe everything — including contradictions.
	u := pingPong(t)
	be := NewBelieverEvaluator(u, Constant(false))
	b := NewAtom(SentTag("p", "m"))
	rep := AnalyzeBelief(be, ps("q"), b)
	if rep.ConsistencyHolds {
		t.Fatalf("consistency must fail with an empty plausible set")
	}
	if !be.Valid(Knows(ps("q"), False)) {
		t.Fatalf("the mad believer must believe false")
	}
}

func TestBeliefConsistencyHoldsWithReflexivePlausibility(t *testing.T) {
	u := pingPong(t)
	be := NewBelieverEvaluator(u, Constant(true))
	b := NewAtom(SentTag("p", "m"))
	rep := AnalyzeBelief(be, ps("q"), b)
	if !rep.ConsistencyHolds || !rep.VeridicalityHolds || !rep.IntrospectionHolds {
		t.Fatalf("belief with total plausibility must behave like knowledge: %+v", rep)
	}
}

func TestBelieverEvaluatorRejectsCommon(t *testing.T) {
	u := pingPong(t)
	be := NewBelieverEvaluator(u, Constant(true))
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for unsupported Common")
		}
	}()
	be.HoldsAt(Common(True), 0)
}

func TestBeliefSureOperator(t *testing.T) {
	u := pingPong(t)
	be := NewBelieverEvaluator(u, optimisticPlausibility())
	// "Sure" under belief: q is belief-sure of quiescence everywhere,
	// because all its plausible worlds are quiescent.
	f := Sure(ps("q"), NewAtom(NoMessagesInFlight()))
	if !be.Valid(f) {
		t.Fatalf("optimistic q must always be belief-sure of quiescence")
	}
}

// beliefByDefinition evaluates f at member i straight from the
// definition of belief: (P believes F) at i iff F holds at every
// plausible j ∈ [P]-class of i. No memo, no rewrite.
func beliefByDefinition(u *universe.Universe, plausible Predicate, f Formula, i int) bool {
	holds := func(g Formula, j int) bool { return beliefByDefinition(u, plausible, g, j) }
	switch f := f.(type) {
	case ConstF:
		return f.Value
	case Atom:
		return f.Pred.Holds(u.At(i))
	case NotF:
		return !holds(f.F, i)
	case AndF:
		return holds(f.L, i) && holds(f.R, i)
	case OrF:
		return holds(f.L, i) || holds(f.R, i)
	case ImpliesF:
		return !holds(f.L, i) || holds(f.R, i)
	case KnowsF:
		for _, j := range u.ClassRef(u.At(i), f.P) {
			if plausible.Holds(u.At(j)) && !holds(f.F, j) {
				return false
			}
		}
		return true
	case SureF:
		return holds(Knows(f.P, f.F), i) || holds(Knows(f.P, Not(f.F)), i)
	}
	panic("beliefByDefinition: unsupported formula")
}

func TestBelieverEvaluatorMatchesDefinition(t *testing.T) {
	free, err := universe.EnumerateWith(universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 2,
	}), universe.WithMaxEvents(6))
	if err != nil {
		t.Fatal(err)
	}
	b := NewAtom(SentTag("p", "m"))
	c := NewAtom(ReceivedTag("q", "m"))
	formulas := []Formula{
		b,
		Knows(ps("q"), b),
		Knows(ps("p"), Knows(ps("q"), b)),
		Knows(ps("q"), Not(Knows(ps("p"), c))),
		Knows(ps("p", "q"), Implies(b, c)),
		Sure(ps("q"), b),
		Sure(ps("p"), Knows(ps("q"), b)),
		And(Not(Knows(ps("q"), b)), Or(c, Sure(ps("p"), c))),
	}
	plausibilities := []Predicate{
		Constant(true),
		Constant(false),
		NoMessagesInFlight(),
		ReceivedTag("q", "m"),
	}
	for _, u := range []*universe.Universe{pingPong(t), free} {
		for _, pl := range plausibilities {
			be := NewBelieverEvaluator(u, pl)
			for _, f := range formulas {
				for i := 0; i < u.Len(); i++ {
					if got, want := be.HoldsAt(f, i), beliefByDefinition(u, pl, f, i); got != want {
						t.Fatalf("%d members, plausible=%s: %v at %d = %v, definition gives %v",
							u.Len(), pl.Name(), f, i, got, want)
					}
				}
			}
		}
	}
}
