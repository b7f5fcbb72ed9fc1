package knowledge

import (
	"fmt"

	"hpl/internal/trace"
	"hpl/internal/universe"
)

// This file implements the paper's §6 generalization 3: "we can define
// belief in terms of isomorphism"; the paper notes its results do not
// carry over. Belief quantifies over the *plausible* members of an
// isomorphism class rather than all of them:
//
//	(P believes b) at x  ≡  ∀y: x [P] y ∧ plausible(y) : b at y.
//
// The failure mode is precise and machine-checked here: when the actual
// computation is itself implausible, belief loses veridicality (the
// analogue of fact 4, "knowledge implies truth", fails), while the
// introspective facts survive because plausibility filters uniformly
// within each class.

// BelieverEvaluator evaluates belief formulas over a universe with a
// plausibility predicate. Knowledge formulas evaluated through it treat
// every KnowsF node as belief; atoms and connectives are unchanged.
//
// Belief is knowledge of a guarded formula,
//
//	(P believes b)  ≡  P knows (plausible ⇒ b),
//
// so each query is rewritten to that form and answered by the
// vectorized Evaluator.
type BelieverEvaluator struct {
	e         *Evaluator
	plausible Formula
}

// NewBelieverEvaluator builds a belief evaluator; plausible carves the
// worlds the agents take seriously.
func NewBelieverEvaluator(u *universe.Universe, plausible Predicate) *BelieverEvaluator {
	return &BelieverEvaluator{e: NewEvaluator(u), plausible: NewAtom(plausible)}
}

// Universe returns the underlying universe.
func (e *BelieverEvaluator) Universe() *universe.Universe { return e.e.Universe() }

// HoldsAt evaluates f at member i, reading KnowsF as belief.
func (e *BelieverEvaluator) HoldsAt(f Formula, i int) bool {
	return e.e.HoldsAt(e.asKnowledge(f), i)
}

// Valid reports whether f holds at every member.
func (e *BelieverEvaluator) Valid(f Formula) bool {
	return e.e.Valid(e.asKnowledge(f))
}

// asKnowledge rewrites every belief in f to knowledge of its guarded
// form. Common knowledge and the temporal operators have no belief
// reading here and panic.
func (e *BelieverEvaluator) asKnowledge(f Formula) Formula {
	switch f := f.(type) {
	case ConstF, Atom:
		return f
	case NotF:
		return Not(e.asKnowledge(f.F))
	case AndF:
		return And(e.asKnowledge(f.L), e.asKnowledge(f.R))
	case OrF:
		return Or(e.asKnowledge(f.L), e.asKnowledge(f.R))
	case ImpliesF:
		return Implies(e.asKnowledge(f.L), e.asKnowledge(f.R))
	case KnowsF:
		return Knows(f.P, Implies(e.plausible, e.asKnowledge(f.F)))
	case SureF:
		return Or(e.asKnowledge(Knows(f.P, f.F)), e.asKnowledge(Knows(f.P, Not(f.F))))
	default:
		panic(fmt.Sprintf("knowledge: belief evaluator does not support %T", f))
	}
}

// BeliefReport summarizes which knowledge facts survive the move to
// belief over one universe.
type BeliefReport struct {
	// VeridicalityHolds: (P believes b) ⇒ b everywhere — generally FALSE
	// for belief; a counterexample index is recorded when it fails.
	VeridicalityHolds        bool
	VeridicalityCounterIndex int
	// IntrospectionHolds: B B b ≡ B b and B ¬B b ≡ ¬B b everywhere.
	IntrospectionHolds bool
	// ConsistencyHolds: ¬(B b ∧ B ¬b) everywhere; fails exactly where a
	// class contains no plausible world (the agent believes everything).
	ConsistencyHolds        bool
	ConsistencyCounterIndex int
}

// AnalyzeBelief checks the S5 facts against belief for the process set P
// and formula b.
func AnalyzeBelief(e *BelieverEvaluator, p trace.ProcSet, b Formula) BeliefReport {
	rep := BeliefReport{
		VeridicalityHolds:        true,
		IntrospectionHolds:       true,
		ConsistencyHolds:         true,
		VeridicalityCounterIndex: -1,
		ConsistencyCounterIndex:  -1,
	}
	bb := Knows(p, b)
	for i := 0; i < e.Universe().Len(); i++ {
		if e.HoldsAt(bb, i) && !e.HoldsAt(b, i) && rep.VeridicalityHolds {
			rep.VeridicalityHolds = false
			rep.VeridicalityCounterIndex = i
		}
		if e.HoldsAt(Knows(p, bb), i) != e.HoldsAt(bb, i) {
			rep.IntrospectionHolds = false
		}
		if e.HoldsAt(Knows(p, Not(bb)), i) != !e.HoldsAt(bb, i) {
			rep.IntrospectionHolds = false
		}
		if e.HoldsAt(bb, i) && e.HoldsAt(Knows(p, Not(b)), i) && rep.ConsistencyHolds {
			rep.ConsistencyHolds = false
			rep.ConsistencyCounterIndex = i
		}
	}
	return rep
}
