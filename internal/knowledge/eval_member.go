package knowledge

import (
	"fmt"

	"hpl/internal/temporal"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// MemberEvaluator interprets formulas one member at a time, memoizing
// lazily-filled truth vectors keyed by Key() strings. Its one parameter
// is the isomorphism relation, given as a class function: with the
// universe's projection classes (NewMemberEvaluator) it is the
// independent oracle the differential tests check Evaluator against and
// the baseline of BenchmarkAblationVectorizedEval; with any other
// equivalence (NewMemberEvaluatorWith) it is the engine for relations
// the vectorized Evaluator has no partition tables for, such as the §6
// state-based isomorphism of package stateiso.
//
// A MemberEvaluator is NOT safe for concurrent use.
type MemberEvaluator struct {
	u *universe.Universe
	// class lists the members isomorphic to member i with respect to P;
	// KnowsF and the common-knowledge fixpoint quantify over it.
	class func(i int, p trace.ProcSet) []int
	// memo maps formula key to the truth vector over members; entries in
	// a vector are lazily filled (0 unknown, 1 true, 2 false).
	memo map[string][]uint8
}

// NewMemberEvaluator builds a per-member evaluator over the universe
// under the paper's computation isomorphism (equal projections).
func NewMemberEvaluator(u *universe.Universe) *MemberEvaluator {
	return NewMemberEvaluatorWith(u, func(i int, p trace.ProcSet) []int {
		return u.ClassRef(u.At(i), p)
	})
}

// NewMemberEvaluatorWith builds a per-member evaluator whose knowledge
// operators quantify over class(i, P). class must be an equivalence:
// the classes it returns partition the members for each P, and every
// member lies in its own class. The returned slices are read, never
// written.
func NewMemberEvaluatorWith(u *universe.Universe, class func(i int, p trace.ProcSet) []int) *MemberEvaluator {
	return &MemberEvaluator{u: u, class: class, memo: make(map[string][]uint8)}
}

// Universe returns the evaluator's universe.
func (e *MemberEvaluator) Universe() *universe.Universe { return e.u }

// HoldsAt evaluates f at the i-th member.
func (e *MemberEvaluator) HoldsAt(f Formula, i int) bool {
	key := f.Key()
	vec, ok := e.memo[key]
	if !ok {
		vec = make([]uint8, e.u.Len())
		e.memo[key] = vec
	}
	switch vec[i] {
	case 1:
		return true
	case 2:
		return false
	}
	v := e.eval(f, i)
	// vec stays current across the recursive eval: commonAt fills the
	// memoized vector in place instead of replacing it wholesale, so
	// every result lands through the one vector created above.
	if v {
		vec[i] = 1
	} else {
		vec[i] = 2
	}
	return v
}

func (e *MemberEvaluator) eval(f Formula, i int) bool {
	switch f := f.(type) {
	case ConstF:
		return f.Value
	case Atom:
		return f.Pred.Holds(e.u.At(i))
	case NotF:
		return !e.HoldsAt(f.F, i)
	case AndF:
		return e.HoldsAt(f.L, i) && e.HoldsAt(f.R, i)
	case OrF:
		return e.HoldsAt(f.L, i) || e.HoldsAt(f.R, i)
	case ImpliesF:
		return !e.HoldsAt(f.L, i) || e.HoldsAt(f.R, i)
	case KnowsF:
		for _, j := range e.class(i, f.P) {
			if !e.HoldsAt(f.F, j) {
				return false
			}
		}
		return true
	case SureF:
		return e.HoldsAt(Knows(f.P, f.F), i) || e.HoldsAt(Knows(f.P, Not(f.F)), i)
	case CommonF:
		return e.commonAt(f, i)
	// Temporal operators recurse along the prefix-extension graph; it is
	// acyclic (every step adds an event), so memoized recursion through
	// HoldsAt terminates without fixpoint iteration.
	case EXF:
		return temporal.NaiveEX(e.u.Transitions(), e.pred(f.F), i)
	case AXF:
		return temporal.NaiveAX(e.u.Transitions(), e.pred(f.F), i)
	case EFF:
		return temporal.NaiveEF(e.u.Transitions(), e.pred(f.F), i)
	case AFF:
		return temporal.NaiveAF(e.u.Transitions(), e.pred(f.F), i)
	case EGF:
		return temporal.NaiveEG(e.u.Transitions(), e.pred(f.F), i)
	case AGF:
		return temporal.NaiveAG(e.u.Transitions(), e.pred(f.F), i)
	case EUF:
		return temporal.NaiveEU(e.u.Transitions(), e.pred(f.L), e.pred(f.R), i)
	case AUF:
		return temporal.NaiveAU(e.u.Transitions(), e.pred(f.L), e.pred(f.R), i)
	case EYF:
		return temporal.NaiveEY(e.u.Transitions(), e.pred(f.F), i)
	case AYF:
		return temporal.NaiveAY(e.u.Transitions(), e.pred(f.F), i)
	case OnceF:
		return temporal.NaiveOnce(e.u.Transitions(), e.pred(f.F), i)
	case HistF:
		return temporal.NaiveHist(e.u.Transitions(), e.pred(f.F), i)
	default:
		panic(fmt.Sprintf("knowledge: unknown formula type %T", f))
	}
}

// pred adapts a subformula to the per-member predicate shape the
// temporal walkers take, keeping the evaluator's memo in the loop.
func (e *MemberEvaluator) pred(f Formula) func(int) bool {
	return func(j int) bool { return e.HoldsAt(f, j) }
}

// commonAt computes common knowledge as the greatest fixpoint of
// S_{k+1} = {x ∈ S_k : F at x ∧ ∀p ∈ D: [p]-class of x ⊆ S_k}. The
// whole truth vector is filled into the memo entry HoldsAt created for
// this formula — in place, never by replacing the slice, so the caller
// frame suspended in HoldsAt still writes into the live vector.
func (e *MemberEvaluator) commonAt(f CommonF, i int) bool {
	n := e.u.Len()
	in := make([]bool, n)
	for j := 0; j < n; j++ {
		in[j] = e.HoldsAt(f.F, j)
	}
	// Fetch each member's singleton classes once up front (read-only
	// refs): the fixpoint loop below revisits every class on every
	// iteration.
	procs := e.u.All().IDs()
	classes := make([][][]int, len(procs))
	for pi, p := range procs {
		classes[pi] = make([][]int, n)
		sp := trace.Singleton(p)
		for j := 0; j < n; j++ {
			classes[pi][j] = e.class(j, sp)
		}
	}
	for changed := true; changed; {
		changed = false
		for j := 0; j < n; j++ {
			if !in[j] {
				continue
			}
			for pi := range procs {
				ok := true
				for _, k := range classes[pi][j] {
					if !in[k] {
						ok = false
						break
					}
				}
				if !ok {
					in[j] = false
					changed = true
					break
				}
			}
		}
	}
	vec := e.memo[f.Key()]
	for j := 0; j < n; j++ {
		if in[j] {
			vec[j] = 1
		} else {
			vec[j] = 2
		}
	}
	return in[i]
}

// Valid reports whether f holds at every member of the universe.
func (e *MemberEvaluator) Valid(f Formula) bool {
	for i := 0; i < e.u.Len(); i++ {
		if !e.HoldsAt(f, i) {
			return false
		}
	}
	return true
}

// EvalNaive evaluates f at member i with no memoization; it exists for
// differential testing and the temporal ablation benchmark's naive arm. It
// shares no machinery with the vectorized Evaluator: common knowledge
// delegates to a fresh MemberEvaluator (the fixpoint is inherently
// global), everything else recurses per member.
func EvalNaive(u *universe.Universe, f Formula, i int) bool {
	switch f := f.(type) {
	case ConstF:
		return f.Value
	case Atom:
		return f.Pred.Holds(u.At(i))
	case NotF:
		return !EvalNaive(u, f.F, i)
	case AndF:
		return EvalNaive(u, f.L, i) && EvalNaive(u, f.R, i)
	case OrF:
		return EvalNaive(u, f.L, i) || EvalNaive(u, f.R, i)
	case ImpliesF:
		return !EvalNaive(u, f.L, i) || EvalNaive(u, f.R, i)
	case KnowsF:
		for _, j := range u.ClassRef(u.At(i), f.P) {
			if !EvalNaive(u, f.F, j) {
				return false
			}
		}
		return true
	case SureF:
		return EvalNaive(u, Knows(f.P, f.F), i) || EvalNaive(u, Knows(f.P, Not(f.F)), i)
	case CommonF:
		return NewMemberEvaluator(u).HoldsAt(f, i)
	case EXF:
		return temporal.NaiveEX(u.Transitions(), naivePred(u, f.F), i)
	case AXF:
		return temporal.NaiveAX(u.Transitions(), naivePred(u, f.F), i)
	case EFF:
		return temporal.NaiveEF(u.Transitions(), naivePred(u, f.F), i)
	case AFF:
		return temporal.NaiveAF(u.Transitions(), naivePred(u, f.F), i)
	case EGF:
		return temporal.NaiveEG(u.Transitions(), naivePred(u, f.F), i)
	case AGF:
		return temporal.NaiveAG(u.Transitions(), naivePred(u, f.F), i)
	case EUF:
		return temporal.NaiveEU(u.Transitions(), naivePred(u, f.L), naivePred(u, f.R), i)
	case AUF:
		return temporal.NaiveAU(u.Transitions(), naivePred(u, f.L), naivePred(u, f.R), i)
	case EYF:
		return temporal.NaiveEY(u.Transitions(), naivePred(u, f.F), i)
	case AYF:
		return temporal.NaiveAY(u.Transitions(), naivePred(u, f.F), i)
	case OnceF:
		return temporal.NaiveOnce(u.Transitions(), naivePred(u, f.F), i)
	case HistF:
		return temporal.NaiveHist(u.Transitions(), naivePred(u, f.F), i)
	default:
		panic(fmt.Sprintf("knowledge: unknown formula type %T", f))
	}
}

func naivePred(u *universe.Universe, f Formula) func(int) bool {
	return func(j int) bool { return EvalNaive(u, f, j) }
}
