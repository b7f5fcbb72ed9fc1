// Package stateiso implements the paper's §6 generalization: "we can
// define isomorphism based on states of processes, rather than
// computations … Most of the results in this paper are applicable in the
// first case."
//
// An Abstraction maps each process's projection to a state key; two
// computations are state-isomorphic with respect to P when every member
// of P is in the same abstract state in both. With the FullHistory
// abstraction this coincides with the paper's computation-based
// isomorphism; coarser abstractions (event counters, last event) forget
// history.
//
// What survives abstraction, as machine-checked by this package:
//
//   - the S5-style knowledge facts (K2–K11) hold for EVERY abstraction,
//     because they only need [P] to be an equivalence relation;
//   - abstract knowledge implies computation knowledge (coarser classes
//     are supersets), so abstraction is sound for positive knowledge;
//   - Theorem 3 / Lemma 4 (receive cannot lose knowledge) can FAIL under
//     lossy abstractions — a receive may merge the current state with
//     states of less-informed histories. FindLemma4Violation exhibits
//     counterexamples, quantifying the paper's "most".
package stateiso

import (
	"fmt"
	"strconv"
	"strings"

	"hpl/internal/knowledge"
	"hpl/internal/trace"
	"hpl/internal/universe"
)

// Abstraction maps a process's projection to a state key. Keys are
// compared for equality only. Abstractions must be deterministic.
type Abstraction struct {
	name string
	fn   func(p trace.ProcID, projection []trace.Event) string
}

// NewAbstraction builds a named abstraction.
func NewAbstraction(name string, fn func(trace.ProcID, []trace.Event) string) Abstraction {
	return Abstraction{name: name, fn: fn}
}

// Name returns the abstraction's name.
func (a Abstraction) Name() string { return a.name }

// StateOf applies the abstraction to one process's projection.
func (a Abstraction) StateOf(p trace.ProcID, projection []trace.Event) string {
	return a.fn(p, projection)
}

// FullHistory is the identity abstraction: the state is the entire
// projection. State isomorphism under FullHistory is exactly the paper's
// computation isomorphism.
func FullHistory() Abstraction {
	return NewAbstraction("full-history", func(_ trace.ProcID, proj []trace.Event) string {
		var b strings.Builder
		for _, e := range proj {
			b.WriteString(e.LocalKey())
			b.WriteByte(';')
		}
		return b.String()
	})
}

// Counters abstracts a projection to its event-kind counts: the process
// remembers how many sends, receives, and internal events it performed,
// but not their order, targets, or payloads.
func Counters() Abstraction {
	return NewAbstraction("counters", func(_ trace.ProcID, proj []trace.Event) string {
		var s, r, i int
		for _, e := range proj {
			switch e.Kind {
			case trace.KindSend:
				s++
			case trace.KindReceive:
				r++
			case trace.KindInternal:
				i++
			}
		}
		return "s" + strconv.Itoa(s) + "r" + strconv.Itoa(r) + "i" + strconv.Itoa(i)
	})
}

// LastEvent abstracts a projection to its final event (or "" when the
// process has not acted): a memoryless process.
func LastEvent() Abstraction {
	return NewAbstraction("last-event", func(_ trace.ProcID, proj []trace.Event) string {
		if len(proj) == 0 {
			return ""
		}
		return proj[len(proj)-1].LocalKey()
	})
}

// Evaluator evaluates knowledge formulas under state-based isomorphism
// over a universe: a knowledge.MemberEvaluator whose classes are the
// abstract relation's instead of projection equality's.
type Evaluator struct {
	abs Abstraction
	// stateKeys[i][p] is the abstract state of process p at member i.
	stateKeys []map[trace.ProcID]string
	// classes[P.Key()][combined-state-key] lists member indexes.
	classes map[string]map[string][]int
	me      *knowledge.MemberEvaluator
}

// NewEvaluator builds a state-based evaluator.
func NewEvaluator(u *universe.Universe, abs Abstraction) *Evaluator {
	e := &Evaluator{
		abs:       abs,
		stateKeys: make([]map[trace.ProcID]string, u.Len()),
		classes:   make(map[string]map[string][]int),
	}
	e.me = knowledge.NewMemberEvaluatorWith(u, e.Class)
	procs := u.All().IDs()
	for i := 0; i < u.Len(); i++ {
		c := u.At(i)
		m := make(map[trace.ProcID]string, len(procs))
		for _, p := range procs {
			m[p] = abs.StateOf(p, c.Projection(trace.Singleton(p)))
		}
		e.stateKeys[i] = m
	}
	return e
}

// Universe returns the underlying universe.
func (e *Evaluator) Universe() *universe.Universe { return e.me.Universe() }

// Abstraction returns the evaluator's abstraction.
func (e *Evaluator) Abstraction() Abstraction { return e.abs }

// stateKeyOf returns the combined state key of member i for process set P.
func (e *Evaluator) stateKeyOf(i int, p trace.ProcSet) string {
	var b strings.Builder
	for _, id := range p.IDs() {
		b.WriteString(string(id))
		b.WriteByte('=')
		b.WriteString(e.stateKeys[i][id])
		b.WriteByte('|')
	}
	return b.String()
}

// Class returns the members state-isomorphic to member i with respect to
// P: every process in P is in the same abstract state.
func (e *Evaluator) Class(i int, p trace.ProcSet) []int {
	key := p.Key()
	idx, ok := e.classes[key]
	if !ok {
		idx = make(map[string][]int)
		for j := 0; j < e.Universe().Len(); j++ {
			sk := e.stateKeyOf(j, p)
			idx[sk] = append(idx[sk], j)
		}
		e.classes[key] = idx
	}
	return idx[e.stateKeyOf(i, p)]
}

// Isomorphic reports state isomorphism of members i and j w.r.t. P.
func (e *Evaluator) Isomorphic(i, j int, p trace.ProcSet) bool {
	return e.stateKeyOf(i, p) == e.stateKeyOf(j, p)
}

// HoldsAt evaluates a formula at member i under the abstract relation:
// Knows/Sure/Common quantify over abstract classes, temporal operators
// walk the universe's transition graph.
func (e *Evaluator) HoldsAt(f knowledge.Formula, i int) bool { return e.me.HoldsAt(f, i) }

// Valid reports whether f holds at every member.
func (e *Evaluator) Valid(f knowledge.Formula) bool { return e.me.Valid(f) }

// --- Checks: what survives abstraction ---

// CheckEquivalenceFacts verifies the abstraction-independent knowledge
// facts (the analogues of facts 2–8, 10, 11 of §4.1) under the abstract
// relation. These hold for any abstraction because the abstract relation
// is still an equivalence.
func CheckEquivalenceFacts(e *Evaluator, p, q trace.ProcSet, b, b2 knowledge.Formula) error {
	kb := knowledge.Knows(p, b)
	for i := 0; i < e.Universe().Len(); i++ {
		// Fact 2: invariance within the class.
		for _, j := range e.Class(i, p) {
			if e.HoldsAt(kb, i) != e.HoldsAt(kb, j) {
				return fmt.Errorf("stateiso: fact 2 fails (%s) between %d and %d", e.abs.Name(), i, j)
			}
		}
		// Fact 3: monotone in the process set.
		if e.HoldsAt(kb, i) && !e.HoldsAt(knowledge.Knows(p.Union(q), b), i) {
			return fmt.Errorf("stateiso: fact 3 fails (%s) at %d", e.abs.Name(), i)
		}
		// Fact 4: veridicality.
		if e.HoldsAt(kb, i) && !e.HoldsAt(b, i) {
			return fmt.Errorf("stateiso: fact 4 fails (%s) at %d", e.abs.Name(), i)
		}
		// Fact 6: conjunction.
		lhs := e.HoldsAt(kb, i) && e.HoldsAt(knowledge.Knows(p, b2), i)
		if lhs != e.HoldsAt(knowledge.Knows(p, knowledge.And(b, b2)), i) {
			return fmt.Errorf("stateiso: fact 6 fails (%s) at %d", e.abs.Name(), i)
		}
		// Fact 8: consistency.
		if e.HoldsAt(knowledge.Knows(p, knowledge.Not(b)), i) && e.HoldsAt(kb, i) {
			return fmt.Errorf("stateiso: fact 8 fails (%s) at %d", e.abs.Name(), i)
		}
		// Fact 10: positive introspection.
		if e.HoldsAt(knowledge.Knows(p, kb), i) != e.HoldsAt(kb, i) {
			return fmt.Errorf("stateiso: fact 10 fails (%s) at %d", e.abs.Name(), i)
		}
		// Fact 11: negative introspection (Lemma 2).
		if e.HoldsAt(knowledge.Knows(p, knowledge.Not(kb)), i) != !e.HoldsAt(kb, i) {
			return fmt.Errorf("stateiso: fact 11 fails (%s) at %d", e.abs.Name(), i)
		}
	}
	return nil
}

// CheckAbstractionSound verifies: (P knows b) under the abstraction
// implies (P knows b) under computation isomorphism, at every member —
// abstract classes are supersets of concrete classes, so abstract
// knowledge is harder to attain but always sound.
func CheckAbstractionSound(abstract *Evaluator, concrete *knowledge.Evaluator, p trace.ProcSet, b knowledge.Formula) error {
	kb := knowledge.Knows(p, b)
	u := abstract.Universe()
	for i := 0; i < u.Len(); i++ {
		if abstract.HoldsAt(kb, i) && !concrete.HoldsAt(kb, i) {
			return fmt.Errorf("stateiso: abstraction %s unsound at member %d", abstract.abs.Name(), i)
		}
	}
	return nil
}

// Lemma4Violation describes a failure of the receive-cannot-lose-
// knowledge law under a lossy abstraction.
type Lemma4Violation struct {
	// MemberX and MemberXE are the universe indexes of x and (x;e).
	MemberX, MemberXE int
	// Event is the receive that destroyed knowledge.
	Event trace.Event
}

// FindLemma4Violation searches for a member (x;e), e a receive on P,
// where P knows b at x but not at (x;e) under the abstraction — the part
// of the paper that does NOT survive lossy state abstraction. It returns
// nil when the law holds throughout the universe (e.g. for FullHistory).
func FindLemma4Violation(e *Evaluator, p trace.ProcSet, b knowledge.Formula) *Lemma4Violation {
	kb := knowledge.Knows(p, b)
	u := e.Universe()
	for i := 0; i < u.Len(); i++ {
		xe := u.At(i)
		if xe.Len() == 0 {
			continue
		}
		ev := xe.At(xe.Len() - 1)
		if ev.Kind != trace.KindReceive || !ev.IsOn(p) {
			continue
		}
		xi := u.IndexOf(xe.Prefix(xe.Len() - 1))
		if xi < 0 {
			continue
		}
		if e.HoldsAt(kb, xi) && !e.HoldsAt(kb, i) {
			return &Lemma4Violation{MemberX: xi, MemberXE: i, Event: ev}
		}
	}
	return nil
}
