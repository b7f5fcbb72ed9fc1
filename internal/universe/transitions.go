package universe

import (
	"runtime"
	"sort"
	"sync"

	"hpl/internal/trace"
)

// Transitions is the prefix-extension transition graph of a universe:
// member i steps to member j exactly when computation j extends
// computation i by one event. On the prefix-closed universes produced by
// EnumerateWith this is the complete one-step reachability structure of
// the system — the substrate the temporal layer (internal/temporal)
// computes CTL fixpoints over. Because an extension appends exactly one
// event, every member has at most one predecessor (its one-event-shorter
// prefix), so the graph is a forest rooted at the computations whose
// prefix is not a member (just the null computation, when the universe
// is prefix closed).
//
// The graph is stored as a CSR-style adjacency arena: a dense parent
// array is the reverse relation, and forward successor lists are laid
// out back to back in one slice, grouped by source and addressed by
// offsets. Each edge is labelled with the process that performs the
// extending event, so per-process step relations need no event
// inspection. Transitions are immutable once built and safe for
// concurrent readers; build them through Universe.Transitions, which
// constructs the graph once (in parallel) and shares it, alongside the
// Partition tables, between every evaluator over the universe.
type Transitions struct {
	// parent[j] is the member index of j's one-event-shorter prefix, or
	// -1 when that prefix is not a member of the universe.
	parent []int32
	// label[j] is the index (into procs) of the process whose event
	// extends parent[j] to j; -1 when j has no parent edge.
	label []int32
	// succOff/succ are the CSR forward adjacency: the successors of i
	// are succ[succOff[i]:succOff[i+1]], ascending. succLab carries the
	// matching edge labels.
	succOff []int32
	succ    []int32
	succLab []int32
	// order lists member indexes in ascending event count: a topological
	// order of the graph (every edge adds one event), which lets the
	// temporal fixpoints run as single sweeps instead of iterating.
	order []int32
	// procs indexes the edge labels.
	procs []trace.ProcID
}

// Len reports the number of members (vertices).
func (t *Transitions) Len() int { return len(t.parent) }

// NumEdges reports the number of one-event-extension edges.
func (t *Transitions) NumEdges() int { return len(t.succ) }

// Parent returns the member index of i's one-event-shorter prefix, or
// -1 when the prefix is not a member (only the null computation, on
// prefix-closed universes).
func (t *Transitions) Parent(i int) int { return int(t.parent[i]) }

// Label returns the process performing the event that extends
// Parent(i) to i; ok is false when i has no parent edge.
func (t *Transitions) Label(i int) (trace.ProcID, bool) {
	if t.label[i] < 0 {
		return "", false
	}
	return t.procs[t.label[i]], true
}

// Succ returns the member indexes reached from i by one extension
// event, ascending. The slice aliases the arena and MUST be treated as
// read-only.
func (t *Transitions) Succ(i int) []int32 { return t.succ[t.succOff[i]:t.succOff[i+1]] }

// SuccOn returns the successors of i whose extending event is on
// process p. The slice is freshly allocated.
func (t *Transitions) SuccOn(i int, p trace.ProcID) []int32 {
	var out []int32
	for k := t.succOff[i]; k < t.succOff[i+1]; k++ {
		if t.procs[t.succLab[k]] == p {
			out = append(out, t.succ[k])
		}
	}
	return out
}

// HasSucc reports whether i has at least one extension in the universe
// (false exactly at the maximal computations of the event bound).
func (t *Transitions) HasSucc(i int) bool { return t.succOff[i] < t.succOff[i+1] }

// Order returns the member indexes in ascending event count — a
// topological order of the extension edges. The slice aliases the graph
// and MUST be treated as read-only.
func (t *Transitions) Order() []int32 { return t.order }

// NewTransitions builds the prefix-extension graph of the universe
// without consulting or populating the universe's cache. Prefer
// Universe.Transitions, which builds the graph once and shares it;
// NewTransitions exists for the construction benchmark and for tests
// that need a fresh graph.
func NewTransitions(u *Universe) *Transitions {
	n := u.Len()
	procs := u.All().IDs()
	procIdx := make(map[trace.ProcID]int32, len(procs))
	for i, p := range procs {
		procIdx[p] = int32(i)
	}
	t := &Transitions{
		parent: make([]int32, n),
		label:  make([]int32, n),
		procs:  procs,
	}
	// With the persistent prefix-tree representation the enumeration
	// search tree IS this graph: a member's one-event-shorter prefix is
	// literally its Parent pointer, so resolution is one read-only hash
	// probe per member — no key surgery, no string retention. Each
	// member resolves independently; fan the resolution out.
	resolve := func(lo, hi int) {
		for j := lo; j < hi; j++ {
			c := u.At(j)
			t.parent[j], t.label[j] = -1, -1
			last, ok := c.Last()
			if !ok {
				continue
			}
			if i := u.IndexOf(c.Parent()); i >= 0 {
				t.parent[j] = int32(i)
				if li, ok := procIdx[last.Proc]; ok {
					t.label[j] = li
				}
			}
		}
	}
	forChunks(0, n, resolve)
	t.buildForward()
	// Topological order: ascending event count. Enumerated universes
	// are already canonically sorted by (length, hash), making identity
	// (buildForward's default) correct; hand-built (New) universes still
	// sort.
	if !u.sorted {
		sort.SliceStable(t.order, func(a, b int) bool {
			return u.At(int(t.order[a])).Len() < u.At(int(t.order[b])).Len()
		})
	}
	return t
}

// forChunks runs fn over [lo, hi) split into chunks of 1024, the chunks
// in parallel when GOMAXPROCS allows and there are at least two; fn must
// be safe to run on disjoint ranges concurrently.
func forChunks(lo, hi int, fn func(lo, hi int)) {
	const chunk = 1024
	if runtime.GOMAXPROCS(0) == 1 || hi-lo < 2*chunk {
		fn(lo, hi)
		return
	}
	var wg sync.WaitGroup
	for ; lo < hi; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+chunk, hi))
	}
	wg.Wait()
}

// buildForward derives the CSR forward adjacency from the parent/label
// arrays — a counting sort, shared by NewTransitions and the snapshot
// loader (which persists only the reverse relation) — and initializes
// the topological order to the identity.
func (t *Transitions) buildForward() {
	n := len(t.parent)
	// Member indexes ascend within each group because j ascends.
	counts := make([]int32, n+1)
	for _, p := range t.parent {
		if p >= 0 {
			counts[p]++
		}
	}
	t.succOff = make([]int32, n+1)
	for i := 0; i < n; i++ {
		t.succOff[i+1] = t.succOff[i] + counts[i]
	}
	edges := int(t.succOff[n])
	t.succ = make([]int32, edges)
	t.succLab = make([]int32, edges)
	next := make([]int32, n)
	copy(next, t.succOff[:n])
	for j := 0; j < n; j++ {
		p := t.parent[j]
		if p < 0 {
			continue
		}
		t.succ[next[p]] = int32(j)
		t.succLab[next[p]] = t.label[j]
		next[p]++
	}
	t.order = make([]int32, n)
	for i := range t.order {
		t.order[i] = int32(i)
	}
}

// Transitions returns the universe's prefix-extension transition graph,
// building it on first use. Concurrent callers share one build.
func (u *Universe) Transitions() *Transitions {
	u.transOnce.Do(func() {
		sp := u.tr.Start("transitions.build")
		u.trans.Store(NewTransitions(u))
		phaseTransitions.ObserveDuration(sp.End())
	})
	return u.trans.Load()
}

// transitionsIfBuilt returns the cached graph without building one:
// non-nil exactly when some caller has completed Transitions (or a
// snapshot load installed it). The snapshot writer peeks through this
// so it never races a build in progress.
func (u *Universe) transitionsIfBuilt() *Transitions { return u.trans.Load() }
