package universe

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"hpl/internal/trace"
)

// Partition is the dense decomposition of a universe into isomorphism
// classes with respect to one process set P: x and y share a class
// exactly when x [P] y. It is the set-at-a-time counterpart of Class —
// a precomputed table instead of a string-keyed map — and the substrate
// the vectorized knowledge engine reduces over: (P knows b) is one
// all-reduce per class.
//
// Partitions are immutable once built and safe for concurrent readers.
// Class identifiers are dense, deterministic (assigned in order of
// first occurrence by member index), and independent of how many
// goroutines built the table.
type Partition struct {
	set trace.ProcSet
	// classID maps member index → class identifier.
	classID []int32
	// members maps class identifier → ascending member indexes. The
	// inner slices are views into one shared arena.
	members [][]int
	// byHash maps a projection hash (Computation.ProjectionHash on set)
	// → class identifier, for class lookups of computations outside the
	// universe.
	byHash map[trace.Hash128]int32
}

// Set returns P, the process set the partition refines by.
func (pt *Partition) Set() trace.ProcSet { return pt.set }

// Len reports the number of members partitioned.
func (pt *Partition) Len() int { return len(pt.classID) }

// NumClasses reports the number of isomorphism classes.
func (pt *Partition) NumClasses() int { return len(pt.members) }

// ClassOf returns the class identifier of member i.
func (pt *Partition) ClassOf(i int) int32 { return pt.classID[i] }

// MembersOf returns the ascending member indexes of the class. The
// slice aliases the table and MUST be treated as read-only.
func (pt *Partition) MembersOf(class int32) []int { return pt.members[class] }

// ClassOfHash returns the class whose members have the given projection
// hash (Computation.ProjectionHash on Set); ok is false when no member
// projects to it.
func (pt *Partition) ClassOfHash(h trace.Hash128) (int32, bool) {
	c, ok := pt.byHash[h]
	return c, ok
}

// laneTable holds every member's per-process projection hashes. Lane
// (g, k) of member i is the Hash128 chain of the events on procs[k] of
// σ_g·y_i, where σ_0 is the identity and σ_1… are the other elements of
// the universe's symmetry group (quotients only). A [P]-class key
// combines the lanes of P's processes exactly as
// Computation.ProjectionHash does, so every partition of the universe
// reads this one table instead of re-projecting its members.
type laneTable struct {
	procs []trace.ProcID
	pos   map[trace.ProcID]int
	elems []map[trace.ProcID]trace.ProcID
	// width is the number of lanes per member: len(procs) per group
	// element, identity first.
	width int
	h     []trace.Hash128
}

// projectionLanes returns the universe's lane table, building it on
// first use; every partition build shares it.
func (u *Universe) projectionLanes() *laneTable {
	u.lanesOnce.Do(func() { u.lanes = newLaneTable(u) })
	return u.lanes
}

// newLaneTable computes the lanes in one pass over the members,
// parents first: a member's lanes are its parent member's lanes with
// the last event folded into that event's process lane (and, per group
// element σ, σ applied to the event folded into lane σ(proc)). Only a
// member whose prefix is not a member (hand-built universes) walks its
// own chain instead. Members of equal length never read each other's
// lanes, so each length level fans out across workers.
func newLaneTable(u *Universe) *laneTable {
	procs := u.all.IDs()
	if !u.sorted {
		procs = withEventProcs(u, procs)
	}
	lt := &laneTable{procs: procs, pos: make(map[trace.ProcID]int, len(procs))}
	for k, p := range procs {
		lt.pos[p] = k
	}
	if u.sym != nil {
		lt.elems = u.sym.elements()
	}
	lt.width = (1 + len(lt.elems)) * len(procs)
	n := u.Len()
	lt.h = make([]trace.Hash128, n*lt.width)
	order := parentsFirst(u)
	fill := func(lo, hi int) {
		var chain []*trace.Computation
		for _, i := range order[lo:hi] {
			c := u.At(i)
			row := lt.h[i*lt.width : (i+1)*lt.width]
			last, ok := c.Last()
			pi := -1
			if ok {
				pi = u.IndexOf(c.Parent())
			}
			if pi >= 0 {
				copy(row, lt.h[pi*lt.width:(pi+1)*lt.width])
				lt.fold(row, last)
				continue
			}
			empty := trace.Empty().Hash()
			for k := range row {
				row[k] = empty
			}
			chain = chain[:0]
			for a := c; a.Len() > 0; a = a.Parent() {
				chain = append(chain, a)
			}
			for k := len(chain) - 1; k >= 0; k-- {
				e, _ := chain[k].Last()
				lt.fold(row, e)
			}
		}
	}
	for lo := 0; lo < n; {
		level := u.comps[order[lo]].Len()
		hi := lo + sort.Search(n-lo, func(k int) bool { return u.comps[order[lo+k]].Len() > level })
		forChunks(lo, hi, fill)
		lo = hi
	}
	return lt
}

// fold extends one member's lanes by the event e.
func (lt *laneTable) fold(row []trace.Hash128, e trace.Event) {
	k := lt.pos[e.Proc]
	row[k] = row[k].ExtendEvent(e)
	for g, sigma := range lt.elems {
		re := renameEvent(e, sigma)
		k := (g+1)*len(lt.procs) + lt.pos[re.Proc]
		row[k] = row[k].ExtendEvent(re)
	}
}

// lanePositions returns the lane index of each process of P, in P's
// order; -1 marks a process no member has an event on.
func (lt *laneTable) lanePositions(p trace.ProcSet) []int {
	ids := p.IDs()
	pos := make([]int, len(ids))
	for j, id := range ids {
		if k, ok := lt.pos[id]; ok {
			pos[j] = k
		} else {
			pos[j] = -1
		}
	}
	return pos
}

// classKey combines member i's lanes under group element g for the
// processes at pos: Computation.ProjectionHash of σ_g·y_i.
func (lt *laneTable) classKey(i, g int, pos []int) trace.Hash128 {
	empty := trace.Empty().Hash()
	row := lt.h[i*lt.width+g*len(lt.procs):]
	h := empty
	for _, k := range pos {
		if k < 0 {
			h = h.CombineLane(empty)
		} else {
			h = h.CombineLane(row[k])
		}
	}
	return h
}

// parentsFirst returns the member indexes in ascending length — the
// identity for canonically sorted universes — so every member comes
// after its one-event-shorter prefix.
func parentsFirst(u *Universe) []int {
	order := make([]int, u.Len())
	for i := range order {
		order[i] = i
	}
	if !u.sorted {
		sort.SliceStable(order, func(a, b int) bool { return u.comps[order[a]].Len() < u.comps[order[b]].Len() })
	}
	return order
}

// withEventProcs extends procs by every process a member has an event
// on: hand-built universes may hold events outside their declared D.
func withEventProcs(u *Universe, procs []trace.ProcID) []trace.ProcID {
	seen := make(map[trace.ProcID]bool, len(procs))
	for _, p := range procs {
		seen[p] = true
	}
	for _, c := range u.comps {
		for a := c; a.Len() > 0; a = a.Parent() {
			if e, _ := a.Last(); !seen[e.Proc] {
				seen[e.Proc] = true
				procs = append(procs, e.Proc)
			}
		}
	}
	return procs
}

// NewPartition builds the [P]-partition of the universe without
// consulting or populating the universe's partition cache (the lane
// table it reads is shared). Prefer Universe.Partition, which builds
// each table once and shares it; NewPartition exists for the
// partition-table benchmarks and for tests that need a fresh table.
//
// Classes are keyed by projection hash. Under WithHashVerify every
// member's ProjectionKey is checked against its class's first member,
// and a mismatch panics with an error wrapping ErrHashCollision.
func NewPartition(u *Universe, p trace.ProcSet) *Partition {
	lt := u.projectionLanes()
	var pt *Partition
	if u.sym != nil {
		pt = newQuotientPartition(u, lt, p)
	} else {
		pt = newFullPartition(u, lt, p)
	}
	if u.verify {
		if err := pt.verify(u, lt); err != nil {
			panic(err)
		}
	}
	return pt
}

func newFullPartition(u *Universe, lt *laneTable, p trace.ProcSet) *Partition {
	n := u.Len()
	pt := &Partition{
		set:     p,
		classID: make([]int32, n),
		byHash:  make(map[trace.Hash128]int32),
	}
	pos := lt.lanePositions(p)
	// Class c is the c-th distinct projection hash by member order.
	var counts []int32
	for i := 0; i < n; i++ {
		key := lt.classKey(i, 0, pos)
		c, ok := pt.byHash[key]
		if !ok {
			c = int32(len(counts))
			pt.byHash[key] = c
			counts = append(counts, 0)
		}
		pt.classID[i] = c
		counts[c]++
	}
	pt.members = layoutMembers(pt.classID, counts)
	return pt
}

// layoutMembers lays the member lists out in one arena, classes back to
// back, each ascending; counts[c] is the size of class c.
func layoutMembers(classID, counts []int32) [][]int {
	arena := make([]int, len(classID))
	members := make([][]int, len(counts))
	off := int32(0)
	for c, cnt := range counts {
		members[c] = arena[off : off : off+cnt]
		off += cnt
	}
	for i, c := range classID {
		members[c] = append(members[c], i)
	}
	return members
}

// newQuotientPartition builds the [P]-partition of a symmetry quotient.
// Quotient members stand for whole renaming orbits, so the relation has
// to be read through the orbits: member j is related to projection key
// k exactly when SOME renaming σ·y_j projects to k. Each member is
// therefore listed under the projection hash of σ·y_j for every group
// element σ — "twisted" listings — so classes may overlap; a member's
// own class (ClassOf) is the one keyed by its identity projection.
//
// For an invariant P (the only kind knowledge.Evaluator admits for K_P;
// see Symmetry.Invariant) any two classes sharing a member coincide as
// sets — renaming permutes the full [P]-classes and preserves orbits —
// which is what keeps the per-class all-reduce in the knowledge engine
// sound without modification. For non-invariant P (the per-process
// singletons the common-knowledge fixpoint iterates over) overlapping
// classes encode exactly the relation-through-renaming the quotient
// fixpoint needs: evicting a twisted class corresponds to evicting via
// some renamed process's relation, all of which D contains.
func newQuotientPartition(u *Universe, lt *laneTable, p trace.ProcSet) *Partition {
	n := u.Len()
	pt := &Partition{
		set:     p,
		classID: make([]int32, n),
		byHash:  make(map[trace.Hash128]int32),
	}
	pos := lt.lanePositions(p)
	groups := 1 + len(lt.elems)
	var classes [][]int
	keys := make([]trace.Hash128, 0, groups)
	for i := 0; i < n; i++ {
		keys = keys[:0]
		for g := 0; g < groups; g++ {
			if k := lt.classKey(i, g, pos); !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
		for j, k := range keys {
			cl, ok := pt.byHash[k]
			if !ok {
				cl = int32(len(classes))
				pt.byHash[k] = cl
				classes = append(classes, nil)
			}
			if j == 0 {
				pt.classID[i] = cl
			}
			classes[cl] = append(classes[cl], i)
		}
	}
	pt.members = classes
	return pt
}

// verify checks the hash-keyed classes against the string reference:
// every listing of a member in a class — under each group element whose
// projection hash keys that class — must have the ProjectionKey of the
// class's first listing. A mismatch is a projection-hash collision.
func (pt *Partition) verify(u *Universe, lt *laneTable) error {
	keyOf := make([]trace.Hash128, len(pt.members))
	for k, c := range pt.byHash {
		keyOf[c] = k
	}
	pos := lt.lanePositions(pt.set)
	var arena trace.Arena
	for c, ms := range pt.members {
		want, first := "", -1
		for _, i := range ms {
			for g := 0; g <= len(lt.elems); g++ {
				if lt.classKey(i, g, pos) != keyOf[c] {
					continue
				}
				got := lt.renamed(&arena, u.At(i), g).ProjectionKey(pt.set)
				if first < 0 {
					want, first = got, i
				} else if got != want {
					return fmt.Errorf("%w: [%v] class %d holds members %d (%q) and %d (%q)",
						ErrHashCollision, pt.set, c, first, want, i, got)
				}
			}
		}
	}
	return nil
}

// renamed returns σ_g·c, rebuilt event by event (the identity for g=0).
func (lt *laneTable) renamed(arena *trace.Arena, c *trace.Computation, g int) *trace.Computation {
	if g == 0 {
		return c
	}
	rc := trace.Empty()
	for _, e := range c.Events() {
		rc = arena.Extend(rc, renameEvent(e, lt.elems[g-1]))
	}
	return rc
}

// Partition returns the [P]-partition of the universe, building it on
// first use. Tables are cached per process set; concurrent callers
// share one build. This is the set-at-a-time view of Class: for a
// member i, MembersOf(ClassOf(i)) is exactly Class(At(i), P).
func (u *Universe) Partition(p trace.ProcSet) *Partition {
	k := p.Key()
	v, ok := u.parts.Load(k)
	if !ok {
		v, _ = u.parts.LoadOrStore(k, &partitionCell{})
	}
	cell := v.(*partitionCell)
	cell.once.Do(func() {
		sp := u.tr.Start("partition.build")
		cell.pt.Store(NewPartition(u, p))
		phasePartition.ObserveDuration(sp.End())
	})
	return cell.pt.Load()
}

// partitionCell delays a cached partition's construction until exactly
// one caller runs it; LoadOrStore may race cells, but every loser
// discards its empty cell before any build starts. The table is
// published through an atomic pointer (inside the once) so concurrent
// peekers (the snapshot writer) observe completed builds only.
type partitionCell struct {
	once sync.Once
	pt   atomic.Pointer[Partition]
}

// partitionsIfBuilt returns the partition tables whose builds have
// completed, without triggering any. The snapshot writer enumerates
// built tables through this so it never races a build in progress.
func (u *Universe) partitionsIfBuilt() []*Partition {
	var out []*Partition
	u.parts.Range(func(_, v any) bool {
		if pt := v.(*partitionCell).pt.Load(); pt != nil {
			out = append(out, pt)
		}
		return true
	})
	return out
}

// installPartition places a snapshot-loaded table into the universe's
// partition cache; a table already built (or being built) for the same
// process set wins instead.
func (u *Universe) installPartition(pt *Partition) {
	v, _ := u.parts.LoadOrStore(pt.set.Key(), &partitionCell{})
	cell := v.(*partitionCell)
	cell.once.Do(func() { cell.pt.Store(pt) })
}
