package universe

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hpl/internal/trace"
)

// The enumeration engine is an iterative frontier search run by a pool
// of workers, rebuilt around structural sharing and incremental state:
//
//   - A frontier node is a computation in the persistent prefix-tree
//     representation (child = parent + one event; see trace.Computation)
//     plus the int32 identifier of its interned local-state vector.
//     Expanding a node never replays or copies its event history: one
//     allocation-free walk of the parent chain recovers the per-process
//     event counts, send counters, and in-flight messages.
//   - Children are constructed unchecked through per-worker arenas —
//     the engine's events are canonical by construction — with event
//     and message identifiers taken from tables precomputed up to the
//     event bound, so child construction allocates no strings.
//   - Dedup is keyed on the incrementally-extended 128-bit canonical
//     hash in sharded open-addressing tables (see hashTable); no string
//     key is ever computed or retained. WithHashVerify upgrades the
//     ~2^-128 collision assumption to a checked invariant.
//   - Workers pop nodes and push children in batches, so queue lock
//     traffic is amortized over dozens of expansions.
//   - Protocol transitions (Steps/AfterStep/Deliver) are cached per
//     worker keyed by interned state-vector identifiers: a Protocol is
//     one finite state machine per process, so its transition functions
//     are pure in (process, state) and each distinct transition is
//     computed once per worker.
//
// The emitted set is independent of worker count and of scheduling; the
// final universe is canonicalized by sorting members by (length, hash),
// so enumeration with any parallelism yields byte-identical results —
// same member order, hence identical Partition tables and Transitions
// graph. The differential tests in differential_test.go hold the engine
// to that contract, against both its own sequential runs and a
// replay-based reference enumerator.

// enode is one work item of the frontier: a computation plus its
// interned local-state vector. Under WithSymmetry it also carries the
// computation's support mask — bit i set when procs[i] appears as the
// Proc or Peer of some event — which identifies the node's stabilizer
// (the pointwise stabilizer of the support) and hence its orbit size.
type enode struct {
	comp *trace.Computation
	sv   int32
	mask uint64
}

// dedupShard is one lock-striped open-addressing table of the global
// seen set.
type dedupShard struct {
	mu sync.Mutex
	t  hashTable
}

type engine struct {
	p     Protocol
	cfg   config
	procs []trace.ProcID
	// procIdx indexes procs by identifier.
	procIdx map[trace.ProcID]int32
	// eventIDs[p][k] / msgIDs[p][k] are the canonical identifiers of
	// the k-th event on / message from procs[p], precomputed up to the
	// event bound so child construction allocates no strings.
	eventIDs [][]trace.EventID
	msgIDs   [][]trace.MsgID
	states   *stateTable

	// grp is the compiled symmetry group under WithSymmetry, nil
	// otherwise. When set, expand keeps only the orbit-canonical child
	// of each sibling orbit (see symCanonical), so the engine emits one
	// representative per renaming orbit.
	grp *symGroup

	// noEmitLen marks the seed horizon of an extension run: nodes of
	// that length or shorter are expanded but neither claimed nor
	// emitted — they are already members of the universe being extended.
	// -1 for from-scratch runs, so the null computation is emitted.
	noEmitLen int

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []enode
	active  int
	stopped bool
	stopErr error

	shards   []dedupShard
	emitted  atomic.Int64
	frontier atomic.Int64

	// Symmetry-filter totals, flushed from worker-local counters when
	// each worker retires; symNanos is measured only under WithTrace.
	symCheckN  atomic.Int64
	symRejectN atomic.Int64
	symNanos   atomic.Int64

	// progMu serializes the user's progress callback.
	progMu sync.Mutex

	// outs collects emitted nodes per worker; merged and sorted once the
	// pool drains. Keeping the whole node (not just the computation)
	// preserves each member's interned state vector, which Extend needs
	// to re-seed the next frontier without replaying the protocol.
	outs [][]enode
}

// worker holds one worker's arena, scratch buffers, and lock-free
// caches over the engine's shared state table.
type worker struct {
	e     *engine
	id    int
	arena trace.Arena

	batch    []enode
	children []enode

	// Chain-walk scratch, reused across expansions.
	evCount  []int32
	nextMsg  []int32
	inflight []trace.Event
	received []trace.MsgID

	// Worker-local caches; entries are immutable once computed, so no
	// locks after warmup.
	vecs    map[int32][]string
	steps   map[stepsKey][]Action
	stepSV  map[actKey]int32
	delivSV map[delivKey]int32
	// stabCache caches, per support mask, the non-identity group
	// elements fixing every supported process — the stabilizer expand
	// filters children against. Nil unless the engine has a group.
	stabCache map[uint64][]int32

	svScratch []string
	buf       []byte

	// Symmetry-filter tallies, local so the hot path pays plain
	// increments; flushed into the engine once when the worker retires.
	symChecks  int64
	symRejects int64
	symNanos   int64
}

type stepsKey struct{ sv, proc int32 }

type actKey struct{ sv, proc, act int32 }

type delivKey struct {
	sv, dst, from int32
	tag           string
}

// EnumerateWith exhaustively generates every computation of the protocol
// under the given options (including the empty computation and every
// prefix, since the search tree is rooted at null). Without options it
// uses DefaultMaxEvents, no cap, and a single worker.
//
// The resulting universe is canonical: members are ordered by event
// count, then 128-bit canonical hash, so the result is identical for
// every parallelism level. Enumeration fails with ErrTooLarge when the
// universe exceeds the WithCap bound, and with ctx.Err() when the
// WithContext context is cancelled.
func EnumerateWith(p Protocol, opts ...Option) (*Universe, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return enumerate(p, cfg, nil)
}

// seedState re-seeds an enumeration from an existing universe: svs[i]
// is the interned identifier (in states) of base member i's local-state
// vector. Extend constructs it; enumerate consumes it by queueing the
// base's frontier — its members of exactly maxEvents length — instead
// of the null computation. Completeness below the old bound is what
// makes this sound: a bound-n universe contains every computation of
// length < n together with all of their children, so only the length-n
// members have unexplored extensions.
type seedState struct {
	base   *Universe
	states *stateTable
	svs    []int32
}

// enumerate is the engine body shared by EnumerateWith (seed == nil)
// and Extend.
func enumerate(p Protocol, cfg config, seed *seedState) (*Universe, error) {
	procs := p.Procs()
	all := trace.NewProcSet(procs...)
	n := len(procs)
	procIdx := make(map[trace.ProcID]int32, n)
	for i, id := range procs {
		procIdx[id] = int32(i)
	}
	grp, err := newSymGroup(cfg.sym, procs, procIdx)
	if err != nil {
		return nil, err
	}
	if grp != nil {
		// The root (empty computation) must be stabilized by the whole
		// group, which reduces to equal initial states within each class.
		// Equivariance of Steps/AfterStep/Deliver cannot be checked here
		// and remains the caller's assertion.
		for _, cl := range cfg.sym.classes {
			init0 := p.Init(cl[0])
			for _, q := range cl[1:] {
				if p.Init(q) != init0 {
					return nil, fmt.Errorf("universe: symmetry class %v is not interchangeable: Init(%s)=%q but Init(%s)=%q",
						cl, cl[0], init0, q, p.Init(q))
				}
			}
		}
	}
	// The ID tables are capped: a pathological WithMaxEvents (user
	// flags reach it) must not allocate maxEvents strings per process
	// up front when the reachable universe is far smaller. Positions
	// past the cap fall back to on-demand construction — still correct,
	// just not allocation-free.
	idTableLen := cfg.maxEvents
	if idTableLen > idTableMax {
		idTableLen = idTableMax
	}
	eventIDs := make([][]trace.EventID, n)
	msgIDs := make([][]trace.MsgID, n)
	for i, id := range procs {
		eventIDs[i] = make([]trace.EventID, idTableLen)
		msgIDs[i] = make([]trace.MsgID, idTableLen)
		for k := 0; k < idTableLen; k++ {
			eventIDs[i][k] = trace.NewEventID(id, k)
			msgIDs[i][k] = trace.NewMsgID(id, k)
		}
	}

	states := newStateTable()
	if seed != nil {
		states = seed.states
	}

	nshards := 1
	if cfg.parallelism > 1 {
		nshards = 64
	}
	e := &engine{
		p:         p,
		cfg:       cfg,
		procs:     procs,
		procIdx:   procIdx,
		eventIDs:  eventIDs,
		msgIDs:    msgIDs,
		states:    states,
		grp:       grp,
		noEmitLen: -1,
		shards:    make([]dedupShard, nshards),
		outs:      make([][]enode, cfg.parallelism),
	}
	for i := range e.shards {
		e.shards[i].t = newHashTable(cfg.hashVerify)
	}
	e.cond = sync.NewCond(&e.mu)
	if seed != nil {
		// Queue the old frontier. Every new member has length above the
		// seed horizon while every old member is at or below it, so the
		// fresh (empty) dedup shards are sound: no new computation can
		// collide with an old one on (hash, length). The emit counter
		// starts at the base size so cap and progress semantics match a
		// from-scratch run of the larger bound.
		e.noEmitLen = seed.base.maxEvents
		e.emitted.Store(int64(seed.base.Len()))
		for i := 0; i < seed.base.Len(); i++ {
			if c := seed.base.At(i); c.Len() == seed.base.maxEvents {
				nd := enode{comp: c, sv: seed.svs[i]}
				if grp != nil {
					nd.mask = e.supportMask(c)
				}
				e.queue = append(e.queue, nd)
			}
		}
	} else {
		vec0 := make([]string, n)
		for i, id := range procs {
			vec0[i] = p.Init(id)
		}
		sv0, _ := states.intern(vec0, nil)
		e.queue = []enode{{comp: trace.Empty(), sv: sv0}}
	}
	e.frontier.Store(int64(len(e.queue)))

	var wg sync.WaitGroup
	for w := 0; w < cfg.parallelism; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := &worker{
				e:       e,
				id:      w,
				evCount: make([]int32, n),
				nextMsg: make([]int32, n),
				vecs:    make(map[int32][]string),
				steps:   make(map[stepsKey][]Action),
				stepSV:  make(map[actKey]int32),
				delivSV: make(map[delivKey]int32),
			}
			if grp != nil {
				wk.stabCache = make(map[uint64][]int32)
			}
			e.run(wk)
			if wk.symChecks > 0 {
				e.symCheckN.Add(wk.symChecks)
				e.symRejectN.Add(wk.symRejects)
				e.symNanos.Add(wk.symNanos)
			}
		}(w)
	}
	expandSp := cfg.trace.Start("enumerate.expand")
	wg.Wait()
	phaseExpand.ObserveDuration(expandSp.End())
	if n := e.symCheckN.Load(); n > 0 {
		symChecksTotal.Add(n)
		symRejectsTotal.Add(e.symRejectN.Load())
		// Filter time is a sub-span of expand (workers time it inline),
		// recorded separately so quotient builds can see its share.
		cfg.trace.AddN("symmetry.filter", n, time.Duration(e.symNanos.Load()))
	}
	if e.stopErr != nil {
		return nil, e.stopErr
	}

	canonSp := cfg.trace.Start("enumerate.canonicalize")
	total := 0
	for _, out := range e.outs {
		total += len(out)
	}
	fresh := make([]enode, 0, total)
	for _, out := range e.outs {
		fresh = append(fresh, out...)
	}
	// Canonical order: (length, hash). String keys are materialized
	// only on a full 128-bit tie between distinct equal-length members,
	// which cannot occur in practice (and under WithHashVerify cannot
	// occur at all without failing the run first).
	sort.Slice(fresh, func(i, j int) bool {
		ci, cj := fresh[i].comp, fresh[j].comp
		if ci.Len() != cj.Len() {
			return ci.Len() < cj.Len()
		}
		hi, hj := ci.Hash(), cj.Hash()
		if hi != hj {
			return hi.Less(hj)
		}
		return ci.Key() < cj.Key()
	})
	// An extension's members are the base's (all shorter, already in
	// canonical order) followed by the fresh ones: because length is the
	// primary sort key and every fresh member is strictly longer than
	// every old one, the concatenation is the global canonical order — a
	// from-scratch build of the larger bound sorts to exactly this.
	baseLen := 0
	if seed != nil {
		baseLen = seed.base.Len()
	}
	comps := make([]*trace.Computation, 0, baseLen+len(fresh))
	svs := make([]int32, 0, baseLen+len(fresh))
	if seed != nil {
		comps = append(comps, seed.base.comps...)
		svs = append(svs, seed.svs...)
	}
	for _, nd := range fresh {
		comps = append(comps, nd.comp)
		svs = append(svs, nd.sv)
	}
	if cfg.progress != nil {
		cfg.progress(Progress{Explored: len(comps)})
	}
	// The engine's sharded dedup already guarantees distinct members in
	// canonical order, so skip New's dedup pass and its eager hash index.
	u := newSorted(comps, all)
	u.proto = p
	u.maxEvents = cfg.maxEvents
	u.states = states
	u.memberSV = svs
	if grp != nil {
		// Quotient bookkeeping: each member's orbit size, and the full
		// universe's cardinality as their sum — the exact count a
		// from-scratch run without the group would have produced.
		orbs := make([]int64, 0, baseLen+len(fresh))
		if seed != nil {
			orbs = append(orbs, seed.base.orbitSize...)
		}
		for _, nd := range fresh {
			orbs = append(orbs, grp.orbitSize(nd.mask))
		}
		var full int64
		for _, o := range orbs {
			full += o
		}
		u.sym = cfg.sym
		u.orbitSize = orbs
		u.fullSize = full
	}
	// The trace rides on the universe so the lazy partition/transition
	// builds and snapshot encodes this build triggers later join its
	// phase breakdown.
	u.tr = cfg.trace
	u.verify = cfg.hashVerify
	phaseCanonicalize.ObserveDuration(canonSp.End())
	engineBuilds.Inc()
	engineMembers.Add(int64(len(comps)))
	return u, nil
}

// MustEnumerateWith is EnumerateWith for configurations known to
// succeed; it panics on error.
func MustEnumerateWith(p Protocol, opts ...Option) *Universe {
	u, err := EnumerateWith(p, opts...)
	if err != nil {
		panic(err)
	}
	return u
}

// batchMax bounds how many nodes a worker claims per queue lock
// acquisition; children accumulate across the whole batch and are
// pushed back under one more acquisition.
const batchMax = 64

// idTableMax caps the precomputed per-process identifier tables;
// positions beyond it (only reachable under an absurd WithMaxEvents)
// construct identifiers on demand.
const idTableMax = 4096

// eventID returns the canonical identifier of the k-th event on
// procs[pi], from the precomputed table when possible.
func (e *engine) eventID(pi, k int32) trace.EventID {
	if int(k) < len(e.eventIDs[pi]) {
		return e.eventIDs[pi][k]
	}
	return trace.NewEventID(e.procs[pi], int(k))
}

// msgID returns the canonical identifier of the k-th message from
// procs[pi], from the precomputed table when possible.
func (e *engine) msgID(pi, k int32) trace.MsgID {
	if int(k) < len(e.msgIDs[pi]) {
		return e.msgIDs[pi][k]
	}
	return trace.NewMsgID(e.procs[pi], int(k))
}

// run pops node batches until the frontier drains, an error stops the
// engine, or the context is cancelled.
func (e *engine) run(w *worker) {
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && e.active > 0 && !e.stopped {
			e.cond.Wait()
		}
		if e.stopped || len(e.queue) == 0 {
			e.mu.Unlock()
			return
		}
		k := len(e.queue)
		if k > batchMax {
			k = batchMax
		}
		w.batch = append(w.batch[:0], e.queue[len(e.queue)-k:]...)
		e.queue = e.queue[:len(e.queue)-k]
		e.active += k
		e.mu.Unlock()
		e.frontier.Add(int64(-k))

		w.children = w.children[:0]
		var err error
		for _, nd := range w.batch {
			if err = w.expand(nd, &w.children); err != nil {
				break
			}
		}

		e.mu.Lock()
		e.active -= k
		if err != nil && !e.stopped {
			e.stopped = true
			e.stopErr = err
		}
		wasEmpty := len(e.queue) == 0
		if !e.stopped && len(w.children) > 0 {
			e.queue = append(e.queue, w.children...)
			e.frontier.Add(int64(len(w.children)))
		}
		// Wake peers only on a state change they wait for: work arriving
		// on an empty queue, the engine stopping, or the pool draining.
		if e.stopped || (wasEmpty && len(e.queue) > 0) || (e.active == 0 && len(e.queue) == 0) {
			e.cond.Broadcast()
		}
		e.mu.Unlock()
	}
}

// expand emits nd's computation (unless another worker already claimed
// its hash) and appends its children to *children.
func (w *worker) expand(nd enode, children *[]enode) error {
	e := w.e
	if err := e.cfg.ctx.Err(); err != nil {
		return err
	}
	c := nd.comp
	// Nodes at or below the seed horizon are already members of the
	// universe being extended: expand them, but claim and emit only
	// their descendants.
	if c.Len() > e.noEmitLen {
		fresh, err := e.claim(c)
		if err != nil || !fresh {
			return err
		}
		e.outs[w.id] = append(e.outs[w.id], nd)
		count := e.emitted.Add(1)
		if e.cfg.capN > 0 && count > int64(e.cfg.capN) {
			return fmt.Errorf("%w: more than %d computations", ErrTooLarge, e.cfg.capN)
		}
		if e.cfg.progress != nil && count%int64(e.cfg.progressEvery) == 0 {
			e.reportProgress()
		}
	}

	if c.Len() >= e.cfg.maxEvents {
		return nil
	}
	w.loadChain(c)
	// Deliveries of in-flight messages.
	for _, send := range w.inflight {
		dst := e.procIdx[send.Peer]
		csv := w.deliverChild(nd.sv, dst, e.procIdx[send.Proc], send.Tag)
		if csv < 0 {
			continue
		}
		ev := trace.Event{
			ID:   e.eventID(dst, w.evCount[dst]),
			Proc: send.Peer,
			Kind: trace.KindReceive,
			Msg:  send.Msg,
			Peer: send.Proc,
			Tag:  send.Tag,
		}
		// Receive children need no canonicity check: the message's sender
		// and addressee both already appear in the parent's support (the
		// send event carries them as Proc and Peer), so every stabilizer
		// element fixes the receive event — its sibling orbit is itself.
		*children = append(*children, enode{comp: w.arena.Extend(c, ev), sv: csv, mask: nd.mask | 1<<uint(dst)})
	}
	// Spontaneous steps.
	for pi := range e.procs {
		pid := e.procs[pi]
		for ai, a := range w.stepActions(nd.sv, int32(pi)) {
			var ev trace.Event
			qi := int32(-1)
			switch a.Kind {
			case trace.KindSend:
				if _, ok := e.procIdx[a.To]; !ok || a.To == pid {
					return fmt.Errorf("universe: protocol %T: invalid send %s→%s", e.p, pid, a.To)
				}
				qi = e.procIdx[a.To]
				ev = trace.Event{
					ID:   e.eventID(int32(pi), w.evCount[pi]),
					Proc: pid,
					Kind: trace.KindSend,
					Msg:  e.msgID(int32(pi), w.nextMsg[pi]),
					Peer: a.To,
					Tag:  a.Tag,
				}
			case trace.KindInternal:
				ev = trace.Event{
					ID:   e.eventID(int32(pi), w.evCount[pi]),
					Proc: pid,
					Kind: trace.KindInternal,
					Tag:  a.Tag,
				}
			default:
				return fmt.Errorf("universe: protocol %T emitted action of kind %v", e.p, a.Kind)
			}
			mask := nd.mask | 1<<uint(pi)
			if qi >= 0 {
				mask |= 1 << uint(qi)
			}
			if e.grp != nil {
				w.symChecks++
				// Per-check wall time is only sampled under WithTrace;
				// untraced runs pay two plain increments here.
				var t0 time.Time
				if e.cfg.trace != nil {
					t0 = time.Now()
				}
				canon := w.symCanonical(c, nd.mask, ev, int32(pi), qi, w.evCount[pi], w.nextMsg[pi])
				if e.cfg.trace != nil {
					w.symNanos += int64(time.Since(t0))
				}
				if !canon {
					w.symRejects++
					continue
				}
			}
			*children = append(*children, enode{comp: w.arena.Extend(c, ev), sv: w.stepChild(nd.sv, int32(pi), ai, a), mask: mask})
		}
	}
	return nil
}

// symCanonical reports whether extending parent (whose support is mask)
// by ev yields the orbit-canonical child. The siblings competing with
// c+ev are exactly {c + σ·ev : σ ∈ Stab(c)} — applying a stabilizer
// element fixes the prefix and renames only the new event — and the
// canonical one is the child with the least hash. σ·ev keeps ev's
// sequence numbers: σ stabilizes the parent, so the per-process event
// and send counts at σ's images equal those at the originals.
//
// pi and qi are the proc indexes of ev.Proc and ev.Peer (qi < 0 when
// there is no peer that can move); k is ev's per-process sequence
// number and j the per-sender message sequence number for sends.
func (w *worker) symCanonical(parent *trace.Computation, mask uint64, ev trace.Event, pi, qi, k, j int32) bool {
	e := w.e
	stab := w.stabFor(mask)
	if len(stab) == 0 {
		return true
	}
	newBits := uint64(1) << uint(pi)
	if qi >= 0 {
		newBits |= 1 << uint(qi)
	}
	var h trace.Hash128
	hashed := false
	for _, gi := range stab {
		if e.grp.moved[gi]&newBits == 0 {
			continue // σ fixes the new event: the sibling is c+ev itself
		}
		if !hashed {
			h = parent.Hash().ExtendEvent(ev)
			hashed = true
		}
		perm := e.grp.perms[gi]
		sev := ev
		spi := perm[pi]
		sev.Proc = e.procs[spi]
		sev.ID = e.eventID(spi, k)
		if ev.Kind == trace.KindSend {
			sev.Msg = e.msgID(spi, j)
			sev.Peer = e.procs[perm[qi]]
		}
		// Strict less: on the ~2^-128 event of a full hash tie between
		// distinct siblings both survive, and the dedup tables (plus
		// WithHashVerify) own that case as they do for the full universe.
		if parent.Hash().ExtendEvent(sev).Less(h) {
			return false
		}
	}
	return true
}

// stabFor returns the non-identity group elements fixing every process
// in mask — the stabilizer of any computation with that support —
// through the worker-local cache.
func (w *worker) stabFor(mask uint64) []int32 {
	if s, ok := w.stabCache[mask]; ok {
		return s
	}
	g := w.e.grp
	s := make([]int32, 0, len(g.perms)-1)
	for gi := 1; gi < len(g.perms); gi++ {
		if g.moved[gi]&mask == 0 {
			s = append(s, int32(gi))
		}
	}
	w.stabCache[mask] = s
	return s
}

// supportMask recomputes a computation's support mask by walking its
// chain; the engine uses it only to seed extension frontiers (fresh
// nodes carry masks incrementally).
func (e *engine) supportMask(c *trace.Computation) uint64 {
	var mask uint64
	for node := c; ; {
		ev, ok := node.Last()
		if !ok {
			return mask
		}
		mask |= 1 << uint(e.procIdx[ev.Proc])
		if ev.Peer != "" {
			mask |= 1 << uint(e.procIdx[ev.Peer])
		}
		node = node.Parent()
	}
}

// loadChain recovers the expansion state of c into the worker's scratch
// buffers with one allocation-free walk of the parent chain: per-process
// event counts, per-process send counters, and the in-flight messages
// (sends not received; the walk is backwards, so receives are seen
// before their sends).
func (w *worker) loadChain(c *trace.Computation) {
	for i := range w.evCount {
		w.evCount[i], w.nextMsg[i] = 0, 0
	}
	w.inflight = w.inflight[:0]
	w.received = w.received[:0]
	for node := c; ; {
		ev, ok := node.Last()
		if !ok {
			break
		}
		pi := w.e.procIdx[ev.Proc]
		w.evCount[pi]++
		switch ev.Kind {
		case trace.KindSend:
			w.nextMsg[pi]++
			if !w.sawReceive(ev.Msg) {
				w.inflight = append(w.inflight, ev)
			}
		case trace.KindReceive:
			w.received = append(w.received, ev.Msg)
		}
		node = node.Parent()
	}
}

func (w *worker) sawReceive(m trace.MsgID) bool {
	for _, r := range w.received {
		if r == m {
			return true
		}
	}
	return false
}

// vec returns the state vector for sv through the worker-local cache.
func (w *worker) vec(sv int32) []string {
	if v, ok := w.vecs[sv]; ok {
		return v
	}
	v := w.e.states.vec(sv)
	w.vecs[sv] = v
	return v
}

// stepActions returns the spontaneous actions enabled for procs[pi] in
// state vector sv, computed once per (sv, pi) per worker.
func (w *worker) stepActions(sv, pi int32) []Action {
	k := stepsKey{sv, pi}
	if a, ok := w.steps[k]; ok {
		return a
	}
	v := w.vec(sv)
	a := w.e.p.Steps(w.e.procs[pi], v[pi])
	w.steps[k] = a
	return a
}

// stepChild returns the interned state vector after procs[pi] performs
// its ai-th enabled action in sv.
func (w *worker) stepChild(sv, pi int32, ai int, a Action) int32 {
	k := actKey{sv, pi, int32(ai)}
	if id, ok := w.stepSV[k]; ok {
		return id
	}
	v := w.vec(sv)
	w.svScratch = append(w.svScratch[:0], v...)
	w.svScratch[pi] = w.e.p.AfterStep(w.e.procs[pi], v[pi], a)
	id, buf := w.e.states.intern(w.svScratch, w.buf)
	w.buf = buf
	w.stepSV[k] = id
	return id
}

// deliverChild returns the interned state vector after procs[dst]
// receives a tag-message from procs[from] in sv, or -1 when the
// delivery is inadmissible.
func (w *worker) deliverChild(sv, dst, from int32, tag string) int32 {
	k := delivKey{sv, dst, from, tag}
	if id, ok := w.delivSV[k]; ok {
		return id
	}
	v := w.vec(sv)
	id := int32(-1)
	if next, ok := w.e.p.Deliver(w.e.procs[dst], v[dst], w.e.procs[from], tag); ok {
		w.svScratch = append(w.svScratch[:0], v...)
		w.svScratch[dst] = next
		id, w.buf = w.e.states.intern(w.svScratch, w.buf)
	}
	w.delivSV[k] = id
	return id
}

// claim records c's (hash, length) in the sharded seen set; it reports
// whether this call was the first to see it. Under WithHashVerify a
// hash hit is additionally checked against the full canonical keys.
func (e *engine) claim(c *trace.Computation) (bool, error) {
	h := c.Hash()
	s := &e.shards[int(h.Hi)&(len(e.shards)-1)]
	s.mu.Lock()
	fresh, err := s.t.insert(h, c.Len(), c)
	s.mu.Unlock()
	return fresh, err
}

func (e *engine) reportProgress() {
	f := e.frontier.Load()
	if f < 0 {
		f = 0
	}
	e.progMu.Lock()
	e.cfg.progress(Progress{Explored: int(e.emitted.Load()), Frontier: int(f)})
	e.progMu.Unlock()
}
