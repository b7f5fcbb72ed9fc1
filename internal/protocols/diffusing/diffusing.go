// Package diffusing implements diffusing computations (an underlying
// basic computation started by a root, spreading by basic messages) and
// termination detectors layered over them:
//
//   - Dijkstra–Scholten (RunDS): every basic message is eventually
//     acknowledged by a signal; overhead = number of basic messages.
//   - Credit / weight throwing (RunCredit): messages carry weight; passive
//     processes return accumulated weight to the root; overhead = number
//     of passive transitions.
//   - A deliberately broken bounded-overhead detector (RunQuiet) used by
//     the termination experiment to exhibit the paper's §5 impossibility:
//     it declares termination after a fixed number of locally quiet
//     steps, and there are runs where it declares while basic messages
//     are still in flight.
//
// The paper's lower bound (§5) says any correct detector needs, in
// general, at least as many overhead messages as there are basic
// messages; the experiment harness in internal/termination sweeps these
// detectors and reports the overhead/underlying ratio.
package diffusing

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"strings"

	"hpl/internal/sim"
	"hpl/internal/trace"
)

// Message tags used by the protocols.
const (
	TagBasic  = "basic"
	TagSignal = "signal"
	TagCredit = "credit"
	// TagDetect marks the internal event the root records at detection.
	TagDetect = "detect"
)

// Topology is an undirected communication graph.
type Topology struct {
	Procs     []trace.ProcID
	Neighbors map[trace.ProcID][]trace.ProcID
}

// Chain builds the path topology p0 - p1 - … - p(n-1).
func Chain(n int) Topology { return pathLike(n, false) }

// Ring builds the cycle topology over n processes.
func Ring(n int) Topology { return pathLike(n, true) }

func pathLike(n int, wrap bool) Topology {
	t := Topology{Neighbors: make(map[trace.ProcID][]trace.ProcID, n)}
	for i := 0; i < n; i++ {
		t.Procs = append(t.Procs, procName(i))
	}
	for i := 0; i < n; i++ {
		var nbrs []trace.ProcID
		if i > 0 {
			nbrs = append(nbrs, procName(i-1))
		} else if wrap && n > 2 {
			nbrs = append(nbrs, procName(n-1))
		}
		if i+1 < n {
			nbrs = append(nbrs, procName(i+1))
		} else if wrap && n > 2 {
			nbrs = append(nbrs, procName(0))
		}
		t.Neighbors[procName(i)] = nbrs
	}
	return t
}

// Star builds the star topology with process 0 as the hub and n-1
// leaves. Combined with Workload.SinksExceptRoot and FanOut equal to the
// message budget, it is the adversarial instance of the §5 lower bound:
// every basic message engages a fresh leaf, which must individually
// report back.
func Star(n int) Topology {
	t := Topology{Neighbors: make(map[trace.ProcID][]trace.ProcID, n)}
	for i := 0; i < n; i++ {
		t.Procs = append(t.Procs, procName(i))
	}
	hub := t.Procs[0]
	for _, leaf := range t.Procs[1:] {
		t.Neighbors[hub] = append(t.Neighbors[hub], leaf)
		t.Neighbors[leaf] = []trace.ProcID{hub}
	}
	return t
}

// Complete builds the complete graph over n processes.
func Complete(n int) Topology {
	t := Topology{Neighbors: make(map[trace.ProcID][]trace.ProcID, n)}
	for i := 0; i < n; i++ {
		t.Procs = append(t.Procs, procName(i))
	}
	for _, p := range t.Procs {
		for _, q := range t.Procs {
			if p != q {
				t.Neighbors[p] = append(t.Neighbors[p], q)
			}
		}
	}
	return t
}

func procName(i int) trace.ProcID { return trace.ProcID(fmt.Sprintf("n%02d", i)) }

// Workload parameterizes a diffusing computation.
type Workload struct {
	Topo Topology
	// Root starts the computation; defaults to the first process.
	Root trace.ProcID
	// TotalMessages is the global budget of basic messages.
	TotalMessages int
	// FanOut is how many basic messages a process tries to send per
	// activation (subject to the global budget).
	FanOut int
	// SinksExceptRoot makes every non-root process a pure sink (fan-out
	// 0): it activates on a basic message and immediately turns passive.
	// With a star topology this is the adversarial instance that forces
	// one control message per basic message out of any correct detector.
	SinksExceptRoot bool
	// RoundRobin makes senders cycle deterministically through their
	// neighbours instead of choosing at random; combined with a star
	// whose leaf count is at least the message budget it guarantees that
	// every basic message engages a distinct process.
	RoundRobin bool
	// Seed drives both the scheduler and the nodes' target choices.
	Seed int64
}

// targeter returns the next-destination chooser for one node.
func (w Workload) targeter(sh *shared, nbrs []trace.ProcID) func() trace.ProcID {
	if w.RoundRobin {
		i := 0
		return func() trace.ProcID {
			t := nbrs[i%len(nbrs)]
			i++
			return t
		}
	}
	return func() trace.ProcID { return nbrs[sh.rng.Intn(len(nbrs))] }
}

func (w Workload) fanOutFor(p trace.ProcID) int {
	if w.SinksExceptRoot && p != w.Root {
		return 0
	}
	return w.FanOut
}

func (w Workload) withDefaults() (Workload, error) {
	if len(w.Topo.Procs) == 0 {
		return w, errors.New("diffusing: empty topology")
	}
	if w.Root == "" {
		w.Root = w.Topo.Procs[0]
	}
	found := false
	for _, p := range w.Topo.Procs {
		if p == w.Root {
			found = true
		}
	}
	if !found {
		return w, fmt.Errorf("diffusing: root %s not in topology", w.Root)
	}
	if w.FanOut <= 0 {
		w.FanOut = 2
	}
	if w.TotalMessages < 0 {
		return w, errors.New("diffusing: negative message budget")
	}
	return w, nil
}

// Result reports one detector run.
type Result struct {
	// Basic is the number of underlying (basic) messages sent.
	Basic int
	// Control is the number of overhead messages sent by the detector.
	Control int
	// Detected reports whether the detector announced termination.
	Detected bool
	// Correct reports whether the announcement was sound: at the
	// detection point no basic message was in flight and no basic
	// message is sent afterwards. Vacuously true when !Detected.
	Correct bool
	// Comp is the recorded computation.
	Comp *trace.Computation
}

// Ratio returns Control / Basic, the overhead ratio the §5 bound speaks
// about; it returns 0 when no basic messages were sent.
func (r Result) Ratio() float64 {
	if r.Basic == 0 {
		return 0
	}
	return float64(r.Control) / float64(r.Basic)
}

// shared holds cross-node counters for one run.
type shared struct {
	budget  int // basic messages remaining
	basic   int
	control int
	rng     *rand.Rand
}

// dsNode implements Dijkstra–Scholten over the basic computation.
type dsNode struct {
	self    trace.ProcID
	nbrs    []trace.ProcID
	pick    func() trace.ProcID
	sh      *shared
	fanOut  int
	isRoot  bool
	engaged bool
	parent  trace.ProcID
	deficit int // basic messages sent and not yet signalled
	pending int // basic messages still to send while active
	active  bool
	done    bool // root only: detection announced
}

var _ sim.Node = (*dsNode)(nil)

func (n *dsNode) Init(sim.API) {
	if n.isRoot {
		n.engaged = true
		n.active = true
		n.pending = n.fanOut
	}
}

func (n *dsNode) sendBasic(api sim.API) bool {
	if n.sh.budget <= 0 || n.pending <= 0 {
		n.pending = 0
		return false
	}
	target := n.pick()
	if err := api.Send(target, TagBasic); err != nil {
		return false
	}
	n.sh.budget--
	n.sh.basic++
	n.deficit++
	n.pending--
	return true
}

func (n *dsNode) OnReceive(api sim.API, from trace.ProcID, tag string) {
	switch tag {
	case TagBasic:
		if !n.engaged && !n.isRoot {
			n.engaged = true
			n.parent = from
			n.active = true
			n.pending = n.fanOut
			return
		}
		// Non-engaging message: acknowledge immediately; it may still
		// reactivate the node.
		if err := api.Send(from, TagSignal); err == nil {
			n.sh.control++
		}
		if n.sh.budget > 0 {
			n.active = true
			n.pending += n.fanOut
		}
	case TagSignal:
		n.deficit--
	}
}

func (n *dsNode) OnStep(api sim.API) bool {
	if n.active {
		if n.sendBasic(api) {
			return true
		}
		n.active = false
		return true
	}
	if n.engaged && !n.isRoot && n.deficit == 0 {
		// Disengage: signal the engaging message to the parent.
		if err := api.Send(n.parent, TagSignal); err == nil {
			n.sh.control++
			n.engaged = false
			return true
		}
	}
	if n.isRoot && !n.done && n.deficit == 0 {
		n.done = true
		api.Internal(TagDetect)
		return true
	}
	return false
}

// RunDS runs the workload under the Dijkstra–Scholten detector.
func RunDS(w Workload) (Result, error) {
	w, err := w.withDefaults()
	if err != nil {
		return Result{}, err
	}
	sh := &shared{budget: w.TotalMessages, rng: rand.New(rand.NewSource(w.Seed ^ 0x5f5f))}
	nodes := make(map[trace.ProcID]sim.Node, len(w.Topo.Procs))
	for _, p := range w.Topo.Procs {
		nodes[p] = &dsNode{
			self:   p,
			nbrs:   w.Topo.Neighbors[p],
			pick:   w.targeter(sh, w.Topo.Neighbors[p]),
			sh:     sh,
			fanOut: w.fanOutFor(p),
			isRoot: p == w.Root,
		}
	}
	comp, err := sim.NewRunner(nodes, sim.Config{Seed: w.Seed, MaxEvents: budgetFor(w)}).Run()
	if err != nil {
		return Result{}, fmt.Errorf("diffusing: DS run: %w", err)
	}
	return analyse(comp, sh), nil
}

// creditNode implements weight throwing with exact big.Rat weights.
type creditNode struct {
	self    trace.ProcID
	root    trace.ProcID
	nbrs    []trace.ProcID
	pick    func() trace.ProcID
	sh      *shared
	fanOut  int
	isRoot  bool
	weight  *big.Rat
	lent    *big.Rat // root: weight handed out
	pending int
	active  bool
	done    bool
	// outgoing per-message weights are encoded in tags: "credit:<rat>".
}

var _ sim.Node = (*creditNode)(nil)

func (n *creditNode) Init(sim.API) {
	if n.isRoot {
		n.active = true
		n.pending = n.fanOut
		// The root owns the system's full weight of 1; halves travel
		// with basic messages and return via credit messages.
		n.weight = big.NewRat(1, 1)
	}
}

func (n *creditNode) half() *big.Rat {
	h := new(big.Rat).Mul(n.weight, big.NewRat(1, 2))
	n.weight.Sub(n.weight, h)
	return h
}

func (n *creditNode) sendBasic(api sim.API) bool {
	if n.sh.budget <= 0 || n.pending <= 0 {
		n.pending = 0
		return false
	}
	target := n.pick()
	h := n.half()
	if err := api.Send(target, TagBasic+":"+h.RatString()); err != nil {
		n.weight.Add(n.weight, h)
		return false
	}
	if n.isRoot {
		n.lent.Add(n.lent, h)
	}
	n.sh.budget--
	n.sh.basic++
	n.pending--
	return true
}

func (n *creditNode) OnReceive(api sim.API, _ trace.ProcID, tag string) {
	switch {
	case strings.HasPrefix(tag, TagBasic+":"):
		w, ok := new(big.Rat).SetString(strings.TrimPrefix(tag, TagBasic+":"))
		if !ok {
			return
		}
		if n.isRoot {
			// Weight arriving back at the root is no longer outstanding.
			n.lent.Sub(n.lent, w)
		} else {
			n.weight.Add(n.weight, w)
		}
		if n.sh.budget > 0 {
			n.pending += n.fanOut
		}
		n.active = true
	case strings.HasPrefix(tag, TagCredit+":"):
		w, ok := new(big.Rat).SetString(strings.TrimPrefix(tag, TagCredit+":"))
		if !ok {
			return
		}
		// Only the root receives credit returns.
		n.lent.Sub(n.lent, w)
	}
}

func (n *creditNode) OnStep(api sim.API) bool {
	if n.active {
		if n.sendBasic(api) {
			return true
		}
		n.active = false
		if !n.isRoot && n.weight.Sign() != 0 {
			// Passive transition: return all accumulated weight.
			if err := api.Send(n.root, TagCredit+":"+n.weight.RatString()); err == nil {
				n.sh.control++
				n.weight = new(big.Rat)
			}
		}
		return true
	}
	if n.isRoot && !n.done && n.lent.Sign() == 0 {
		n.done = true
		api.Internal(TagDetect)
		return true
	}
	return false
}

// RunCredit runs the workload under the weight-throwing detector.
func RunCredit(w Workload) (Result, error) {
	w, err := w.withDefaults()
	if err != nil {
		return Result{}, err
	}
	sh := &shared{budget: w.TotalMessages, rng: rand.New(rand.NewSource(w.Seed ^ 0x5f5f))}
	nodes := make(map[trace.ProcID]sim.Node, len(w.Topo.Procs))
	for _, p := range w.Topo.Procs {
		nodes[p] = &creditNode{
			self:   p,
			root:   w.Root,
			nbrs:   w.Topo.Neighbors[p],
			pick:   w.targeter(sh, w.Topo.Neighbors[p]),
			sh:     sh,
			fanOut: w.fanOutFor(p),
			isRoot: p == w.Root,
			weight: new(big.Rat),
			lent:   new(big.Rat),
		}
	}
	comp, err := sim.NewRunner(nodes, sim.Config{Seed: w.Seed, MaxEvents: budgetFor(w)}).Run()
	if err != nil {
		return Result{}, fmt.Errorf("diffusing: credit run: %w", err)
	}
	return analyse(comp, sh), nil
}

// quietNode runs the basic computation with a detector that uses no
// overhead messages at all: the root declares termination after
// QuietThreshold consecutive idle turns. This detector is unsound — the
// termination experiment exhibits runs where it declares while basic
// messages are in flight, the concrete face of the paper's argument that
// the computation is isomorphic, with respect to the root, to one that
// has terminated.
type quietNode struct {
	self      trace.ProcID
	nbrs      []trace.ProcID
	pick      func() trace.ProcID
	sh        *shared
	fanOut    int
	isRoot    bool
	threshold int
	idle      int
	pending   int
	active    bool
	done      bool
}

var _ sim.Node = (*quietNode)(nil)

func (n *quietNode) Init(sim.API) {
	if n.isRoot {
		n.active = true
		n.pending = n.fanOut
	}
}

func (n *quietNode) sendBasic(api sim.API) bool {
	if n.sh.budget <= 0 || n.pending <= 0 {
		n.pending = 0
		return false
	}
	target := n.pick()
	if err := api.Send(target, TagBasic); err != nil {
		return false
	}
	n.sh.budget--
	n.sh.basic++
	n.pending--
	return true
}

func (n *quietNode) OnReceive(_ sim.API, _ trace.ProcID, tag string) {
	if tag == TagBasic {
		n.idle = 0
		n.active = true
		if n.sh.budget > 0 {
			n.pending += n.fanOut
		}
	}
}

func (n *quietNode) OnStep(api sim.API) bool {
	if n.active {
		if n.sendBasic(api) {
			return true
		}
		n.active = false
		return true
	}
	if n.isRoot && !n.done {
		n.idle++
		if n.idle >= n.threshold {
			n.done = true
			api.Internal(TagDetect)
			return true
		}
		// Idle turns are genuine internal steps of the detector clock.
		api.Internal("tick")
		return true
	}
	return false
}

// RunQuiet runs the workload under the zero-overhead quiet detector with
// the given idle threshold.
func RunQuiet(w Workload, threshold int) (Result, error) {
	w, err := w.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if threshold <= 0 {
		return Result{}, errors.New("diffusing: quiet threshold must be positive")
	}
	sh := &shared{budget: w.TotalMessages, rng: rand.New(rand.NewSource(w.Seed ^ 0x5f5f))}
	nodes := make(map[trace.ProcID]sim.Node, len(w.Topo.Procs))
	for _, p := range w.Topo.Procs {
		nodes[p] = &quietNode{
			self:      p,
			nbrs:      w.Topo.Neighbors[p],
			pick:      w.targeter(sh, w.Topo.Neighbors[p]),
			sh:        sh,
			fanOut:    w.fanOutFor(p),
			isRoot:    p == w.Root,
			threshold: threshold,
		}
	}
	comp, err := sim.NewRunner(nodes, sim.Config{Seed: w.Seed, MaxEvents: budgetFor(w)}).Run()
	if err != nil {
		return Result{}, fmt.Errorf("diffusing: quiet run: %w", err)
	}
	return analyse(comp, sh), nil
}

func budgetFor(w Workload) int {
	// Generous bound: every basic message can cause a few control
	// messages, receives, and idle ticks.
	return 40*(w.TotalMessages+len(w.Topo.Procs)) + 200
}

// analyse computes the Result from the recorded computation and counters.
func analyse(comp *trace.Computation, sh *shared) Result {
	res := Result{Basic: sh.basic, Control: sh.control, Comp: comp, Correct: true}
	detectIdx := -1
	for i := 0; i < comp.Len(); i++ {
		e := comp.At(i)
		if e.Kind == trace.KindInternal && e.Tag == TagDetect {
			detectIdx = i
			break
		}
	}
	if detectIdx < 0 {
		return res
	}
	res.Detected = true
	// Soundness: at detection no basic message in flight, and no basic
	// message is sent afterwards.
	prefix := comp.Prefix(detectIdx + 1)
	for _, e := range prefix.InFlight() {
		if IsBasicTag(e.Tag) {
			res.Correct = false
		}
	}
	for i := detectIdx + 1; i < comp.Len(); i++ {
		e := comp.At(i)
		if e.Kind == trace.KindSend && IsBasicTag(e.Tag) {
			res.Correct = false
		}
	}
	return res
}

// IsBasicTag reports whether the tag marks an underlying (basic)
// message — plain for DS/quiet runs, weight-carrying for credit runs.
func IsBasicTag(tag string) bool {
	return tag == TagBasic || strings.HasPrefix(tag, TagBasic+":")
}
