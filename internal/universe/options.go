package universe

import (
	"context"

	"hpl/internal/obs"
)

// DefaultMaxEvents bounds computations when WithMaxEvents is not given.
// Protocols with unbounded runs (a token circulating forever) would
// otherwise never terminate, so the bound is deliberately conservative.
const DefaultMaxEvents = 8

// Progress is a snapshot of a running enumeration, delivered to the
// callback installed by WithProgress.
type Progress struct {
	// Explored counts distinct computations emitted so far.
	Explored int
	// Frontier counts discovered-but-unexpanded computations queued in
	// the engine (an approximation while workers are mid-expansion).
	Frontier int
}

// Option configures an enumeration started by EnumerateWith.
type Option func(*config)

type config struct {
	maxEvents   int
	capN        int
	parallelism int
	ctx         context.Context
	progress    func(Progress)
	// progressEvery is the number of emissions between progress
	// callbacks; tests shrink it to observe mid-run snapshots.
	progressEvery int
	// hashVerify makes dedup double-check hash hits against full keys.
	hashVerify bool
	// sym quotients the enumeration by a process-symmetry group; nil
	// (or a trivial group) enumerates the full universe.
	sym *Symmetry
	// trace accumulates per-phase build timings (WithTrace); nil —
	// the common case — records nothing, and the engine's global
	// phase metrics are fed either way.
	trace *obs.Trace
}

func defaultConfig() config {
	return config{
		maxEvents:     DefaultMaxEvents,
		capN:          0,
		parallelism:   1,
		ctx:           context.Background(),
		progressEvery: 1024,
	}
}

// WithMaxEvents bounds every computation to at most n events (including
// the empty computation and every prefix, since the search tree is
// rooted at null). n <= 0 yields the universe {null}.
func WithMaxEvents(n int) Option {
	return func(c *config) {
		if n < 0 {
			n = 0
		}
		c.maxEvents = n
	}
}

// WithCap fails the enumeration with ErrTooLarge when more than n
// distinct computations would be produced; n <= 0 disables the cap.
func WithCap(n int) Option {
	return func(c *config) {
		if n < 0 {
			n = 0
		}
		c.capN = n
	}
}

// WithParallelism runs the enumeration on n workers; n <= 1 is
// single-threaded. The resulting universe is identical (same members in
// the same canonical order, hence the same classes) for every n.
func WithParallelism(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.parallelism = n
	}
}

// WithContext makes the enumeration cancellable: when ctx is cancelled
// or its deadline passes, EnumerateWith stops promptly and returns
// ctx.Err().
func WithContext(ctx context.Context) Option {
	return func(c *config) {
		if ctx != nil {
			c.ctx = ctx
		}
	}
}

// WithProgress installs a progress callback, invoked periodically during
// enumeration and once at the end. The callback is serialized by the
// engine (never invoked concurrently), so it need not lock. It must not
// call back into the enumeration.
func WithProgress(fn func(Progress)) Option {
	return func(c *config) { c.progress = fn }
}

// WithHashVerify makes the engine retain the first claimant of every
// dedup slot and compare full canonical string keys whenever two
// computations of equal length hit the same 128-bit hash, failing the
// enumeration with ErrHashCollision on a mismatch. The flag stays on
// the universe: every partition build then compares each member's
// ProjectionKey with its class's first member and panics with an error
// wrapping ErrHashCollision on a mismatch (partition builds are lazy and
// have no error path). Distinct sequences collide with probability
// ~2^-128, so production runs skip the checks (and the string keys
// entirely); this option exists for debug runs that want the
// assumption proven rather than assumed.
func WithHashVerify() Option {
	return func(c *config) { c.hashVerify = true }
}

// WithSymmetry quotients the enumeration by the process-symmetry group
// g: only one canonical representative of each renaming orbit is
// emitted, with its orbit size recorded (Universe.OrbitSize), so the
// universe shrinks by up to Order(g) while weighted counts stay exact.
// The protocol must actually have the symmetry — equal Init within each
// class is checked at enumeration time, equivariance of
// Steps/AfterStep/Deliver is the caller's assertion (use
// InferSymmetry for protocols that declare their own). Formulas
// evaluated over the quotient must be symmetric; the knowledge layer
// rejects asymmetric ones with a structured error. A nil or trivial g
// is a no-op.
func WithSymmetry(g *Symmetry) Option {
	return func(c *config) {
		if g.Trivial() {
			g = nil
		}
		c.sym = g
	}
}

// WithTrace attaches a trace that accumulates the enumeration's
// per-phase wall times (frontier expansion, canonical sort, symmetry
// stabilizer filtering) and travels with the universe, so the lazy
// partition/transition builds and snapshot encodes it triggers later
// land in the same breakdown. The same trace may be shared across
// builds; phases accumulate. Overhead is a handful of timestamps per
// enumeration — per-node costs are batched into worker-local counters —
// so tracing is safe to leave on in production paths.
func WithTrace(tr *obs.Trace) Option {
	return func(c *config) { c.trace = tr }
}

// withProgressEvery tunes the callback interval; exported options keep
// the default, tests reach this directly.
func withProgressEvery(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.progressEvery = n
		}
	}
}
