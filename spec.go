package hpl

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"strings"

	"hpl/internal/faults"
	"hpl/internal/knowledge"
	"hpl/internal/universe"
)

// DefaultMaxEvents is the event bound applied when a UniverseSpec (or an
// enumeration without WithMaxEvents) does not choose one.
const DefaultMaxEvents = universe.DefaultMaxEvents

// UniverseSpec is a declarative, JSON-serializable description of an
// enumeration request: which system to enumerate and under which bounds.
// It is the unit of identity for the hpld service's universe cache — two
// requests whose specs canonicalize identically share one hot universe —
// and Digest is the cache key.
//
// The zero values of the optional fields mean "default": an empty
// Protocol is "free", MaxEvents <= 0 is DefaultMaxEvents, empty SendTags
// is {"m"}, empty InternalTags is {"i"}, and Cap <= 0 leaves the
// enumeration uncapped (servers clamp it to their own limit).
type UniverseSpec struct {
	// Protocol names the system family. Currently only "free" (see
	// NewFree) is enumerable from a spec.
	Protocol string `json:"protocol,omitempty"`
	// Procs are the processes of the system.
	Procs []ProcID `json:"procs"`
	// MaxSends bounds the number of send events per process.
	MaxSends int `json:"maxSends"`
	// MaxInternal bounds the number of internal events per process.
	MaxInternal int `json:"maxInternal,omitempty"`
	// SendTags are the tags a send may carry; default {"m"}.
	SendTags []string `json:"sendTags,omitempty"`
	// InternalTags are the tags an internal event may carry; default {"i"}.
	InternalTags []string `json:"internalTags,omitempty"`
	// MaxEvents bounds every computation to at most this many events.
	MaxEvents int `json:"maxEvents,omitempty"`
	// Cap fails the enumeration with ErrUniverseTooLarge when more than
	// this many distinct computations would be produced; <= 0 disables.
	Cap int `json:"cap,omitempty"`
	// Symmetry selects symmetry reduction: "none" (or empty) enumerates
	// the full universe, "full" enumerates the quotient under the group
	// interchanging all processes (free systems are fully symmetric).
	// Quotients serve symmetric formulas only — see WithSymmetry.
	Symmetry string `json:"symmetry,omitempty"`
	// Faults selects an adversarial channel model in the grammar of
	// faults.Parse: "none" (or empty) is the reliable system; otherwise
	// comma-separated tokens "crash" (any process may crash-stop),
	// "crash:<proc>", "drop:<n>" and "dup:<n>" (per-process budgets)
	// wrap the system via faults.Wrap before enumeration. Fault events
	// appear in the computations under reserved "fault:" tags and the
	// vocabulary gains the matching atoms (crashed(p), anyCrashed,
	// dropped(t), duplicated(t)).
	Faults string `json:"faults,omitempty"`
}

// Canonical returns the spec with every field in normal form: protocol
// and symmetry lowercased (empty → "free", "none"), fault keywords
// folded (process names keep their case), procs and tags trimmed,
// deduplicated and sorted, defaults made explicit, and negative bounds
// clamped to zero.
// Two specs describe the same universe exactly when their canonical
// forms are equal, which is what makes Digest a sound cache key.
func (s UniverseSpec) Canonical() UniverseSpec {
	out := s
	out.Protocol = strings.ToLower(strings.TrimSpace(s.Protocol))
	if out.Protocol == "" {
		out.Protocol = "free"
	}
	procs := make([]string, 0, len(s.Procs))
	for _, p := range s.Procs {
		procs = append(procs, string(p))
	}
	out.Procs = nil
	for _, p := range canonStrings(procs, nil) {
		out.Procs = append(out.Procs, ProcID(p))
	}
	if out.MaxSends < 0 {
		out.MaxSends = 0
	}
	if out.MaxInternal < 0 {
		out.MaxInternal = 0
	}
	out.SendTags = canonStrings(s.SendTags, []string{"m"})
	out.InternalTags = canonStrings(s.InternalTags, []string{"i"})
	if out.MaxEvents <= 0 {
		out.MaxEvents = DefaultMaxEvents
	}
	if out.Cap < 0 {
		out.Cap = 0
	}
	out.Symmetry = strings.ToLower(strings.TrimSpace(s.Symmetry))
	if out.Symmetry == "" {
		out.Symmetry = "none"
	}
	// Equivalent spellings of the same model ("dup:1,crash" vs
	// "CRASH,dup:1", empty vs "none") canonicalize to one string so they
	// share a digest. faults.Parse folds only the keywords: process
	// names keep their case, so "crash:P" and "crash:p" stay distinct.
	// Unparsable strings pass through for Validate to report.
	out.Faults = strings.TrimSpace(s.Faults)
	if m, err := faults.Parse(out.Faults); err == nil {
		out.Faults = m.String()
	}
	return out
}

// canonStrings trims, drops empties, sorts and deduplicates; an empty
// result becomes the default set.
func canonStrings(in, def []string) []string {
	out := make([]string, 0, len(in))
	for _, s := range in {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	slices.Sort(out)
	out = slices.Compact(out)
	if len(out) == 0 {
		return slices.Clone(def)
	}
	return out
}

// Validate reports whether the canonical form of the spec describes an
// enumerable system.
func (s UniverseSpec) Validate() error {
	c := s.Canonical()
	if c.Protocol != "free" {
		return fmt.Errorf("hpl: unknown protocol %q (only \"free\" universes can be built from a spec)", c.Protocol)
	}
	if len(c.Procs) == 0 {
		return fmt.Errorf("hpl: spec has no processes")
	}
	switch c.Symmetry {
	case "none":
	case "full":
		// FullSymmetry caps the group order at 8! — larger process sets
		// must enumerate unreduced.
		if len(c.Procs) > 8 {
			return fmt.Errorf("hpl: symmetry \"full\" supports at most 8 processes, spec has %d", len(c.Procs))
		}
	default:
		return fmt.Errorf("hpl: unknown symmetry %q (want \"none\" or \"full\")", c.Symmetry)
	}
	m, err := faults.Parse(c.Faults)
	if err != nil {
		return fmt.Errorf("hpl: bad faults field: %w", err)
	}
	for _, p := range m.Canonical().Crash {
		if !slices.Contains(c.Procs, p) {
			return fmt.Errorf("hpl: faults name unknown process %q", p)
		}
	}
	if c.Symmetry != "none" && !m.Uniform() {
		return fmt.Errorf("hpl: faults %q name specific processes, which breaks the symmetry %q quotient; use \"crash\" (all processes) or symmetry \"none\"", c.Faults, c.Symmetry)
	}
	return nil
}

// Digest returns a stable hex digest of the canonical spec, suitable as
// a cache key: semantically identical option sets (reordered processes,
// duplicate tags, defaults spelled out or omitted) collide, and any
// semantic difference — protocol name, process set, per-process bounds,
// MaxEvents, Cap, channel tag options — separates. The encoding
// length-prefixes every field, so no two canonical specs share a
// preimage.
func (s UniverseSpec) Digest() string {
	c := s.Canonical()
	h := sha256.New()
	writeField := func(name string, vals ...string) {
		fmt.Fprintf(h, "%s/%d", name, len(vals))
		for _, v := range vals {
			fmt.Fprintf(h, ":%d,", len(v))
			io.WriteString(h, v)
		}
		io.WriteString(h, ";")
	}
	procs := make([]string, len(c.Procs))
	for i, p := range c.Procs {
		procs[i] = string(p)
	}
	writeField("protocol", c.Protocol)
	writeField("procs", procs...)
	writeField("maxSends", fmt.Sprint(c.MaxSends))
	writeField("maxInternal", fmt.Sprint(c.MaxInternal))
	writeField("sendTags", c.SendTags...)
	writeField("internalTags", c.InternalTags...)
	writeField("maxEvents", fmt.Sprint(c.MaxEvents))
	writeField("cap", fmt.Sprint(c.Cap))
	// The symmetry field joined the spec after digests were already
	// pinned in caches and snapshots; folding it in only when reduction
	// is requested keeps every pre-symmetry digest stable while still
	// separating quotient requests from full ones.
	if c.Symmetry != "none" {
		writeField("symmetry", c.Symmetry)
	}
	// Same treatment for the faults field (added later still): reliable
	// specs keep their historical digests, fault-extended universes get
	// their own cache/snapshot identity.
	if c.Faults != "none" {
		writeField("faults", c.Faults)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// System builds the Protocol the canonical spec describes.
func (s UniverseSpec) System() (Protocol, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := s.Canonical()
	sys := NewFree(FreeConfig{
		Procs:        c.Procs,
		MaxSends:     c.MaxSends,
		MaxInternal:  c.MaxInternal,
		SendTags:     c.SendTags,
		InternalTags: c.InternalTags,
	})
	if c.Faults != "none" {
		m, err := faults.Parse(c.Faults)
		if err != nil {
			return nil, fmt.Errorf("hpl: bad faults field: %w", err)
		}
		sys = faults.Wrap(sys, m)
	}
	return sys, nil
}

// EnumOptions returns the enumeration options the canonical spec pins
// down (event bound and cap); callers append execution options
// (WithParallelism, WithContext, …), which never change the resulting
// universe.
func (s UniverseSpec) EnumOptions() []EnumOption {
	c := s.Canonical()
	opts := []EnumOption{WithMaxEvents(c.MaxEvents)}
	if c.Cap > 0 {
		opts = append(opts, WithCap(c.Cap))
	}
	if c.Symmetry == "full" {
		// Validate has bounded the process count, so the group builds;
		// a nil group (construction failure) would make WithSymmetry a
		// no-op rather than silently quotienting by the wrong group.
		if g, err := universe.FullSymmetry(c.Procs...); err == nil {
			opts = append(opts, WithSymmetry(g))
		}
	}
	return opts
}

// Predicates returns the standard vocabulary of the spec's system: for
// every process, "sent(p,t)" and "received(p,t)" per send tag and
// "internal(p,t)" per internal tag; per tag the process-agnostic
// "anySent(t)", "anyReceived(t)" and "anyInternal(t)"; plus "quiescent"
// (no messages in flight). These are the atoms a service seeds a
// session with, so clients can write textual formulas without
// registering predicates. The any-atoms and "quiescent" are symmetric,
// so they remain usable when the spec requests a symmetry quotient.
func (s UniverseSpec) Predicates() []Predicate {
	c := s.Canonical()
	var preds []Predicate
	for _, p := range c.Procs {
		for _, t := range c.SendTags {
			preds = append(preds, SentTag(p, t), ReceivedTag(p, t))
		}
		for _, t := range c.InternalTags {
			preds = append(preds, DidInternal(p, t))
		}
	}
	for _, t := range c.SendTags {
		preds = append(preds, AnySentTag(t), AnyReceivedTag(t))
	}
	for _, t := range c.InternalTags {
		preds = append(preds, AnyDidInternal(t))
	}
	preds = append(preds, NoMessagesInFlight())
	if m, err := faults.Parse(c.Faults); err == nil && !m.IsReliable() {
		if m.CrashAll || len(m.Crash) > 0 {
			for _, p := range c.Procs {
				if m.CanCrash(p) {
					preds = append(preds, knowledge.Crashed(p))
				}
			}
			preds = append(preds, knowledge.AnyCrashed())
		}
		for _, t := range c.SendTags {
			if m.Drops > 0 {
				preds = append(preds, knowledge.Dropped(t))
			}
			if m.Dups > 0 {
				preds = append(preds, knowledge.Duplicated(t))
			}
		}
	}
	return preds
}

// CheckSpec enumerates the spec's universe and returns a checking
// session whose vocabulary is pre-seeded with the spec's standard atoms
// (see Predicates). Execution options (WithParallelism, WithContext,
// WithProgress, …) are appended after the spec's own bounds.
func CheckSpec(s UniverseSpec, opts ...EnumOption) (*Checker, error) {
	sys, err := s.System()
	if err != nil {
		return nil, err
	}
	ck, err := CheckProtocol(sys, append(s.EnumOptions(), opts...)...)
	if err != nil {
		return nil, err
	}
	return ck.Define(s.Predicates()...), nil
}
