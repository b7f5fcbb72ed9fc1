package service

import (
	"bufio"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"testing"

	"hpl"
)

// TestSnapshotWrittenOnBuild checks persistence on the write side: with
// a snapshot directory configured, a built universe lands on disk as
// <digest>.hplsnap before the build's waiters are released, and the
// file decodes back to a universe of the same size under that digest.
func TestSnapshotWrittenOnBuild(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry(Config{SnapshotDir: dir})
	spec := smallSpec("p", "q")
	e, _, err := r.Get(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if e.Source != SourceBuild {
		t.Errorf("first materialization source = %q, want %q", e.Source, SourceBuild)
	}
	f, err := os.Open(r.snapshotPath(e.Digest))
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	defer f.Close()
	u, digest, err := hpl.ReadSnapshot(bufio.NewReader(f))
	if err != nil {
		t.Fatalf("written snapshot does not decode: %v", err)
	}
	if digest != e.Digest || u.Len() != e.Checker.Universe().Len() {
		t.Errorf("snapshot mismatch: digest %q members %d, want %q / %d",
			digest, u.Len(), e.Digest, e.Checker.Universe().Len())
	}
	if st := r.Stats(); st.SnapshotErrors != 0 {
		t.Errorf("snapshot write errored: %+v", st)
	}
}

// TestColdStartServedFromSnapshot is the restart contract: a fresh
// registry over a populated snapshot directory answers its first query
// from disk — the build function is never called — and reports the
// entry as snapshot-sourced.
func TestColdStartServedFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec("p", "q")
	warm := NewRegistry(Config{SnapshotDir: dir})
	first, _, err := warm.Get(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	cold := NewRegistry(Config{SnapshotDir: dir})
	cold.buildFn = func(ctx context.Context, spec hpl.UniverseSpec) (*hpl.Checker, error) {
		return nil, errors.New("cold start fell back to a build")
	}
	e, cached, err := cold.Get(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Errorf("first Get on a fresh registry reported cached")
	}
	if e.Source != SourceSnapshot {
		t.Errorf("source = %q, want %q", e.Source, SourceSnapshot)
	}
	if e.Checker.Universe().Len() != first.Checker.Universe().Len() {
		t.Errorf("loaded universe has %d members, built one %d",
			e.Checker.Universe().Len(), first.Checker.Universe().Len())
	}
	// Loaded sessions must answer exactly like built ones.
	for _, ck := range []*hpl.Checker{first.Checker, e.Checker} {
		rep, err := ck.ParseAndCheck(`K{q} "sent(p,m)" -> "sent(p,m)"`)
		if err != nil || !rep.Valid() {
			t.Errorf("knowledge-implies-truth on %s-sourced session: valid=%v err=%v",
				e.Source, rep.Valid(), err)
		}
	}
	st := cold.Stats()
	if st.SnapshotHits != 1 || st.SnapshotMisses != 0 {
		t.Errorf("snapshot counters after cold hit: %+v", st)
	}
}

// TestQuotientSnapshotRestart is the restart contract for symmetry
// quotients: a quotient universe persists under its own digest (the
// version-2 snapshot with group and orbit sizes), a fresh registry
// serves it from disk without building, and the loaded session keeps
// both the orbit accounting and the asymmetric-formula rejection.
func TestQuotientSnapshotRestart(t *testing.T) {
	dir := t.TempDir()
	spec := hpl.UniverseSpec{Procs: []hpl.ProcID{"p", "q", "r"}, MaxSends: 1, MaxEvents: 4, Symmetry: "full"}
	warm := NewRegistry(Config{SnapshotDir: dir})
	first, _, err := warm.Get(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Checker.Universe().IsQuotient() {
		t.Fatal("quotient spec built a full universe")
	}

	cold := NewRegistry(Config{SnapshotDir: dir})
	cold.buildFn = func(ctx context.Context, spec hpl.UniverseSpec) (*hpl.Checker, error) {
		return nil, errors.New("quotient restart fell back to a build")
	}
	e, _, err := cold.Get(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if e.Source != SourceSnapshot {
		t.Errorf("source = %q, want %q", e.Source, SourceSnapshot)
	}
	u, w := e.Checker.Universe(), first.Checker.Universe()
	if !u.IsQuotient() || !u.Symmetry().Equal(w.Symmetry()) {
		t.Fatalf("loaded universe lost its group: quotient=%v", u.IsQuotient())
	}
	if u.Len() != w.Len() || u.FullSize() != w.FullSize() {
		t.Errorf("loaded quotient %d/%d members, built %d/%d",
			u.Len(), u.FullSize(), w.Len(), w.FullSize())
	}
	for i := 0; i < u.Len(); i++ {
		if u.OrbitSize(i) != w.OrbitSize(i) {
			t.Fatalf("member %d orbit size %d, built %d", i, u.OrbitSize(i), w.OrbitSize(i))
		}
	}
	rep, err := e.Checker.ParseAndCheck(`"anyReceived(m)" -> "anySent(m)"`)
	if err != nil || !rep.Valid() {
		t.Errorf("symmetric formula on restored quotient: valid=%v err=%v", rep.Valid(), err)
	}
	wantRep, err := first.Checker.ParseAndCheck(`"anyReceived(m)" -> "anySent(m)"`)
	if err != nil || rep.FullHolding != wantRep.FullHolding {
		t.Errorf("weighted counts diverge after restart: %d vs %d (err=%v)", rep.FullHolding, wantRep.FullHolding, err)
	}
	var asym *hpl.AsymmetryError
	if _, err := e.Checker.ParseAndCheck(`"sent(p,m)"`); !errors.As(err, &asym) {
		t.Errorf("restored quotient must keep rejecting asymmetric formulas, got %v", err)
	}
}

// TestCorruptSnapshotFallsBackToBuild checks the degraded path: a
// corrupt snapshot file is removed, the miss falls through to a normal
// build, and the rebuilt universe re-persists a valid snapshot.
func TestCorruptSnapshotFallsBackToBuild(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec("p", "q")
	warm := NewRegistry(Config{SnapshotDir: dir})
	first, _, err := warm.Get(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	path := warm.snapshotPath(first.Digest)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cold := NewRegistry(Config{SnapshotDir: dir})
	e, _, err := cold.Get(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if e.Source != SourceBuild {
		t.Errorf("source after corrupt snapshot = %q, want %q", e.Source, SourceBuild)
	}
	if st := cold.Stats(); st.SnapshotMisses != 1 {
		t.Errorf("corrupt load not counted as a miss: %+v", st)
	}
	// The rebuild must have replaced the corrupt file with a good one.
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("rebuild did not re-persist: %v", err)
	}
	defer f.Close()
	if _, _, err := hpl.ReadSnapshot(bufio.NewReader(f)); err != nil {
		t.Errorf("re-persisted snapshot does not decode: %v", err)
	}
}

// TestServerReportsSource checks the wire surface: /v1/universe-stats
// carries the entry's source, "build" on first contact and "snapshot"
// after a server restart over the same directory.
func TestServerReportsSource(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{SnapshotDir: dir}
	ts1 := httptest.NewServer(NewServer(NewRegistry(cfg)))
	cl1 := &Client{Base: ts1.URL, HTTPClient: ts1.Client()}
	st, err := cl1.UniverseStats(context.Background(), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != SourceBuild {
		t.Errorf("first stats source = %q, want %q", st.Source, SourceBuild)
	}
	ts1.Close()

	// "Restart": a new server process over the same snapshot directory.
	ts2 := httptest.NewServer(NewServer(NewRegistry(cfg)))
	defer ts2.Close()
	cl2 := &Client{Base: ts2.URL, HTTPClient: ts2.Client()}
	st2, err := cl2.UniverseStats(context.Background(), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Source != SourceSnapshot {
		t.Errorf("post-restart stats source = %q, want %q", st2.Source, SourceSnapshot)
	}
	if st2.Members != st.Members {
		t.Errorf("members changed across restart: %d vs %d", st2.Members, st.Members)
	}
	h, err := cl2.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.SnapshotHits != 1 {
		t.Errorf("health does not report the snapshot hit: %+v", h)
	}
}
