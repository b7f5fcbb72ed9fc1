package universe_test

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hpl/internal/trace"
	"hpl/internal/universe"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden snapshot files")

// goldenUniverse is the small fixed universe behind the golden-file
// tests: free system on {p, q}, one send each, three events.
func goldenUniverse(t testing.TB) *universe.Universe {
	t.Helper()
	u, err := universe.EnumerateWith(universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 1,
	}), universe.WithMaxEvents(3))
	if err != nil {
		t.Fatal(err)
	}
	// Build the optional sections so the golden bytes cover every
	// section of the format.
	u.Transitions()
	u.Partition(u.All())
	u.Partition(trace.Singleton("p"))
	return u
}

func goldenBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := universe.WriteSnapshot(&buf, goldenUniverse(t), "golden-digest"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTrip writes and reloads the universe of every
// protocol in internal/protocols and requires the loaded universe to be
// indistinguishable: same members, Partition tables, Transitions, and
// digest, with class-by-key lookups (served by the lazily rebuilt
// projection index) intact.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, e := range allProtocols(t) {
		t.Run(e.name, func(t *testing.T) {
			want, err := universe.EnumerateWith(e.p,
				universe.WithMaxEvents(e.maxEvents), universe.WithParallelism(4))
			if err != nil {
				t.Fatal(err)
			}
			want.Transitions()
			want.Partition(want.All())
			for _, p := range want.All().IDs() {
				want.Partition(trace.Singleton(p))
			}
			var buf bytes.Buffer
			if err := universe.WriteSnapshot(&buf, want, "digest-"+e.name); err != nil {
				t.Fatal(err)
			}
			got, digest, err := universe.ReadSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if digest != "digest-"+e.name {
				t.Fatalf("digest = %q, want %q", digest, "digest-"+e.name)
			}
			if got.MaxEvents() != e.maxEvents {
				t.Fatalf("MaxEvents = %d, want %d", got.MaxEvents(), e.maxEvents)
			}
			requireIdenticalUniverses(t, "loaded", got, want)
			// Class lookups of non-member computations go through the
			// projection-key index, which loaded tables rebuild lazily.
			for i := 0; i < want.Len(); i += 1 + want.Len()/7 {
				x := want.At(i)
				for _, ps := range []trace.ProcSet{want.All(), trace.Singleton(want.All().IDs()[0])} {
					a, b := got.Class(x, ps), want.Class(x, ps)
					if len(a) != len(b) {
						t.Fatalf("Class(member %d, %v): %d members, want %d", i, ps, len(a), len(b))
					}
				}
			}
		})
	}
}

// TestSnapshotDeterministic requires byte-identical snapshots from
// (a) universes enumerated at different parallelism levels and (b) a
// write→load→write round trip: snapshot bytes are a pure function of
// the universe, not of scheduling.
func TestSnapshotDeterministic(t *testing.T) {
	p := universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 2,
	})
	write := func(u *universe.Universe) []byte {
		u.Transitions()
		u.Partition(u.All())
		var buf bytes.Buffer
		if err := universe.WriteSnapshot(&buf, u, "det"); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq, err := universe.EnumerateWith(p, universe.WithMaxEvents(5))
	if err != nil {
		t.Fatal(err)
	}
	par, err := universe.EnumerateWith(p, universe.WithMaxEvents(5), universe.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	a, b := write(seq), write(par)
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot bytes differ between parallelism levels (%d vs %d bytes)", len(a), len(b))
	}
	loaded, _, err := universe.ReadSnapshot(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if c := write(loaded); !bytes.Equal(a, c) {
		t.Fatalf("write→load→write is not the identity (%d vs %d bytes)", len(a), len(c))
	}
}

// TestSnapshotGolden pins the on-disk format: the checked-in golden
// file must decode to the golden universe, and re-encoding the golden
// universe must reproduce it byte for byte. A diff here means the
// format changed — bump snapshotVersion and regenerate with
// -update-golden instead of silently re-interpreting old files.
func TestSnapshotGolden(t *testing.T) {
	path := filepath.Join("testdata", "free_p_q_s1_me3.hplsnap")
	got := goldenBytes(t)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot encoding diverged from golden file (%d vs %d bytes); "+
			"if intentional, bump snapshotVersion and run with -update-golden", len(got), len(want))
	}
	u, digest, err := universe.ReadSnapshot(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if digest != "golden-digest" {
		t.Fatalf("digest = %q, want %q", digest, "golden-digest")
	}
	requireIdenticalUniverses(t, "golden", u, goldenUniverse(t))
}

// TestSnapshotRejectsHandBuilt pins that snapshots only serialize
// enumerated universes, which carry canonical order and state vectors.
func TestSnapshotRejectsHandBuilt(t *testing.T) {
	g := goldenUniverse(t)
	hand := universe.New(g.Computations(), g.All())
	if err := universe.WriteSnapshot(&bytes.Buffer{}, hand, "x"); err == nil {
		t.Fatal("WriteSnapshot accepted a hand-built universe")
	}
}

// TestSnapshotFormatErrors pins the structured decode errors on inputs
// that are not (or are no longer) valid snapshots.
func TestSnapshotFormatErrors(t *testing.T) {
	good := goldenBytes(t)

	t.Run("not_a_snapshot", func(t *testing.T) {
		_, _, err := universe.ReadSnapshot(bytes.NewReader([]byte("PKZIP\x03\x04 definitely not a snapshot")))
		if !errors.Is(err, universe.ErrSnapshotFormat) {
			t.Fatalf("err = %v, want ErrSnapshotFormat", err)
		}
	})

	t.Run("version_mismatch", func(t *testing.T) {
		bad := bytes.Clone(good)
		bad[6] = 99 // version byte follows the 6-byte magic
		_, _, err := universe.ReadSnapshot(bytes.NewReader(bad))
		if !errors.Is(err, universe.ErrSnapshotVersion) {
			t.Fatalf("err = %v, want ErrSnapshotVersion", err)
		}
	})

	t.Run("truncated", func(t *testing.T) {
		// Every proper prefix must fail as a truncation — header cut,
		// payload cut, checksum cut — and never panic.
		for cut := 0; cut < len(good); cut += 1 + len(good)/97 {
			_, _, err := universe.ReadSnapshot(bytes.NewReader(good[:cut]))
			if !errors.Is(err, universe.ErrSnapshotTruncated) {
				t.Fatalf("cut at %d of %d: err = %v, want ErrSnapshotTruncated", cut, len(good), err)
			}
		}
	})

	t.Run("corrupted", func(t *testing.T) {
		// Flipping any single byte must yield a structured snapshot
		// error — usually the checksum catching it — never a panic and
		// never a silently-loaded universe.
		for i := 0; i < len(good); i += 1 + len(good)/211 {
			bad := bytes.Clone(good)
			bad[i] ^= 0x5a
			_, _, err := universe.ReadSnapshot(bytes.NewReader(bad))
			if err == nil {
				t.Fatalf("byte %d flipped: snapshot loaded anyway", i)
			}
			if !errors.Is(err, universe.ErrSnapshotFormat) &&
				!errors.Is(err, universe.ErrSnapshotVersion) &&
				!errors.Is(err, universe.ErrSnapshotTruncated) &&
				!errors.Is(err, universe.ErrSnapshotCorrupt) {
				t.Fatalf("byte %d flipped: unstructured error %v", i, err)
			}
		}
	})

	t.Run("payload_corrupt_checksum_catches", func(t *testing.T) {
		// A flip strictly inside the payload is always the checksum's
		// to catch.
		bad := bytes.Clone(good)
		bad[len(bad)/2] ^= 0xff
		_, _, err := universe.ReadSnapshot(bytes.NewReader(bad))
		if !errors.Is(err, universe.ErrSnapshotCorrupt) {
			t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
		}
	})
}

// TestSnapshotLoadConcurrent loads a snapshot and hits the lazily
// completed structures — projection-key indexes, partition and
// transition queries — from many goroutines under -race.
func TestSnapshotLoadConcurrent(t *testing.T) {
	p := universe.NewFree(universe.FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 2,
	})
	orig, err := universe.EnumerateWith(p, universe.WithMaxEvents(5))
	if err != nil {
		t.Fatal(err)
	}
	orig.Transitions()
	orig.Partition(orig.All())
	var buf bytes.Buffer
	if err := universe.WriteSnapshot(&buf, orig, "race"); err != nil {
		t.Fatal(err)
	}
	u, _, err := universe.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sets := []trace.ProcSet{u.All(), trace.Singleton("p"), trace.Singleton("q")}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ps := sets[g%len(sets)]
			pt := u.Partition(ps)
			for i := 0; i < u.Len(); i += 7 {
				x := u.At(i)
				if c, ok := pt.ClassOfHash(x.ProjectionHash(ps)); !ok || c != pt.ClassOf(i) {
					t.Errorf("goroutine %d: member %d's projection hash not found in its class", g, i)
					return
				}
			}
			tr := u.Transitions()
			for i := 0; i < u.Len(); i += 11 {
				tr.Succ(i)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	requireIdenticalUniverses(t, "after concurrent queries", u, orig)
}
