package universe

import (
	"errors"
	"testing"

	"hpl/internal/trace"
)

func freeTwoProc(t *testing.T, maxEvents int) *Universe {
	t.Helper()
	u, err := EnumerateWith(NewFree(FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 1,
	}), WithMaxEvents(maxEvents))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestEnumerateIncludesEmpty(t *testing.T) {
	u := freeTwoProc(t, 3)
	if !u.Contains(trace.Empty()) {
		t.Fatalf("universe must contain the null computation")
	}
}

func TestEnumeratePrefixClosed(t *testing.T) {
	u := freeTwoProc(t, 4)
	for i := 0; i < u.Len(); i++ {
		c := u.At(i)
		for _, pre := range c.Prefixes() {
			if !u.Contains(pre) {
				t.Fatalf("prefix of member missing: %q of %q", pre.Key(), c.Key())
			}
		}
	}
}

func TestEnumerateExactSmall(t *testing.T) {
	// Two processes, 1 send each, no internals, maxEvents=2.
	// Computations: null; p sends (s_p); q sends (s_q);
	// length 2: s_p;s_q, s_q;s_p, s_p;recv_q, s_q;recv_p.
	u := freeTwoProc(t, 2)
	if got, want := u.Len(), 7; got != want {
		for i := 0; i < u.Len(); i++ {
			t.Logf("member %d: %v", i, u.At(i).Key())
		}
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

func TestEnumerateReceivesMatchSends(t *testing.T) {
	u := freeTwoProc(t, 4)
	for i := 0; i < u.Len(); i++ {
		if _, err := trace.NewComputation(u.At(i).Events()); err != nil {
			t.Fatalf("member %d invalid: %v", i, err)
		}
	}
}

func TestEnumerateCap(t *testing.T) {
	_, err := EnumerateWith(NewFree(FreeConfig{
		Procs:    []trace.ProcID{"p", "q", "r"},
		MaxSends: 2,
	}), WithMaxEvents(6), WithCap(10))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestNewDedups(t *testing.T) {
	c := trace.NewBuilder().Internal("p", "x").MustBuild()
	u := New([]*trace.Computation{c, c, trace.Empty()}, trace.NewProcSet("p"))
	if u.Len() != 2 {
		t.Fatalf("Len = %d, want 2", u.Len())
	}
}

func TestClassMatchesScan(t *testing.T) {
	u := freeTwoProc(t, 3)
	sets := []trace.ProcSet{
		trace.NewProcSet(),
		trace.Singleton("p"),
		trace.Singleton("q"),
		trace.NewProcSet("p", "q"),
	}
	for i := 0; i < u.Len(); i++ {
		x := u.At(i)
		for _, p := range sets {
			fast := u.Class(x, p)
			slow := u.ClassScan(x, p)
			if len(fast) != len(slow) {
				t.Fatalf("class size mismatch for %v: %d vs %d", p, len(fast), len(slow))
			}
			for k := range fast {
				if fast[k] != slow[k] {
					t.Fatalf("class member mismatch for %v", p)
				}
			}
		}
	}
}

func TestClassEmptySetIsEverything(t *testing.T) {
	// x [{}] y for all x, y: the class of the empty set is the whole
	// universe.
	u := freeTwoProc(t, 3)
	got := u.Class(u.At(0), trace.NewProcSet())
	if len(got) != u.Len() {
		t.Fatalf("empty-set class = %d members, want %d", len(got), u.Len())
	}
}

func TestClassReflexive(t *testing.T) {
	u := freeTwoProc(t, 3)
	for i := 0; i < u.Len(); i++ {
		found := false
		for _, j := range u.Class(u.At(i), u.All()) {
			if j == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("computation %d missing from its own [D]-class", i)
		}
	}
}

func TestClassOfNonMember(t *testing.T) {
	u := freeTwoProc(t, 2)
	// A computation from a different system: r is not in the universe.
	x := trace.NewBuilder().Internal("r", "z").MustBuild()
	if u.Contains(x) {
		t.Fatalf("foreign computation must not be a member")
	}
	// Its [p]-class is the set of members where p did nothing.
	cls := u.Class(x, trace.Singleton("p"))
	for _, j := range cls {
		if len(u.At(j).Projection(trace.Singleton("p"))) != 0 {
			t.Fatalf("class member has p-events")
		}
	}
	if len(cls) == 0 {
		t.Fatalf("expected nonempty class")
	}
}

func TestIndexOfMissing(t *testing.T) {
	u := freeTwoProc(t, 2)
	x := trace.NewBuilder().Internal("zz", "z").MustBuild()
	if got := u.IndexOf(x); got != -1 {
		t.Fatalf("IndexOf(foreign) = %d", got)
	}
}

func TestComputationsIsCopy(t *testing.T) {
	u := freeTwoProc(t, 2)
	cs := u.Computations()
	cs[0] = nil
	if u.At(0) == nil {
		t.Fatalf("Computations exposed internal storage")
	}
}

func TestFreeInternalEvents(t *testing.T) {
	u, err := EnumerateWith(NewFree(FreeConfig{
		Procs:       []trace.ProcID{"p"},
		MaxInternal: 2,
		MaxSends:    0,
	}), WithMaxEvents(2))
	if err != nil {
		t.Fatal(err)
	}
	// null, i, ii.
	if u.Len() != 3 {
		t.Fatalf("Len = %d, want 3", u.Len())
	}
}

func TestFreeTagAlternatives(t *testing.T) {
	u, err := EnumerateWith(NewFree(FreeConfig{
		Procs:        []trace.ProcID{"p"},
		MaxInternal:  1,
		InternalTags: []string{"a", "b"},
	}), WithMaxEvents(1))
	if err != nil {
		t.Fatal(err)
	}
	// null, internal "a", internal "b".
	if u.Len() != 3 {
		t.Fatalf("Len = %d, want 3", u.Len())
	}
}

func TestMustEnumerateWithPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	MustEnumerateWith(NewFree(FreeConfig{
		Procs:    []trace.ProcID{"p", "q", "r"},
		MaxSends: 2,
	}), WithMaxEvents(6), WithCap(5))
}

func TestDecodeEncodeFreeState(t *testing.T) {
	s, i := decodeFree(encodeFree(3, 7))
	if s != 3 || i != 7 {
		t.Fatalf("round trip = (%d,%d)", s, i)
	}
	s, i = decodeFree("garbage")
	if s != 0 || i != 0 {
		t.Fatalf("garbage decode = (%d,%d)", s, i)
	}
}

// TestPartitionVerifyReportsCollision forces a projection-hash
// collision — a member whose {p} projection differs from the null
// computation's is given the null computation's lanes — and checks that
// a build under hash verification reports it.
func TestPartitionVerifyReportsCollision(t *testing.T) {
	u, err := EnumerateWith(NewFree(FreeConfig{
		Procs:    []trace.ProcID{"p", "q"},
		MaxSends: 1,
	}), WithMaxEvents(4), WithHashVerify())
	if err != nil {
		t.Fatal(err)
	}
	p := trace.Singleton("p")
	NewPartition(u, p) // an honest table passes verification
	b := 1
	for u.At(b).ProjectionKey(p) == u.At(0).ProjectionKey(p) {
		b++
	}
	lt := u.projectionLanes()
	copy(lt.h[b*lt.width:(b+1)*lt.width], lt.h[:lt.width])
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, ErrHashCollision) {
			t.Fatalf("verifying build panicked with %v, want ErrHashCollision", err)
		}
	}()
	NewPartition(u, p)
	t.Fatal("verifying build accepted a collision")
}
