package main

import (
	"fmt"
	"os"
	"path/filepath"

	"hpl"
	"hpl/internal/service"
)

// verdict is what the oracle compares: member counts, the
// orbit-weighted counts of a quotient (zero on a full universe), and
// for temporal queries the verdict at the null computation.
type verdict struct {
	Holding, Total         int
	FullHolding, FullTotal int64
	AtInit                 int // -1: not a temporal query; else 0 or 1
}

func goldenKey(spec hpl.UniverseSpec, q query) string {
	return fmt.Sprintf("me=%d sym=%s temporal=%t %s", spec.MaxEvents, spec.Canonical().Symmetry, q.temporal, q.text)
}

func verdictOf(res service.CheckResult, temporal bool) verdict {
	v := verdict{Holding: res.Holding, Total: res.Total, FullHolding: res.FullHolding, FullTotal: res.FullTotal, AtInit: -1}
	if temporal && res.AtInit != nil {
		v.AtInit = 0
		if *res.AtInit {
			v.AtInit = 1
		}
	}
	return v
}

// checkGolden checks a batch-1 reply against the pinned verdict of its
// formula. Every request whose formula is in the table must match it;
// a formula outside the table only has to be answered without error.
func checkGolden(r request, resp service.CheckResponse) error {
	if len(resp.Results) != 1 {
		return fmt.Errorf("%q: %d results for a batch of one", r.q.text, len(resp.Results))
	}
	res := resp.Results[0]
	if res.Error != "" {
		return fmt.Errorf("%q: %s", r.q.text, res.Error)
	}
	want, ok := golden[goldenKey(r.spec, r.q)]
	if !ok {
		return nil
	}
	if got := verdictOf(res, r.q.temporal); got != want {
		return fmt.Errorf("%q: verdict %+v, want %+v", r.q.text, got, want)
	}
	return nil
}

// Counts the determinism guard asserts: they depend on the spec alone,
// so any drift is a change in the program, not noise.
const (
	fullMembers     = 107593
	quotMembers     = 17933
	transitionEdges = 107592
	// partitionClasses is the class count of the three singleton
	// partitions of the full universe together.
	partitionClasses = 909
	// snapshotBytes is the size of the snapshot the registry writes for
	// the full universe: members and states, before any query has
	// built a partition.
	snapshotBytes = 970793
	// fullPoolMisses and quotPoolMisses are the memo misses that warming
	// the hot pools on fresh sessions causes: one per distinct
	// hash-consed subformula.
	fullPoolMisses = 24
	quotPoolMisses = 21
	// partitionWarmupMisses are the further misses partitionWarmup
	// causes after the full pool: one K node per process set.
	partitionWarmupMisses = 7
)

// pin records a count and checks it: against want when want >= 0, and
// always against any earlier value recorded under the same name in
// this run.
func pin(counts map[string]int64, name string, got, want int64) error {
	if prev, ok := counts[name]; ok && prev != got {
		return fmt.Errorf("determinism: %s was %d, now %d", name, prev, got)
	}
	counts[name] = got
	if want >= 0 && got != want {
		return fmt.Errorf("determinism: %s is %d, pinned at %d", name, got, want)
	}
	return nil
}

// snapshotSize returns the size of the one snapshot file in dir.
func snapshotSize(dir string) (int64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.hplsnap"))
	if err != nil || len(files) != 1 {
		return 0, fmt.Errorf("want one snapshot in %s, found %d (%v)", dir, len(files), err)
	}
	fi, err := os.Stat(files[0])
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// golden holds the pinned verdicts of the cold, warm-up and hot-pool
// formulas. TestGoldenVerdicts recomputes them with a local
// hpl.CheckSpec session.
var golden = func() map[string]verdict {
	full := func(holding, total, atInit int) verdict {
		return verdict{Holding: holding, Total: total, AtInit: atInit}
	}
	quot := func(holding, atInit int) verdict {
		return verdict{Holding: holding, Total: quotMembers, FullHolding: fullMembers, FullTotal: fullMembers, AtInit: atInit}
	}
	g := map[string]verdict{}
	for i, v := range []verdict{full(16873, 16873, -1), full(16873, 16873, 1)} {
		g[goldenKey(warmSpec, coldQuery[i])] = v
	}
	for i, v := range []verdict{full(fullMembers, fullMembers, -1), full(fullMembers, fullMembers, 1)} {
		g[goldenKey(fullSpec, coldQuery[i])] = v
	}
	for i, v := range []verdict{
		full(fullMembers, fullMembers, -1),
		full(fullMembers, fullMembers, -1),
		full(23284, fullMembers, -1),
		full(104487, fullMembers, -1),
		full(fullMembers, fullMembers, -1),
		full(fullMembers, fullMembers, 1),
		full(30966, fullMembers, 1),
		full(fullMembers, fullMembers, 1),
	} {
		g[goldenKey(fullSpec, fullPool[i])] = v
	}
	for i, v := range []verdict{
		quot(quotMembers, -1), quot(quotMembers, -1), quot(quotMembers, -1), quot(quotMembers, -1), quot(quotMembers, -1),
		quot(quotMembers, 1), quot(quotMembers, 1), quot(quotMembers, 1),
	} {
		g[goldenKey(quotSpec, quotPool[i])] = v
	}
	return g
}()

// goldenCase is a universe and formulas the golden table covers.
type goldenCase struct {
	spec hpl.UniverseSpec
	qs   []query
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{warmSpec, coldQuery},
		{fullSpec, append(append([]query{}, coldQuery...), fullPool...)},
		{quotSpec, quotPool},
	}
}

// localVerdict checks a formula on a local session, the way the
// service's handler reports it.
func localVerdict(ck *hpl.Checker, q query) (verdict, error) {
	v := verdict{AtInit: -1}
	var rep hpl.Report
	if q.temporal {
		tr, err := ck.ParseAndCheckTemporal(q.text)
		if err != nil {
			return v, err
		}
		rep = tr.Report
		v.AtInit = 0
		if tr.AtInit {
			v.AtInit = 1
		}
	} else {
		r, err := ck.ParseAndCheck(q.text)
		if err != nil {
			return v, err
		}
		rep = r
	}
	v.Holding, v.Total = rep.Holding, rep.Total
	if ck.Universe().IsQuotient() {
		v.FullHolding, v.FullTotal = rep.FullHolding, rep.FullTotal
	}
	return v, nil
}
