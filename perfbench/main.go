// Command perfbench is the repository benchmark. It runs one seeded
// workload against an in-process hpld — the real service handler over a
// registry with the default configuration, behind loopback HTTP — with
// the load generated from the same process, checks every verdict, and
// prints one JSON result line.
//
//	perfbench --workload cold-start|serve-hot|serve-novel --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced replay (see
// trace.go). Run it through run.sh, which builds it from the checkout.
//
// Every workload reports the same metric names. "main" is the stream
// the workload exists to measure and "side" the one it is set against:
//
//	cold-start   main = build path (spec to both answers, empty snapshot dir)
//	             side = snapshot path (same answers after a restart over the dir)
//	serve-hot    main = full-universe memo hits, side = quotient memo hits
//	serve-novel  main = distinct generated epistemic formulas (memo misses),
//	             side = distinct generated temporal formulas; the hot pool
//	             sent alongside them is printed and recorded. The novel
//	             client is paced, so its rate is replies over the time
//	             spent waiting for them, not replies per wall second
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpl"
	"hpl/internal/obs"
)

// setupRounds is how many times a run repeats its set-up; setup_s is
// the median, so one slow round does not move it.
const setupRounds = 3

// novelFormulas is how many distinct formulas serve-novel's novel
// client sends, paced evenly over the window: a fixed count, so memo
// growth and the oracle sample repeat exactly, and the memo stays near
// 120 MiB over the warm universe whatever the run length.
const novelFormulas = 2000

// oracleSample is how many serve-novel replies are re-checked against a
// local session after the timed window.
const oracleSample = 32

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations attempted and failed, keeping the first few
// failure messages for the report.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	errs              []string
}

func (t *tally) record(err error) {
	t.attempted.Add(1)
	if err == nil {
		return
	}
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
	t.mu.Unlock()
}

// outcome is what a workload run measured.
type outcome struct {
	setup      samples
	main, side stream
	// hot is serve-novel's concurrent hot stream, printed and recorded
	// but not a result metric.
	hot stream
	// heap is the live heap at the end of the measured phase and
	// heapInuse the heap in use then, both in MiB.
	heap, heapInuse float64
	// counts are the determinism record: values that depend only on
	// the spec and the seed.
	counts map[string]int64
}

// measureHeap records the heap at the end of the measured phase, less
// the latency samples the benchmark holds then, whose number grows with
// the program's speed: heap_mib is the program's heap.
func (o *outcome) measureHeap() {
	live, inuse := heapMiB()
	held := float64(o.main.bytes()+o.side.bytes()+o.hot.bytes()) / (1 << 20)
	o.heap, o.heapInuse = live-held, inuse-held
}

type bench struct {
	seed    uint64
	seconds float64
	tmp     string
	t       tally
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "cold-start, serve-hot or serve-novel")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured time per run")
	traced := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	outDir := fs.String("out", ".bench_build", "directory for scratch files and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	b := &bench{seed: *seed, seconds: float64(*seconds), tmp: tmp}

	var res result
	rec := hostRecord(*workload, *seed, *traced)
	if *traced == 1 {
		tr, err := b.traceRun(*workload, *outDir)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		res.Metrics = tr.metrics
		rec["spans"] = tr.spans
		rec["span_file"] = tr.file
		rec["counts"] = tr.counts
	} else {
		var o *outcome
		switch *workload {
		case "cold-start":
			o = b.coldStart()
		case "serve-hot":
			o = b.serveHot()
		case "serve-novel":
			o = b.serveNovel()
		default:
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
			return 2
		}
		res.Metrics = b.endToEnd(*workload, o, rec, stderr)
		rec["counts"] = o.counts
		rec["heap_inuse_mib"] = o.heapInuse
	}
	res.Attempted, res.Failed = b.t.attempted.Load(), b.t.failed.Load()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	rec["failed_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	for _, e := range b.t.errs {
		fmt.Fprintf(stderr, "perfbench: FAILED: %s\n", e)
	}
	fmt.Fprintf(stderr, "perfbench: %s failed_frac %.6g (%d of %d)\n", *workload, rec["failed_frac"], res.Failed, res.Attempted)

	line, _ := json.Marshal(map[string]any{"record": rec})
	fmt.Fprintln(stdout, string(line))
	line, _ = json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEnd turns an outcome into the result's metrics and prints every
// figure with its unit and the name its stream goes by in the workload.
// The p99s and the side stream's rate are printed and recorded but are
// not result metrics: on a shared two-CPU machine they spread more from
// run to run than any bound a regression gate could use.
func (b *bench) endToEnd(workload string, o *outcome, rec map[string]any, w io.Writer) map[string]metric {
	names := map[string][2]string{
		"cold-start":  {"ttfa_build", "ttfa_snapshot"},
		"serve-hot":   {"hot_full", "hot_quotient"},
		"serve-novel": {"novel_epistemic", "novel_temporal"},
	}[workload]
	m := map[string]metric{"setup_s": {o.setup.median(), "s"}, "heap_mib": {o.heap, "MiB"}}
	fmt.Fprintf(w, "perfbench: %-12s %12.4f %-4s median of %d set-ups\n", "setup_s", m["setup_s"].Value, "s", len(o.setup))
	fmt.Fprintf(w, "perfbench: %-12s %12.4f %-4s live heap after GC (in use: %.1f MiB)\n", "heap_mib", o.heap, "MiB", o.heapInuse)
	sampleCounts := map[string]int{"setup": len(o.setup)}
	p99s := map[string]float64{}
	for i, s := range []stream{o.main, o.side} {
		prefix := [...]string{"main", "side"}[i]
		if s.ops() == 0 {
			b.t.record(fmt.Errorf("%s stream (%s) completed no operation", prefix, names[i]))
			continue
		}
		p50, tail, rate, isP99 := s.summary()
		m[prefix+"_p50_ms"] = metric{p50 * 1e3, "ms"}
		if prefix == "main" {
			m[prefix+"_per_s"] = metric{rate, "1/s"}
		} else {
			rec["side_per_s"] = rate
		}
		p99s[prefix] = tail * 1e3
		sampleCounts[prefix] = s.ops()
		tailName := "p99"
		if !isP99 {
			tailName = "max" // fewer than ten samples would lie beyond a p99
		}
		fmt.Fprintf(w, "perfbench: %-12s %12.4f %-4s %s median, n=%d in %d parts\n", prefix+"_p50_ms", p50*1e3, "ms", names[i], s.ops(), len(s.parts))
		fmt.Fprintf(w, "perfbench: %-12s %12.4f %-4s %s %s (recorded, not a result metric)\n", prefix+"_p99_ms", tail*1e3, "ms", names[i], tailName)
		note := ""
		if prefix == "side" {
			note = " (recorded, not a result metric)"
		}
		fmt.Fprintf(w, "perfbench: %-12s %12.4f %-4s %s%s\n", prefix+"_per_s", rate, "1/s", names[i], note)
	}
	if o.hot.ops() > 0 {
		p50, tail, rate, _ := o.hot.summary()
		rec["hot_ms"] = map[string]float64{"p50": p50 * 1e3, "p99": tail * 1e3}
		rec["hot_per_s"] = rate
		sampleCounts["hot"] = o.hot.ops()
		fmt.Fprintf(w, "perfbench: %-12s %12.4f %-4s p99 %.4f ms, %.1f/s, n=%d (recorded, not a result metric)\n", "hot_p50_ms", p50*1e3, "ms", tail*1e3, rate, o.hot.ops())
	}
	rec["samples"] = sampleCounts
	rec["p99_ms"] = p99s
	rec["streams"] = map[string]string{"main": names[0], "side": names[1]}
	return m
}

// hostRecord is carried by every result, so figures from different
// machines are never compared silently.
func hostRecord(workload string, seed uint64, traced int) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"trace":      traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpu,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// memoMisses is the evaluator's memo-miss counter, the one hpld
// exports as hpl_eval_memo_misses_total.
var memoMisses = obs.Default.Counter("hpl_eval_memo_misses_total", "")

// coldStart times the two cold answers on a fresh registry with an
// empty snapshot directory (the build path, snapshot write included),
// then on a fresh registry over the populated directory (the snapshot
// path), once per iteration until the window is spent. Set-up is one
// such iteration on the five-event universe, which loads the code and
// heap paths the timed iterations then find warm.
func (b *bench) coldStart() *outcome {
	o := &outcome{counts: map[string]int64{}}
	for i := 0; i < setupRounds; i++ {
		t := time.Now()
		b.coldIteration(warmSpec, nil, nil)
		o.setup = append(o.setup, since(t))
	}
	var builds, snaps, heaps, inuse samples
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	for len(builds) < 3 || time.Now().Before(deadline) {
		build, snap, heap, heapInuse := b.coldIteration(fullSpec, o.counts, nil)
		builds = append(builds, build)
		snaps = append(snaps, snap)
		heaps = append(heaps, heap)
		inuse = append(inuse, heapInuse)
	}
	o.main.add(builds, builds.sum())
	o.side.add(snaps, snaps.sum())
	o.heap, o.heapInuse = heaps.median(), inuse.median()
	return o
}

// coldProbe looks into a cold-start iteration from outside, for the
// traced run: around wraps each request's send, and after sees each
// path's daemon once its answers are in, before it closes.
type coldProbe struct {
	around func(snapshot bool, send func())
	after  func(snapshot bool, d *hpld)
}

// coldIteration runs one build path and one snapshot path and returns
// their times and the live and in-use heap after the snapshot path's
// answers. With counts non-nil it asserts and records the snapshot
// size; with probe non-nil the probe sees each request and each path's
// daemon.
func (b *bench) coldIteration(spec hpl.UniverseSpec, counts map[string]int64, probe *coldProbe) (build, snap, heap, heapInuse float64) {
	ctx := context.Background()
	dir, err := os.MkdirTemp(b.tmp, "snap-")
	if err != nil {
		b.t.record(err)
		return
	}
	defer os.RemoveAll(dir)
	reqs := newRequests(spec, coldQuery)
	path := func(wantSnapshot bool) float64 {
		runtime.GC()
		d := startHPLD(dir, 1, nil)
		defer d.close()
		t := time.Now()
		for _, r := range reqs {
			send := func() { b.t.record(d.checked(ctx, r)) }
			if probe != nil {
				probe.around(wantSnapshot, send)
			} else {
				send()
			}
		}
		el := since(t)
		if probe != nil {
			probe.after(wantSnapshot, d)
		}
		if st := d.reg.Stats(); (st.SnapshotHits == 1) != wantSnapshot || st.Builds != 1 {
			b.t.record(fmt.Errorf("cold-start: registry stats %+v, want snapshot hit %t", st, wantSnapshot))
		}
		if wantSnapshot {
			heap, heapInuse = heapMiB()
		}
		return el
	}
	build = path(false)
	if counts != nil {
		size, err := snapshotSize(dir)
		if err == nil {
			err = pin(counts, "universe.snapshot_bytes", size, snapshotBytes)
		}
		if err != nil {
			b.t.record(fmt.Errorf("cold-start: %v", err))
		}
	}
	snap = path(true)
	return build, snap, heap, heapInuse
}

// warm starts a daemon and sends every request once, so its universes
// and their memoized formulas are hot; it returns the daemon, how long
// that took, and the memo misses it caused.
func (b *bench) warm(clients int, reqs ...[]request) (*hpld, float64, int64) {
	runtime.GC()
	ctx := context.Background()
	misses := memoMisses.Value()
	t := time.Now()
	d := startHPLD("", clients, nil)
	for _, rs := range reqs {
		for _, r := range rs {
			b.t.record(d.checked(ctx, r))
		}
	}
	return d, since(t), memoMisses.Value() - misses
}

// setup repeats the warm-up setupRounds times, each on a fresh daemon,
// and keeps the last daemon for the timed window. wantMisses is the
// pinned number of memo misses the warm-up causes.
func (b *bench) setup(o *outcome, clients int, wantMisses int64, reqs ...[]request) *hpld {
	var d *hpld
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			d.close()
		}
		var secs float64
		var misses int64
		d, secs, misses = b.warm(clients, reqs...)
		o.setup = append(o.setup, secs)
		if err := pin(o.counts, "knowledge.pool_memo_misses", misses, wantMisses); err != nil {
			b.t.record(err)
		}
	}
	return d
}

// hotLoop sends the pool's requests in a fixed order until stop is
// closed: one request in four is temporal. When quot is non-empty the
// client alternates full and quotient requests, recording their
// latencies into the two streams.
func (b *bench) hotLoop(d *hpld, client int, full, quot []request, stop <-chan struct{}, fullLat, quotLat *samples) {
	ctx := context.Background()
	fe, ft := splitTemporal(full)
	qe, qt := splitTemporal(quot)
	for i := client; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		e, tm, lat := fe, ft, fullLat
		k := i
		if len(quot) > 0 {
			k = i / 2
			if i%2 == 1 {
				e, tm, lat = qe, qt, quotLat
			}
		}
		r := e[k%len(e)]
		if k%4 == 0 {
			r = tm[(k/4)%len(tm)]
		}
		t := time.Now()
		err := d.checked(ctx, r)
		*lat = append(*lat, since(t))
		b.t.record(err)
	}
}

// splitTemporal splits requests into epistemic and temporal ones.
func splitTemporal(rs []request) (epistemic, temporal []request) {
	for _, r := range rs {
		if r.q.temporal {
			temporal = append(temporal, r)
		} else {
			epistemic = append(epistemic, r)
		}
	}
	return epistemic, temporal
}

// segmentSeconds is the length of one part of a serve window; the
// metrics are medians over the parts, so a few seconds of interference
// on a shared machine move a few parts, not the result.
const segmentSeconds = 1

// segment runs fn as one part of a serve window and returns its wall
// time.
func segment(fn func()) float64 {
	start := time.Now()
	fn()
	return since(start)
}

// serveHot: set-up warms the full universe, its quotient and both
// pools; then one closed-loop client per CPU sends batch-1 memo hits,
// full and quotient alternating, for the window.
func (b *bench) serveHot() *outcome {
	o := &outcome{counts: map[string]int64{}}
	full, quot := newRequests(fullSpec, fullPool), newRequests(quotSpec, quotPool)
	clients := runtime.NumCPU()
	d := b.setup(o, clients, fullPoolMisses+quotPoolMisses, full, quot)
	defer d.close()

	runtime.GC()
	segments := int(b.seconds) / segmentSeconds
	for s := 0; s < segments; s++ {
		fullLat := make([]samples, clients)
		quotLat := make([]samples, clients)
		window := segment(func() {
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					b.hotLoop(d, c, full, quot, stop, &fullLat[c], &quotLat[c])
				}()
			}
			time.Sleep(segmentSeconds * time.Second)
			close(stop)
			wg.Wait()
		})
		o.main.add(slices.Concat(fullLat...), window)
		o.side.add(slices.Concat(quotLat...), window)
	}
	o.measureHeap()
	return o
}

// serveNovel: set-up warms the full universe, its pool and the
// partitions of every process set; then one
// closed-loop client sends a seeded list of distinct generated formulas,
// paced evenly over the window, while a second repeats the hot pool for
// the whole window. The novel replies are the two measured streams,
// epistemic and temporal; the hot stream is recorded beside them. After
// the window a seeded sample of the novel replies is re-checked against
// a local session.
func (b *bench) serveNovel() *outcome {
	o := &outcome{counts: map[string]int64{}}
	full := newRequests(fullSpec, fullPool)
	d := b.setup(o, 2, fullPoolMisses+partitionWarmupMisses, full, newRequests(fullSpec, partitionWarmup))

	segments := int(b.seconds) / segmentSeconds
	novel := newRequests(fullSpec, generateFormulas(b.seed, novelFormulas, atomNames(fullSpec), procNames()))
	got := make([]verdict, len(novel))
	ctx := context.Background()
	misses := memoMisses.Value()
	runtime.GC()
	var epiLat, tempLat samples
	for s := 0; s < segments; s++ {
		var hotLat samples
		window := segment(func() {
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				b.hotLoop(d, 0, full, nil, stop, &hotLat, nil)
			}()
			start := time.Now()
			lo, hi := s*len(novel)/segments, (s+1)*len(novel)/segments
			for i := lo; i < hi; i++ {
				due := start.Add(time.Duration(i-lo) * time.Second * segmentSeconds / time.Duration(hi-lo))
				time.Sleep(time.Until(due))
				r := novel[i]
				t := time.Now()
				resp, err := d.do(ctx, r, "")
				if r.q.temporal {
					tempLat = append(tempLat, since(t))
				} else {
					epiLat = append(epiLat, since(t))
				}
				if err == nil {
					err = checkGolden(r, resp)
				}
				if err == nil && resp.Results[0].Total != fullMembers {
					err = fmt.Errorf("%q: answered over %d members, want %d", r.q.text, resp.Results[0].Total, fullMembers)
				}
				if err == nil {
					got[i] = verdictOf(resp.Results[0], r.q.temporal)
				}
				b.t.record(err)
			}
			time.Sleep(time.Until(start.Add(segmentSeconds * time.Second)))
			close(stop)
			wg.Wait()
		})
		o.hot.add(hotLat, window)
	}
	// Every novel formula costs differently and a segment holds few of
	// them, so each novel stream is one part over the whole window. The
	// client is paced, so its completions per wall second would be the
	// pacer's rate; its rate is the service's instead: replies over the
	// time spent waiting for them.
	o.main.add(epiLat, epiLat.sum())
	o.side.add(tempLat, tempLat.sum())
	o.counts["knowledge.novel_memo_misses"] = memoMisses.Value() - misses
	o.measureHeap()
	d.close()

	b.oracle(novel, got)
	return o
}

// oracle re-checks a seeded sample of served verdicts on a local
// hpl.CheckSpec session, outside any timing.
func (b *bench) oracle(reqs []request, got []verdict) {
	runtime.GC()
	ck, err := hpl.CheckSpec(fullSpec, hpl.WithParallelism(runtime.GOMAXPROCS(0)))
	if err != nil {
		b.t.record(fmt.Errorf("oracle: %v", err))
		return
	}
	rng := rand.New(rand.NewPCG(b.seed, 0x6f7261636c65))
	for _, i := range rng.Perm(len(reqs))[:min(oracleSample, len(reqs))] {
		if got[i].Total == 0 {
			continue // the reply itself failed and is counted already
		}
		want, err := localVerdict(ck, reqs[i].q)
		if err == nil && want != got[i] {
			err = fmt.Errorf("oracle: %q served %+v, local session says %+v", reqs[i].q.text, got[i], want)
		}
		b.t.record(err)
	}
}

func atomNames(spec hpl.UniverseSpec) []string {
	var out []string
	for _, p := range spec.Predicates() {
		out = append(out, p.Name())
	}
	return out
}

func procNames() []string {
	out := make([]string, len(procs))
	for i, p := range procs {
		out[i] = string(p)
	}
	return out
}
