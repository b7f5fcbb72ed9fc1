package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"hpl"
	"hpl/internal/obs"
	"hpl/internal/service"
)

// The traced run splits each workload's time into layers from outside
// the program; the program carries no span of its own. It runs one real
// cold-start iteration (build path, then snapshot path) and splits each
// of its requests by the deltas of the histograms every build already
// feeds (hpld serves them on /metrics): handler time, materialization,
// and the universe build phases. It then replays serve-hot requests on
// the full universe and its quotient, and serve-novel formulas, through
// the layers' public entry points in the order hpld's handler makes the
// calls, with a span around every call, since the histograms do not
// split a warm request. The run is the same for every workload, so
// every traced result carries every per-layer metric; the workload's
// seed picks the novel formulas.

const (
	// hotReplays is the number of serve-hot requests replayed; every
	// other one runs untraced, and the two halves give the overhead.
	hotReplays = 2000
	// novelReplays is the number of serve-novel formulas replayed.
	novelReplays = 200
	// allocRequests is the number of direct handler calls the
	// allocation count is averaged over.
	allocRequests = 1000
	// maxRootSelfFrac bounds the share of a cold-start iteration no
	// span covers: above it the replay misses a layer.
	maxRootSelfFrac = 0.10
)

// span is one timed call. Start and End are nanoseconds since the run
// began; Parent indexes the enclosing span (-1 for a root); Req is the
// request the span belongs to. Spans read from the program's
// histograms have exact durations but no start of their own: they are
// laid end to end from their parent's start.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
}

// recorder keeps spans in memory. The replay is sequential, so the
// open spans form a stack; spans timed elsewhere (handler spans on the
// server's goroutine, histogram deltas) are added after the fact.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int32
	req   int32
}

func (r *recorder) now() int64 { return time.Since(r.t0).Nanoseconds() }

// root runs fn as request req's root span and returns its wall time,
// which is measured whether or not the recorder is on.
func (r *recorder) root(name string, req int32, fn func()) time.Duration {
	r.req = req
	t := time.Now()
	r.span(name, fn)
	return time.Since(t)
}

func (r *recorder) span(name string, fn func()) {
	if !r.on {
		fn()
		return
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Start: r.now(), Parent: parent, Req: r.req})
	r.stack = append(r.stack, i)
	fn()
	r.spans[i].End = r.now()
	r.stack = r.stack[:len(r.stack)-1]
}

// add appends a span timed elsewhere and returns its index.
func (r *recorder) add(name string, parent, req int32, start, end time.Time) int32 {
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.t0).Nanoseconds(),
		End: end.Sub(r.t0).Nanoseconds(), Parent: parent, Req: req})
	return int32(len(r.spans) - 1)
}

// handlerTimes records Server.ServeHTTP's start and end per request ID.
type handlerTimes struct {
	mu sync.Mutex
	at map[string][2]time.Time
}

func (h *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		h.mu.Lock()
		h.at[r.Header.Get("X-Request-ID")] = [2]time.Time{start, end}
		h.mu.Unlock()
	})
}

func (h *handlerTimes) take(id string) ([2]time.Time, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t, ok := h.at[id]
	delete(h.at, id)
	return t, ok
}

type traceResult struct {
	metrics map[string]metric
	counts  map[string]int64
	spans   int
	file    string
}

func (b *bench) traceRun(workload, outDir string) (*traceResult, error) {
	switch workload {
	case "cold-start", "serve-hot", "serve-novel":
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	rec := &recorder{on: true, t0: time.Now()}
	counts := map[string]int64{}
	m := map[string]metric{}
	b.traceCold(rec, counts)
	b.replayServe(rec, counts, m)

	agg := aggregate(rec.spans)
	sec := func(name, key string) { m[name] = metric{agg.durSum[key], "s"} }
	sec("universe.enumerate_s", "cold-start.build/universe.enumerate")
	sec("universe.partition_s", "cold-start.build/universe.partition")
	sec("universe.transitions_s", "cold-start.build/universe.transitions")
	sec("universe.snapshot_encode_s", "cold-start.build/universe.snapshot_encode")
	sec("universe.snapshot_decode_s", "cold-start.snapshot/universe.snapshot_decode")
	sec("universe.snapshot_partition_s", "cold-start.snapshot/universe.partition")
	sec("universe.snapshot_transitions_s", "cold-start.snapshot/universe.transitions")
	m["service.materialize_s"] = metric{agg.selfSum["cold-start.build/service.materialize"], "s"}
	us := func(name, key string) { m[name] = metric{agg.dur[key].median() * 1e6, "us"} }
	us("service.registry_hit_us", "serve-hot.request/service.registry_get")
	us("service.json_decode_us", "serve-hot.request/service.json_decode")
	us("service.json_encode_us", "serve-hot.request/service.json_encode")
	us("service.handler_us", "serve-hot.roundtrip/service.handler")
	us("logic.parse_us", "serve-hot.request/logic.parse")
	us("knowledge.check_hit_us", "serve-hot.request/knowledge.check_hit")
	us("knowledge.check_hit_quotient_us", "serve-hot.request/knowledge.check_hit_quotient")
	us("knowledge.check_miss_us", "serve-novel.request/knowledge.check_miss")
	us("temporal.check_miss_us", "serve-novel.request/temporal.check_miss")
	m["service.transport_us"] = metric{agg.transport.median() * 1e6, "us"}
	for _, w := range []string{"serve-hot", "serve-novel"} {
		m[w+".root_self_frac"] = metric{agg.rootSelf[w+".request"] / agg.rootWall[w+".request"], "frac"}
	}
	coldSelf := (agg.rootSelf["cold-start.build"] + agg.rootSelf["cold-start.snapshot"]) /
		(agg.rootWall["cold-start.build"] + agg.rootWall["cold-start.snapshot"])
	m["cold-start.root_self_frac"] = metric{coldSelf, "frac"}
	if coldSelf > maxRootSelfFrac {
		b.t.record(fmt.Errorf("trace: cold-start root self time is %.1f%% of its wall time, over %.0f%%", 100*coldSelf, 100*maxRootSelfFrac))
	}
	for _, k := range []string{"universe.members", "universe.quotient_members", "universe.partition_classes",
		"universe.transition_edges", "universe.snapshot_bytes", "knowledge.memo_misses"} {
		m[k] = metric{float64(counts[k]), "count"}
	}
	m["universe.snapshot_bytes"] = metric{float64(counts["universe.snapshot_bytes"]), "bytes"}
	m["knowledge.memo_misses_per_formula"] = metric{float64(counts["knowledge.memo_misses"]) / novelReplays, "count"}
	delete(m, "knowledge.memo_misses")

	file := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, b.seed))
	if err := writeSpans(file, rec.spans); err != nil {
		return nil, err
	}
	return &traceResult{metrics: m, counts: counts, spans: len(rec.spans), file: file}, nil
}

// aggregation of the spans, keyed "<root name>/<span name>".
type aggregation struct {
	dur                map[string]samples
	durSum, selfSum    map[string]float64
	rootWall, rootSelf map[string]float64
	// transport is, per traced round trip, its time minus the
	// handler's.
	transport samples
}

func aggregate(spans []span) aggregation {
	a := aggregation{dur: map[string]samples{}, durSum: map[string]float64{}, selfSum: map[string]float64{},
		rootWall: map[string]float64{}, rootSelf: map[string]float64{}}
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	rootOf := make([]int32, len(spans))
	for i, s := range spans {
		rootOf[i] = int32(i)
		if s.Parent >= 0 {
			rootOf[i] = rootOf[s.Parent] // parents precede children
		}
		d := float64(s.End-s.Start) / 1e9
		self := float64(s.End-s.Start-child[i]) / 1e9
		if s.Parent < 0 {
			a.rootWall[s.Name] += d
			a.rootSelf[s.Name] += self
			continue
		}
		root := spans[rootOf[i]].Name
		key := root + "/" + s.Name
		a.dur[key] = append(a.dur[key], d)
		a.durSum[key] += d
		a.selfSum[key] += self
		if key == "serve-hot.roundtrip/service.handler" {
			a.transport = append(a.transport, float64(spans[s.Parent].End-spans[s.Parent].Start)/1e9-d)
		}
	}
	return a
}

func writeSpans(file string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func buildPhase(phase string) *obs.Histogram {
	return obs.Default.Histogram("hpl_build_phase_seconds", "", obs.TimeBuckets, "phase", phase)
}

func materializeSeconds(source string) *obs.Histogram {
	return obs.Default.Histogram("hpld_registry_materialize_seconds", "", obs.TimeBuckets, "source", source)
}

func requestSeconds(endpoint string) *obs.Histogram {
	return obs.Default.Histogram("hpld_http_request_seconds", "", obs.TimeBuckets, "endpoint", endpoint)
}

// coldSpans are the spans a cold-start request is split into, parents
// first, each the sum of the program histograms it names. The registry
// times a materialization before it writes the snapshot, so the encode
// is the handler's child, not the materialization's; partitions and the
// transition graph are built lazily by the query that needs them.
var coldSpans = []struct {
	name, parent string
	hists        []*obs.Histogram
}{
	{"service.handler", "", []*obs.Histogram{requestSeconds("/v1/check"), requestSeconds("/v1/check-temporal")}},
	{"service.materialize", "service.handler", []*obs.Histogram{
		materializeSeconds(service.SourceBuild), materializeSeconds(service.SourceSnapshot)}},
	{"universe.enumerate", "service.materialize", []*obs.Histogram{buildPhase("expand"), buildPhase("canonicalize")}},
	{"universe.snapshot_decode", "service.materialize", []*obs.Histogram{buildPhase("snapshot_decode")}},
	{"universe.snapshot_encode", "service.handler", []*obs.Histogram{buildPhase("snapshot_encode")}},
	{"universe.partition", "service.handler", []*obs.Histogram{buildPhase("partition")}},
	{"universe.transitions", "service.handler", []*obs.Histogram{buildPhase("transitions")}},
}

// readColdSpans reads each cold span's observation count and summed
// seconds.
func readColdSpans() (counts []int64, secs []float64) {
	for _, c := range coldSpans {
		var n int64
		var t float64
		for _, h := range c.hists {
			n += h.Count()
			t += h.Sum()
		}
		counts, secs = append(counts, n), append(secs, t)
	}
	return counts, secs
}

// traceCold runs one real cold-start iteration on the full universe and
// records each request as a root span, split into the cold spans whose
// histograms it moved. After the build path it pins the universe's
// counts on the registry's entry.
func (b *bench) traceCold(rec *recorder, counts map[string]int64) {
	var req int32
	probe := &coldProbe{
		around: func(snapshot bool, send func()) {
			root := "cold-start.build"
			if snapshot {
				root = "cold-start.snapshot"
			}
			n0, s0 := readColdSpans()
			start := time.Now()
			send()
			end := time.Now()
			n1, s1 := readColdSpans()
			at := map[string]int32{"": rec.add(root, -1, req, start, end)}
			next := map[int32]time.Time{at[""]: start}
			for i, c := range coldSpans {
				parent, ok := at[c.parent]
				if n1[i] == n0[i] || !ok {
					continue
				}
				from := next[parent]
				to := from.Add(time.Duration((s1[i] - s0[i]) * 1e9))
				next[parent] = to
				at[c.name] = rec.add(c.name, parent, req, from, to)
				next[at[c.name]] = from
			}
			req++
		},
		after: func(snapshot bool, d *hpld) {
			if snapshot {
				return
			}
			e, _, err := d.reg.Get(context.Background(), fullSpec)
			if err != nil {
				b.t.record(fmt.Errorf("trace cold-start: %v", err))
				return
			}
			u := e.Checker.Universe()
			var classes int64
			for _, p := range procs {
				classes += int64(u.Partition(hpl.Singleton(p)).NumClasses())
			}
			for _, c := range []struct {
				name      string
				got, want int64
			}{
				{"universe.members", int64(u.Len()), fullMembers},
				{"universe.partition_classes", classes, partitionClasses},
				{"universe.transition_edges", int64(u.Transitions().NumEdges()), transitionEdges},
			} {
				b.t.record(pin(counts, c.name, c.got, c.want))
			}
		},
	}
	b.coldIteration(fullSpec, counts, probe)
}

// decodeRequest is the handler's body decoding.
func decodeRequest(rec *recorder, r request) (service.CheckRequest, error) {
	var req service.CheckRequest
	var err error
	rec.span("service.json_decode", func() {
		dec := json.NewDecoder(bytes.NewReader(r.body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	return req, err
}

// checkCall parses and checks one formula under the span name, the way
// the handler's checkOne does; the parse is its own logic.parse span.
func checkCall(rec *recorder, name string, ck *hpl.Checker, q query) service.CheckResult {
	out := service.CheckResult{Formula: q.text, FirstFailure: -1}
	var f hpl.Formula
	var err error
	rec.span("logic.parse", func() { f, err = ck.Parse(q.text) })
	if err != nil {
		out.Error = err.Error()
		return out
	}
	rec.span(name, func() {
		if err = ck.ValidateSymmetric(f); err != nil {
			return
		}
		var rep hpl.Report
		if q.temporal {
			tr := ck.CheckTemporal(f)
			rep = tr.Report
			out.AtInit = &tr.AtInit
		} else {
			rep = ck.Check(f)
		}
		out.Holding, out.Total, out.Valid, out.FirstFailure = rep.Holding, rep.Total, rep.Valid(), rep.FirstFailure
		if rep.FirstFailure >= 0 {
			out.Witness = ck.Universe().At(rep.FirstFailure).String()
		}
		if ck.Universe().IsQuotient() {
			out.FullHolding, out.FullTotal = rep.FullHolding, rep.FullTotal
		}
	})
	if err != nil {
		out.Error = err.Error()
	}
	return out
}

// encodeResponse is the handler's response encoding.
func encodeResponse(rec *recorder, r request, ck *hpl.Checker, res service.CheckResult) (service.CheckResponse, error) {
	resp := service.CheckResponse{Universe: r.spec.Digest(), Members: ck.Universe().Len(), Cached: true,
		Results: []service.CheckResult{res}}
	var err error
	rec.span("service.json_encode", func() { _, err = json.Marshal(resp) })
	return resp, err
}

// replayServe warms a daemon as serve-hot and serve-novel do, replays
// serve-hot requests (each preceded by a round trip over loopback HTTP,
// whose handler time is measured around Server.ServeHTTP), counts the
// handler's allocations per request, then replays serve-novel formulas
// and recounts their memo misses on a fresh session over the same
// universe.
func (b *bench) replayServe(rec *recorder, counts map[string]int64, m map[string]metric) {
	ctx := context.Background()
	ht := &handlerTimes{at: map[string][2]time.Time{}}
	full, quot := newRequests(fullSpec, fullPool), newRequests(quotSpec, quotPool)
	runtime.GC()
	d := startHPLD("", 1, ht.wrap)
	defer d.close()
	for _, r := range slices.Concat(full, newRequests(fullSpec, partitionWarmup), quot) {
		b.t.record(d.checked(ctx, r))
	}
	eq, _, err := d.reg.Get(ctx, quotSpec)
	if err != nil {
		b.t.record(err)
		return
	}
	b.t.record(pin(counts, "universe.quotient_members", int64(eq.Checker.Universe().Len()), quotMembers))

	// replay makes the handler's calls for one request; the reply is
	// checked by the caller, outside the request's root span.
	replay := func(r request, check string) (service.CheckResponse, error) {
		req, err := decodeRequest(rec, r)
		var e *service.Entry
		if err == nil {
			rec.span("service.registry_get", func() { e, _, err = d.reg.Get(ctx, req.Universe) })
		}
		if err != nil {
			return service.CheckResponse{}, err
		}
		return encodeResponse(rec, r, e.Checker, checkCall(rec, check, e.Checker, r.q))
	}
	var resp service.CheckResponse

	var traced, untraced samples
	fe, ft := splitTemporal(full)
	qe, qt := splitTemporal(quot)
	for k := 0; k < hotReplays/2; k++ {
		e, tm, check := fe, ft, "knowledge.check_hit"
		if k%2 == 1 {
			e, tm, check = qe, qt, "knowledge.check_hit_quotient"
		}
		r := e[(k/2)%len(e)]
		if (k/2)%4 == 0 {
			r = tm[(k/8)%len(tm)]
		}
		id := int32(1000 + k)
		rec.on = true
		root := int32(len(rec.spans))
		sid := strconv.Itoa(int(id))
		rec.root("serve-hot.roundtrip", id, func() { resp, err = d.do(ctx, r, sid) })
		if err == nil {
			err = checkGolden(r, resp)
		}
		b.t.record(err)
		if t, ok := ht.take(sid); ok {
			rec.add("service.handler", root, id, t[0], t[1])
		}
		// Then the request is replayed once traced and once untraced,
		// so the two halves see the same requests and the same drift.
		// Which half goes first alternates every four requests of a
		// universe, so each half runs first for every kind of request.
		tracedFirst := (k/8)%2 == 0
		for _, on := range []bool{tracedFirst, !tracedFirst} {
			rec.on = on
			wall := rec.root("serve-hot.request", id, func() { resp, err = replay(r, check) }).Seconds()
			if err == nil {
				err = checkGolden(r, resp)
			}
			b.t.record(err)
			if on {
				traced = append(traced, wall)
			} else {
				untraced = append(untraced, wall)
			}
		}
	}
	rec.on = true
	m["trace.overhead_frac"] = metric{traced.median()/untraced.median() - 1, "frac"}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRequests; i++ {
		r := full[i%len(full)]
		w := httptest.NewRecorder()
		d.srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
		if w.Code != http.StatusOK {
			b.t.record(fmt.Errorf("direct handler call: status %d", w.Code))
		}
	}
	runtime.ReadMemStats(&after)
	m["service.alloc_kib_per_request"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / allocRequests / 1024, "KiB"}

	novel := newRequests(fullSpec, generateFormulas(b.seed, novelReplays, atomNames(fullSpec), procNames()))
	served := make([]service.CheckResult, len(novel))
	misses := memoMisses.Value()
	for i, r := range novel {
		check := "knowledge.check_miss"
		if r.q.temporal {
			check = "temporal.check_miss"
		}
		rec.root("serve-novel.request", int32(10000+i), func() { resp, err = replay(r, check) })
		if err == nil {
			err = checkGolden(r, resp)
		}
		if err == nil {
			served[i] = resp.Results[0]
		}
		b.t.record(err)
	}
	misses = memoMisses.Value() - misses
	b.t.record(pin(counts, "knowledge.memo_misses", misses, -1))

	// Determinism guard: the same formulas on a fresh session over the
	// same universe, warmed with the same formulas, miss the memo
	// exactly as often, and agree on every verdict.
	ef, _, err := d.reg.Get(ctx, fullSpec)
	if err != nil {
		b.t.record(err)
		return
	}
	ck := hpl.NewChecker(ef.Checker.Universe(), fullSpec.Predicates()...)
	for _, q := range slices.Concat(fullPool, partitionWarmup) {
		_, err := localVerdict(ck, q)
		b.t.record(err)
	}
	// Nothing else touches this session, so the live heap it gains over
	// the novel formulas is what its memo keeps for them.
	recount := memoMisses.Value()
	memoFrom, _ := heapMiB()
	for i, r := range novel {
		want, err := localVerdict(ck, r.q)
		if got := verdictOf(served[i], r.q.temporal); err == nil && got != want {
			err = fmt.Errorf("trace: %q replayed %+v, fresh session says %+v", r.q.text, got, want)
		}
		b.t.record(err)
	}
	memoTo, _ := heapMiB()
	runtime.KeepAlive(ck)
	b.t.record(pin(counts, "knowledge.memo_misses", memoMisses.Value()-recount, -1))
	m["knowledge.memo_kib_per_formula"] = metric{(memoTo - memoFrom) * 1024 / novelReplays, "KiB"}
}
