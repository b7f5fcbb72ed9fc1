// Command hplbench is the load-test harness for the hpld service: it
// drives concurrent mixed epistemic + temporal formula traffic against
// a warm universe and records sustained queries/sec and latency
// percentiles as JSON (the service rows of the repo's BENCH_*_service
// records). Each arm is bracketed by a scrape of the daemon's
// GET /metrics, so the record carries both the client-observed and the
// server-observed latency percentiles — when they diverge, the gap is
// client queueing, not service time.
//
// Usage:
//
//	hplbench [-addr http://host:port] [-procs p,q,r] [-sends 2] [-events 6]
//	         [-conc 16] [-duration 5s] [-batches 1,8] [-out BENCH_8.json]
//	         [-cold] [-symmetry]
//
// -symmetry requests the full process-interchange quotient of the
// universe instead of the full enumeration (spec symmetry "full"), and
// swaps the query pool for symmetric formulas — the only ones a
// quotient can answer. The recorded universe block then shows the
// quotient's member count; the same run against the full spec is the
// orbit-reduction comparison scripts/load.sh records.
//
// -cold measures the cold-start path instead of sustained load: one
// timed universe-stats query against a daemon that has never seen the
// universe — time-to-first-answer — and reports how the daemon
// materialized it ("build" or "snapshot"). scripts/load.sh
// runs it twice, against an empty and a populated -snapshot-dir, to
// record what snapshots buy per restart.
//
// With no -addr the harness starts an in-process hpld (same handler,
// loopback HTTP), so one command measures the full service stack
// without orchestration. The universe is built once up front (the
// build is reported separately); the measured window only ever touches
// the hot cache, which is the steady state a long-lived daemon serves.
// Each batch arm sends requests carrying that many formulas, so the
// recorded rows separate per-request HTTP/JSON overhead from
// per-formula evaluation cost. A query is one formula verdict.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hpl"
	"hpl/internal/service"
)

// Result is the JSON record of one hplbench run.
type Result struct {
	Name     string       `json:"name"`
	Date     time.Time    `json:"date"`
	GoOS     string       `json:"goos"`
	GoArch   string       `json:"goarch"`
	CPUs     int          `json:"cpus"`
	Target   string       `json:"target"` // "in-process" or the remote base URL
	Universe UniverseInfo `json:"universe"`
	Arms     []Arm        `json:"arms,omitempty"`
	Cold     *ColdStart   `json:"cold,omitempty"`
	Note     string       `json:"note,omitempty"`
}

// ColdStart is the -cold measurement: how long the daemon's very first
// answer about the universe took, and how it was materialized.
type ColdStart struct {
	TTFAMillis float64 `json:"ttfaMillis"`
	Source     string  `json:"source"`
}

// UniverseInfo describes the warm universe the load ran against.
type UniverseInfo struct {
	Digest      string  `json:"digest"`
	Procs       int     `json:"procs"`
	MaxSends    int     `json:"maxSends"`
	MaxEvents   int     `json:"maxEvents"`
	Members     int     `json:"members"`
	Bytes       int64   `json:"bytes"`
	Source      string  `json:"source,omitempty"` // build | snapshot
	BuildMillis float64 `json:"buildMillis"`
	// Symmetry and FullMembers carry the daemon's orbit accounting when
	// the spec requested a quotient: the group's class structure and the
	// full-universe size the Members stand for.
	Symmetry    string `json:"symmetry,omitempty"`
	FullMembers int64  `json:"fullMembers,omitempty"`
}

// Arm is one measured configuration: `Batch` formulas per request at
// `Concurrency` in-flight clients for `DurationSec`.
type Arm struct {
	Batch         int     `json:"batch"`
	Concurrency   int     `json:"concurrency"`
	DurationSec   float64 `json:"durationSec"`
	Requests      int64   `json:"requests"`
	Queries       int64   `json:"queries"` // formula verdicts returned
	Errors        int64   `json:"errors"`
	QPS           float64 `json:"qps"`           // queries (formulas) per second
	RPS           float64 `json:"rps"`           // HTTP requests per second
	LatencyMicros Latency `json:"latencyMicros"` // per-request latency, client-observed
	// ServerLatencyMicros is the same window as measured by the daemon
	// itself: percentiles reconstructed from the /metrics latency
	// histogram deltas bracketing the arm. Absent when the target does
	// not serve /metrics.
	ServerLatencyMicros *Latency `json:"serverLatencyMicros,omitempty"`
	Epistemic           int64    `json:"epistemic"`
	Temporal            int64    `json:"temporal"`
}

// Latency is a percentile summary in microseconds.
type Latency struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hplbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "base URL of a running hpld; empty starts an in-process server")
	procs := fs.String("procs", "p,q,r", "comma-separated process names")
	sends := fs.Int("sends", 2, "max sends per process")
	events := fs.Int("events", 6, "max events per computation")
	conc := fs.Int("conc", 16, "concurrent client goroutines")
	duration := fs.Duration("duration", 5*time.Second, "measured window per arm")
	batches := fs.String("batches", "1,8", "comma-separated formulas-per-request arms")
	cold := fs.Bool("cold", false, "measure time-to-first-answer (one universe-stats query), skip the load arms")
	symmetry := fs.Bool("symmetry", false, "serve the full-interchange symmetry quotient and drive symmetric formulas")
	out := fs.String("out", "", "write the JSON record to this file (default stdout only)")
	note := fs.String("note", "", "free-form note recorded in the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var ids []hpl.ProcID
	for _, s := range strings.Split(*procs, ",") {
		if s = strings.TrimSpace(s); s != "" {
			ids = append(ids, hpl.ProcID(s))
		}
	}
	spec := hpl.UniverseSpec{Procs: ids, MaxSends: *sends, MaxEvents: *events}
	if *symmetry {
		spec.Symmetry = "full"
	}

	target := *addr
	label := target
	if target == "" {
		ts := httptest.NewServer(service.NewServer(service.NewRegistry(service.Config{})))
		defer ts.Close()
		target, label = ts.URL, "in-process"
	}
	// http.DefaultTransport keeps only 2 idle connections per host,
	// which would make a 16-way hammer churn TCP connections and
	// measure the dial path instead of the service; size the pool to
	// the concurrency.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = 2 * *conc
	transport.MaxIdleConnsPerHost = 2 * *conc
	cl := &service.Client{Base: target, HTTPClient: &http.Client{Transport: transport}}

	// Warm the universe; the build is paid once and reported, the
	// measured arms below run entirely against the hot cache. With
	// -cold, this first query IS the measurement: the wall time from
	// request to first answer on a daemon that has never seen the spec.
	fmt.Fprintf(stderr, "hplbench: warming universe (%d procs, sends=%d, events=%d) on %s...\n",
		len(ids), *sends, *events, label)
	t0 := time.Now()
	st, err := cl.UniverseStats(context.Background(), spec)
	if err != nil {
		fmt.Fprintf(stderr, "hplbench: warm-up failed: %v\n", err)
		return 1
	}
	ttfa := time.Since(t0)
	fmt.Fprintf(stderr, "hplbench: universe %s hot: %d members, ~%d KiB, materialized by %s in %.1f ms\n",
		st.Universe[:12], st.Members, st.Bytes>>10, st.Source, st.BuildMillis)

	if !*cold {
		// Warm the formula mix as well: the first evaluation of each
		// distinct subformula pays one pass over the universe before its
		// truth vector is memoized, and the arms below measure the
		// daemon's steady state, not that one-time cost.
		epistemic, temporal := formulaMix(ids, *symmetry)
		if _, err := cl.Check(context.Background(), spec, epistemic...); err != nil {
			fmt.Fprintf(stderr, "hplbench: formula warm-up failed: %v\n", err)
			return 1
		}
		if _, err := cl.CheckTemporal(context.Background(), spec, temporal...); err != nil {
			fmt.Fprintf(stderr, "hplbench: formula warm-up failed: %v\n", err)
			return 1
		}
	}

	res := Result{
		Name:   "hpld-load",
		Date:   time.Now().UTC(),
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
		Target: label,
		Note:   *note,
		Universe: UniverseInfo{
			Digest:      st.Universe,
			Procs:       len(ids),
			MaxSends:    *sends,
			MaxEvents:   *events,
			Members:     st.Members,
			Bytes:       st.Bytes,
			Source:      st.Source,
			BuildMillis: st.BuildMillis,
			Symmetry:    st.Symmetry,
			FullMembers: st.FullMembers,
		},
	}
	if *cold {
		res.Cold = &ColdStart{
			TTFAMillis: float64(ttfa) / float64(time.Millisecond),
			Source:     st.Source,
		}
		fmt.Fprintf(stderr, "hplbench: cold start answered in %.1f ms (source %s)\n",
			res.Cold.TTFAMillis, res.Cold.Source)
	}

	if !*cold {
		for _, b := range strings.Split(*batches, ",") {
			batch, err := strconv.Atoi(strings.TrimSpace(b))
			if err != nil || batch < 1 {
				fmt.Fprintf(stderr, "hplbench: bad batch size %q\n", b)
				return 2
			}
			before, scrapeErr := scrapeMetrics(cl.HTTPClient, target)
			arm := runArm(cl, spec, ids, *symmetry, batch, *conc, *duration)
			if scrapeErr == nil {
				if after, err := scrapeMetrics(cl.HTTPClient, target); err == nil {
					arm.ServerLatencyMicros = serverLatency(before, after)
				}
			}
			res.Arms = append(res.Arms, arm)
			fmt.Fprintf(stderr, "hplbench: batch=%d conc=%d: %.0f queries/sec (%.0f req/sec), p50=%.0fµs p99=%.0fµs, %d errors\n",
				arm.Batch, arm.Concurrency, arm.QPS, arm.RPS, arm.LatencyMicros.P50, arm.LatencyMicros.P99, arm.Errors)
			if sl := arm.ServerLatencyMicros; sl != nil {
				fmt.Fprintf(stderr, "hplbench:   server-side: p50=%.0fµs p99=%.0fµs (from /metrics histogram deltas)\n",
					sl.P50, sl.P99)
			}
		}
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	enc.Encode(res)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "hplbench: %v\n", err)
			return 1
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		enc.Encode(res)
		f.Close()
		fmt.Fprintf(stderr, "hplbench: wrote %s\n", *out)
	}
	for _, arm := range res.Arms {
		if arm.Errors > 0 {
			return 1
		}
	}
	return 0
}

// formulaMix returns the query pool over the spec's processes: repeat
// formulas dominate (they are memo hits, the cache's design load) with
// the paper's own theorems as the temporal share. With symmetric set,
// the pool holds only formulas invariant under process interchange —
// tag-level atoms, knowledge over the whole process set, common
// knowledge — since a quotient universe rejects anything that names a
// single process.
func formulaMix(ids []hpl.ProcID, symmetric bool) (epistemic, temporal []string) {
	if symmetric {
		all := make([]string, len(ids))
		for i, id := range ids {
			all[i] = string(id)
		}
		k := "K{" + strings.Join(all, ",") + "}"
		epistemic = []string{
			`"anyReceived(m)" -> "anySent(m)"`,
			k + ` "anySent(m)" -> "anySent(m)"`,
			k + ` ("anyReceived(m)" -> "anySent(m)")`,
			`C ("anyReceived(m)" -> "anySent(m)")`,
			`"quiescent" | !"quiescent"`,
		}
		temporal = []string{
			`AG ("anyReceived(m)" -> "anySent(m)")`,
			`EF "anySent(m)"`,
			`A[!"anyReceived(m)" U ("anySent(m)" | !EF "anyReceived(m)")]`,
		}
		return epistemic, temporal
	}
	p, q := string(ids[0]), string(ids[len(ids)-1])
	epistemic = []string{
		fmt.Sprintf(`K{%s} "sent(%s,m)" -> "sent(%s,m)"`, q, p, p),
		fmt.Sprintf(`K{%s} K{%s} "sent(%s,m)" -> K{%s} "sent(%s,m)"`, q, p, p, q, p),
		fmt.Sprintf(`K{%s} "sent(%s,m)"`, q, p),
		fmt.Sprintf(`"received(%s,m)" -> "sent(%s,m)"`, q, p),
		`"quiescent" | !"quiescent"`,
	}
	temporal = []string{
		fmt.Sprintf(`AG (K{%s} "sent(%s,m)" -> Once "received(%s,m)")`, q, p, q),
		fmt.Sprintf(`EF K{%s} "sent(%s,m)"`, q, p),
		fmt.Sprintf(`A[!K{%s} "sent(%s,m)" U ("received(%s,m)" | !EF K{%s} "sent(%s,m)")]`, q, p, q, q, p),
	}
	return epistemic, temporal
}

// runArm hammers the warm universe for the window and aggregates.
func runArm(cl *service.Client, spec hpl.UniverseSpec, ids []hpl.ProcID, symmetric bool, batch, conc int, window time.Duration) Arm {
	epistemic, temporal := formulaMix(ids, symmetric)

	type workerStats struct {
		requests, queries, errors, epi, temp int64
		lat                                  []float64 // µs per request
	}
	stats := make([]workerStats, conc)
	deadline := time.Now().Add(window)
	start := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := &stats[w]
			ctx := context.Background()
			for i := 0; time.Now().Before(deadline); i++ {
				// 1 temporal request in 4: mixed traffic, epistemic-heavy.
				useTemporal := (w+i)%4 == 0
				pool := epistemic
				if useTemporal {
					pool = temporal
				}
				formulas := make([]string, batch)
				for j := range formulas {
					formulas[j] = pool[(i+j)%len(pool)]
				}
				t0 := time.Now()
				var resp service.CheckResponse
				var err error
				if useTemporal {
					resp, err = cl.CheckTemporal(ctx, spec, formulas...)
				} else {
					resp, err = cl.Check(ctx, spec, formulas...)
				}
				s.lat = append(s.lat, float64(time.Since(t0))/float64(time.Microsecond))
				s.requests++
				if err != nil {
					s.errors++
					continue
				}
				for _, r := range resp.Results {
					if r.Error != "" {
						s.errors++
					}
				}
				s.queries += int64(len(resp.Results))
				if useTemporal {
					s.temp += int64(len(resp.Results))
				} else {
					s.epi += int64(len(resp.Results))
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	arm := Arm{Batch: batch, Concurrency: conc, DurationSec: elapsed.Seconds()}
	var lat []float64
	for i := range stats {
		arm.Requests += stats[i].requests
		arm.Queries += stats[i].queries
		arm.Errors += stats[i].errors
		arm.Epistemic += stats[i].epi
		arm.Temporal += stats[i].temp
		lat = append(lat, stats[i].lat...)
	}
	arm.QPS = float64(arm.Queries) / elapsed.Seconds()
	arm.RPS = float64(arm.Requests) / elapsed.Seconds()
	sort.Float64s(lat)
	pct := func(p float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	arm.LatencyMicros = Latency{P50: pct(0.50), P95: pct(0.95), P99: pct(0.99), Max: pct(1)}
	return arm
}
