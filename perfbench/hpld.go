package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"hpl"
	"hpl/internal/service"
)

// The universes every workload queries: the free system over {p,q,r}
// with at most two sends per process and six events per computation,
// and its quotient under the full process interchange group.
var (
	procs     = []hpl.ProcID{"p", "q", "r"}
	fullSpec  = hpl.UniverseSpec{Procs: procs, MaxSends: 2, MaxEvents: 6}
	quotSpec  = hpl.UniverseSpec{Procs: procs, MaxSends: 2, MaxEvents: 6, Symmetry: "full"}
	warmSpec  = hpl.UniverseSpec{Procs: procs, MaxSends: 2, MaxEvents: 5}
	coldQuery = []query{
		{text: `C ("anyReceived(m)" -> "anySent(m)")`},
		{text: `AG (K{r} "sent(p,m)" -> Once "received(r,m)")`, temporal: true},
	}
)

// Hot formula pools: the formulas serve-hot and serve-novel repeat,
// all of them memo hits once set-up has warmed them. The quotient pool
// holds only formulas invariant under process interchange, the only
// ones a quotient answers.
var (
	fullPool = []query{
		{text: `K{r} "sent(p,m)" -> "sent(p,m)"`},
		{text: `K{r} K{p} "sent(p,m)" -> K{r} "sent(p,m)"`},
		{text: `K{r} "sent(p,m)"`},
		{text: `"received(r,m)" -> "sent(p,m)"`},
		{text: `"quiescent" | !"quiescent"`},
		{text: `AG (K{r} "sent(p,m)" -> Once "received(r,m)")`, temporal: true},
		{text: `EF K{r} "sent(p,m)"`, temporal: true},
		{text: `A[!K{r} "sent(p,m)" U ("received(r,m)" | !EF K{r} "sent(p,m)")]`, temporal: true},
	}
	quotPool = []query{
		{text: `"anyReceived(m)" -> "anySent(m)"`},
		{text: `K{p,q,r} "anySent(m)" -> "anySent(m)"`},
		{text: `K{p,q,r} ("anyReceived(m)" -> "anySent(m)")`},
		{text: `C ("anyReceived(m)" -> "anySent(m)")`},
		{text: `"quiescent" | !"quiescent"`},
		{text: `AG ("anyReceived(m)" -> "anySent(m)")`, temporal: true},
		{text: `EF "anySent(m)"`, temporal: true},
		{text: `A[!"anyReceived(m)" U ("anySent(m)" | !EF "anyReceived(m)")]`, temporal: true},
	}
)

// partitionWarmup asks one question per non-empty process set, so
// serve-novel's set-up builds every [P]-partition its generated
// formulas can name. The novel formulas then pay for their memo misses,
// not for the few one-time partition builds the first of them would
// trigger, which would outweigh all the others (cold-start measures
// partition builds).
var partitionWarmup = []query{
	{text: `K{p} "quiescent"`},
	{text: `K{q} "quiescent"`},
	{text: `K{r} "quiescent"`},
	{text: `K{p,q} "quiescent"`},
	{text: `K{p,r} "quiescent"`},
	{text: `K{q,r} "quiescent"`},
	{text: `K{p,q,r} "quiescent"`},
}

// request is a pre-encoded batch-1 check request, so the load
// generator spends its CPU on the exchange, not on re-marshalling.
type request struct {
	q    query
	spec hpl.UniverseSpec
	path string
	body []byte
}

func newRequest(spec hpl.UniverseSpec, q query) request {
	body, err := json.Marshal(service.CheckRequest{Universe: spec, Formulas: []string{q.text}})
	if err != nil {
		panic(err) // plain strings and ints always marshal
	}
	path := "/v1/check"
	if q.temporal {
		path = "/v1/check-temporal"
	}
	return request{q: q, spec: spec, path: path, body: body}
}

func newRequests(spec hpl.UniverseSpec, qs []query) []request {
	out := make([]request, len(qs))
	for i, q := range qs {
		out[i] = newRequest(spec, q)
	}
	return out
}

// hpld is an in-process daemon: the real service handler over a fresh
// registry with the default configuration, behind loopback HTTP.
type hpld struct {
	reg *service.Registry
	srv *service.Server
	ts  *httptest.Server
	hc  *http.Client
}

// startHPLD starts a daemon; snapDir, when non-empty, is its snapshot
// directory. wrap, when non-nil, wraps the handler (the traced run
// times Server.ServeHTTP through it).
func startHPLD(snapDir string, clients int, wrap func(http.Handler) http.Handler) *hpld {
	reg := service.NewRegistry(service.Config{SnapshotDir: snapDir})
	srv := service.NewServer(reg)
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	// The default transport keeps two idle connections per host; size
	// the pool to the client count so no request pays a dial.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 2 * clients
	tr.MaxIdleConnsPerHost = 2 * clients
	return &hpld{reg: reg, srv: srv, ts: ts, hc: &http.Client{Transport: tr}}
}

// close stops the server and waits for its connections to end.
func (d *hpld) close() {
	d.hc.CloseIdleConnections()
	d.ts.Close()
}

// do sends one request and decodes the reply; a non-200 status is an
// error carrying the service's structured code. A non-empty id is sent
// as the request's X-Request-ID.
func (d *hpld) do(ctx context.Context, r request, id string) (service.CheckResponse, error) {
	var out service.CheckResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.ts.URL+r.path, bytes.NewReader(r.body))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var serr service.Error
		json.NewDecoder(resp.Body).Decode(&serr)
		return out, fmt.Errorf("%s: %s %s: %s", r.path, resp.Status, serr.Code, serr.Message)
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// checked sends one request and checks the verdict against the pinned
// golden table; any error or mismatch is returned.
func (d *hpld) checked(ctx context.Context, r request) error {
	resp, err := d.do(ctx, r, "")
	if err != nil {
		return err
	}
	return checkGolden(r, resp)
}

// heapMiB reports the live heap after a full collection (HeapAlloc)
// and the heap in use (HeapInuse). Only the first repeats from run to
// run: HeapInuse also counts the free room in partly used spans, which
// varies by some 5% with allocation timing.
func heapMiB() (live, inuse float64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20), float64(ms.HeapInuse) / (1 << 20)
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
