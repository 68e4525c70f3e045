package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	shamfinder "repro"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

const (
	// serveScale sizes the registry the request names are drawn from:
	// zone-sweep's, the smallest whose IDN share (~0.7%) is the real
	// zone's (the planted homographs do not shrink with the scale).
	serveScale = sweepScale
	// serveSetups is how many times a run cold-starts the server.
	serveSetups = 21
	// servePool is the number of distinct generated requests, replayed
	// round-robin.
	servePool = 4096
	// reloadEvery is the fixed reload schedule across the whole ladder.
	// It is an assumption, not a production rate (a reference list
	// changes daily): one swap a second puts several reloads into every
	// rung, so a hot-swap cost shows in each rung's p99.
	reloadEvery = time.Second
	// p99LimitMs is the latency limit a ladder rung must meet.
	p99LimitMs = 10.0
	// backlogLimit is how late the generator may run, at the median of a
	// rung's last quarter, before the rung counts as a growing backlog.
	backlogLimit = time.Millisecond
)

// serveLadder is the offered request rate of each rung, with its share
// of the run; rate 0 marks the final saturating rung, where both
// senders run back to back. The gated rungs (serveRefRate and the
// saturating one) get the most time.
var serveLadder = []struct {
	rate  float64
	share float64
}{{1000, 1.0 / 9}, {4000, 1.0 / 9}, {8000, 3.0 / 9}, {16000, 1.0 / 9}, {0, 3.0 / 9}}

// serveRefRate is the rung whose latency is reported as serve_p50_ms
// and serve_p99_ms.
const serveRefRate = 8000

// serveReq is one generated request.
type serveReq struct {
	explain bool
	target  string // path and query
	body    []byte
	names   []string
	be      core.Backend
}

// The request mix. The repository holds no request log and the paper
// gives no traffic figures for the §7.2 warning, so only the names and
// the explain requests are derived from the generated data:
//
//   - every name is drawn uniformly from the registry's zone and
//     respread over zone-sweep's suffixes, so the share of hits is the
//     zone's own planted-homograph share (~0.6%) and the IDN share its
//     ~0.7%: a browser asks about whatever names its user opens, nearly
//     all of them benign;
//   - each single-name request for a planted homograph is followed by
//     GET /v1/explain of the same name and backend: a client fetches
//     the warning text only for a name it was told to warn about.
//
// The other shares are assumptions, each with its reason:
const (
	// singlePct of /v1/detect requests carry one name: a browser asks
	// about the name it is about to open.
	singlePct = 75
	// The rest are batches of batchMin..batchMax names: the link hosts
	// of a page or a mail, checked together.
	batchMin, batchMax = 2, 16
	// skeletonPct and bothPct of single-name requests opt into the
	// other backends; the rest name none and get the default postings
	// backend, as every client written before the skeleton backend
	// existed does.
	skeletonPct, bothPct = 10, 10
)

// buildRequests generates the request mix described above.
func buildRequests(in *inputs, seed uint64) []serveReq {
	rng := stats.NewRNG(seed ^ 0x5e7e)
	var zone []string
	in.reg.ForEachDomain(func(d string, _ bool, _ registry.Membership) { zone = append(zone, d) })
	name := func() (string, bool) {
		d := zone[rng.Intn(len(zone))]
		_, planted := in.reg.Homograph(d)
		return respread(d, rng), planted
	}
	reqs := make([]serveReq, 0, servePool)
	for len(reqs) < servePool {
		r := serveReq{be: core.BackendPostings, target: "/v1/detect"}
		if rng.Intn(100) < singlePct {
			n, hit := name()
			r.names = []string{n}
			body := map[string]string{"fqdn": n}
			switch b := rng.Intn(100); {
			case b < skeletonPct:
				r.be, body["backend"] = core.BackendSkeleton, "skeleton"
			case b < skeletonPct+bothPct:
				r.be, body["backend"] = core.BackendBoth, "both"
			}
			r.body, _ = json.Marshal(body)
			reqs = append(reqs, r)
			if hit && len(reqs) < servePool {
				x := serveReq{explain: true, names: r.names, be: r.be, target: "/v1/explain?fqdn=" + url.QueryEscape(n)}
				if b, ok := body["backend"]; ok {
					x.target += "&backend=" + b
				}
				reqs = append(reqs, x)
			}
			continue
		}
		for k := batchMin + rng.Intn(batchMax-batchMin+1); k > 0; k-- {
			n, _ := name()
			r.names = append(r.names, n)
		}
		r.body, _ = json.Marshal(map[string][]string{"fqdns": r.names})
		reqs = append(reqs, r)
	}
	return reqs
}

// outcome is one request the generator sent. Response bodies are not
// kept: the sender files each one under its (request, serving state)
// key, where every later body must repeat the first byte for byte
// (epoch aside), and the check decodes only those first bodies.
type outcome struct {
	req              int // index into the pool; -1 for a reload
	worker, rung     int
	due, sent, done  time.Time
	status           int
	err              error
	epoch            uint64
	reloadSnapshotIx int
}

// bodyKey is a request and the serving state (epoch parity) that
// answered it.
type bodyKey struct {
	req, state int
}

// server is one running `serve -snapshot` instance.
type server struct {
	base string
	stop func() error
}

// startServer cold-starts the facade's Serve from a snapshot on a
// loopback port and returns once /healthz answers.
func startServer(snap string) (*server, time.Duration, error) {
	t0 := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- shamfinder.Serve(ctx, shamfinder.ServeOptions{
			Addr:         "127.0.0.1:0",
			SnapshotPath: snap,
			OnListen:     func(a net.Addr) { ready <- "http://" + a.String() },
		})
	}()
	var base string
	select {
	case base = <-ready:
	case err := <-done:
		cancel()
		return nil, 0, fmt.Errorf("serve exited before listening: %v", err)
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Get(base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	setup := time.Since(t0)
	s := &server{base: base, stop: func() error { cancel(); return <-done }}
	if err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, setup, nil
}

// loadGen is the open-loop generator: a shared schedule of due times
// consumed by nproc senders, each on its own client connection. A
// sender takes the next due slot when it is free, so a stalled server
// makes later requests late, and their latency counts from when they
// were due. The last sender also issues the scheduled reloads.
type loadGen struct {
	base    string
	reqs    []serveReq
	clients []*http.Client
	snaps   [2]string

	start      time.Time // ladder start; reloads are due every reloadEvery from here
	reloadMu   sync.Mutex
	reloadsDue int
	reloads    int // reloads issued; reload k (1-based) installs snaps[k%2]
	next       atomic.Int64
	tr         *tracer

	bodiesMu sync.Mutex
	bodies   map[bodyKey][]byte // first response body, epoch field removed
	diverged int                // responses whose body differed from the first

	// foldMu serializes folding the senders' outcomes into the rung's
	// summary and the request checks below.
	foldMu    sync.Mutex
	lastEpoch map[int]uint64 // per sender
	bad       int            // failed requests
}

func newLoadGen(base string, reqs []serveReq, snaps [2]string, senders int) *loadGen {
	g := &loadGen{base: base, reqs: reqs, snaps: snaps, bodies: map[bodyKey][]byte{}, lastEpoch: map[int]uint64{}}
	for i := 0; i < senders; i++ {
		g.clients = append(g.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return g
}

func (g *loadGen) close() {
	for _, c := range g.clients {
		c.Transport.(*http.Transport).CloseIdleConnections()
	}
}

func (g *loadGen) do(c *http.Client, o *outcome) {
	var req *http.Request
	var err error
	if o.req < 0 {
		body := fmt.Sprintf(`{"snapshot":%q}`, g.snaps[o.reloadSnapshotIx])
		req, err = http.NewRequest("POST", g.base+"/v1/reload", strings.NewReader(body))
	} else if r := g.reqs[o.req]; r.explain {
		req, err = http.NewRequest("GET", g.base+r.target, nil)
	} else {
		req, err = http.NewRequest("POST", g.base+r.target, bytes.NewReader(r.body))
	}
	o.sent = time.Now()
	if err == nil {
		var resp *http.Response
		if resp, err = c.Do(req); err == nil {
			o.status = resp.StatusCode
			var body []byte
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			o.done = time.Now()
			if err == nil && o.status == http.StatusOK && o.req >= 0 {
				err = g.file(o, body)
			}
		}
	}
	if o.done.IsZero() {
		o.done = time.Now()
	}
	o.err = err
	if g.tr != nil {
		name := "POST /v1/detect"
		switch {
		case o.req < 0:
			name = "POST /v1/reload"
		case g.reqs[o.req].explain:
			name = "GET /v1/explain"
		}
		g.tr.record("service", name, fmt.Sprintf("r%d-w%d-%d", o.rung, o.worker, o.sent.UnixNano()), nil, o.sent, o.done)
	}
}

// file records a query response: its epoch, and its body under the
// (request, state) key.
func (g *loadGen) file(o *outcome, body []byte) error {
	const prefix = `{"epoch":`
	rest, ok := bytes.CutPrefix(body, []byte(prefix))
	end := bytes.IndexByte(rest, ',')
	if !ok || end < 1 {
		return fmt.Errorf("response does not start with an epoch: %.40q", body)
	}
	epoch, err := strconv.ParseUint(string(rest[:end]), 10, 64)
	if err != nil {
		return fmt.Errorf("response epoch: %v", err)
	}
	o.epoch = epoch
	k := bodyKey{o.req, int(1 - epoch%2)}
	g.bodiesMu.Lock()
	defer g.bodiesMu.Unlock()
	if first, seen := g.bodies[k]; !seen {
		g.bodies[k] = append([]byte(nil), rest[end:]...)
	} else if !bytes.Equal(first, rest[end:]) {
		g.diverged++
	}
	return nil
}

// reloadDue claims the next scheduled reload when it is due.
func (g *loadGen) reloadDue(now time.Time) (int, bool) {
	g.reloadMu.Lock()
	defer g.reloadMu.Unlock()
	if now.Before(g.start.Add(time.Duration(g.reloadsDue+1) * reloadEvery)) {
		return 0, false
	}
	g.reloadsDue++
	g.reloads++
	return g.reloads % 2, true
}

// foldEvery is how many outcomes a sender buffers before folding them
// into the rung's summary.
const foldEvery = 256

// rung runs one ladder step for d; rate 0 saturates. Each sender folds
// its outcomes into the rung's summary as they complete, so the
// generator keeps no record per request and its memory does not grow
// with the rate the server sustains.
func (g *loadGen) rung(rc *runCtx, ix int, rate float64, d time.Duration) *rungAcc {
	g.next.Store(0)
	t0 := time.Now()
	acc := &rungAcc{rate: rate, t0: t0}
	deadline := t0.Add(d)
	n := int64(rate * d.Seconds())
	var wg sync.WaitGroup
	for w := range g.clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := g.clients[w]
			buf := make([]outcome, 0, foldEvery)
			for {
				if len(buf) == foldEvery {
					g.fold(rc, acc, buf)
					buf = buf[:0]
				}
				now := time.Now()
				if w == len(g.clients)-1 {
					// Only the last sender issues the scheduled reloads, so
					// they never overlap one another.
					if snap, ok := g.reloadDue(now); ok {
						buf = append(buf, outcome{req: -1, worker: w, rung: ix, due: now, reloadSnapshotIx: snap})
						g.do(c, &buf[len(buf)-1])
						continue
					}
				}
				i := g.next.Add(1) - 1
				var due time.Time
				if rate > 0 {
					if i >= n {
						break
					}
					due = t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					sleepUntil(due)
				} else {
					if now.After(deadline) {
						break
					}
					due = now
				}
				buf = append(buf, outcome{req: int(i % int64(len(g.reqs))), worker: w, rung: ix, due: due})
				g.do(c, &buf[len(buf)-1])
			}
			g.fold(rc, acc, buf)
		}(w)
	}
	wg.Wait()
	return acc
}

// fold checks one sender's outcomes and adds them to acc.
func (g *loadGen) fold(rc *runCtx, acc *rungAcc, os []outcome) {
	g.foldMu.Lock()
	defer g.foldMu.Unlock()
	g.check(rc, os)
	for i := range os {
		acc.add(&os[i])
	}
}

// check applies the per-request serve rules and counts failures: every
// response is 200 (a transport error, a shed 503 or any other status
// fails), and the epochs a sender observes never go backwards. os is
// one sender's outcomes in completion order. checkBodies checks what
// the responses say.
func (g *loadGen) check(rc *runCtx, os []outcome) {
	for _, o := range os {
		rc.rep.attempted++
		if o.err != nil || o.status != http.StatusOK {
			rc.rep.failed++
			if g.bad < 3 {
				rc.rep.check(false, "serve: request failed: status %d err %v", o.status, o.err)
			}
			g.bad++
			continue
		}
		if o.req < 0 {
			continue
		}
		if o.epoch < g.lastEpoch[o.worker] {
			rc.rep.check(false, "serve: sender %d saw epoch %d after %d", o.worker, o.epoch, g.lastEpoch[o.worker])
		}
		g.lastEpoch[o.worker] = o.epoch
	}
}

// allocsPerRequest sends one pass of the request pool back to back on
// the first sender's connection, with no reload in flight, and returns
// the process's allocations and allocated bytes per request.
func (g *loadGen) allocsPerRequest(rc *runCtx) (allocs, bytes float64) {
	os := make([]outcome, len(g.reqs))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range os {
		os[i] = outcome{req: i, due: time.Now()}
		g.do(g.clients[0], &os[i])
	}
	runtime.ReadMemStats(&m1)
	g.check(rc, os)
	n := float64(len(os))
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n
}

// rungStats summarizes one rung.
type rungStats struct {
	rate                 float64
	completed, failed    int
	p50, p99             float64 // ms from due
	lateP99, lateTailP50 float64 // ms the generator ran late
	rtP50                float64 // ms from send
	capacity             float64 // saturating rung: median completions/s over capacityWindow slices
}

// capacityWindow slices the saturating rung; its median window rate
// is the capacity, so a short stall elsewhere on the machine moves one
// window, not the result.
const capacityWindow = 250 * time.Millisecond

// rungAcc is a rung's running summary. A fixed-rate rung keeps one
// latency sample per request, as many as its schedule offers; the
// saturating rung keeps only completions per capacityWindow.
type rungAcc struct {
	rate        float64
	t0          time.Time
	first, last time.Time
	completed   int
	failed      int
	lat, rt     []float64 // ms from due, ms from send
	lates       []dueLate
	counts      []float64 // saturating rung: completions per window from t0
	reloads     []float64 // ms
}

type dueLate struct {
	due  time.Time
	late float64 // ms
}

func (a *rungAcc) add(o *outcome) {
	ok := o.err == nil && o.status == http.StatusOK
	if o.req < 0 {
		if ok {
			a.reloads = append(a.reloads, ms(o.done.Sub(o.sent)))
		}
		return
	}
	if a.first.IsZero() || o.sent.Before(a.first) {
		a.first = o.sent
	}
	if o.done.After(a.last) {
		a.last = o.done
	}
	if !ok {
		a.failed++
		return
	}
	a.completed++
	if a.rate == 0 {
		w := int(o.done.Sub(a.t0) / capacityWindow)
		for len(a.counts) <= w {
			a.counts = append(a.counts, 0)
		}
		a.counts[w]++
		return
	}
	a.lat = append(a.lat, ms(o.done.Sub(o.due)))
	a.rt = append(a.rt, ms(o.done.Sub(o.sent)))
	l := ms(o.sent.Sub(o.due))
	a.lates = append(a.lates, dueLate{o.due, l})
}

func (a *rungAcc) summarize() rungStats {
	st := rungStats{rate: a.rate, completed: a.completed, failed: a.failed}
	if a.rate == 0 {
		counts := a.counts
		if len(counts) > 1 {
			counts = counts[:len(counts)-1] // the last window is partial
		}
		st.capacity = median(counts) / capacityWindow.Seconds()
		return st
	}
	st.p50, st.p99 = quantile(a.lat, 0.5), quantile(a.lat, 0.99)
	st.rtP50 = quantile(a.rt, 0.5)
	late := make([]float64, len(a.lates))
	for i, x := range a.lates {
		late[i] = x.late
	}
	st.lateP99 = quantile(late, 0.99)
	if len(a.lates) > 0 {
		// The backlog test looks at the rung's last quarter.
		cut := a.lates[0].due
		for _, x := range a.lates {
			if x.due.After(cut) {
				cut = x.due
			}
		}
		cut = cut.Add(-a.last.Sub(a.first) / 4)
		var tail []float64
		for _, x := range a.lates {
			if x.due.After(cut) {
				tail = append(tail, x.late)
			}
		}
		st.lateTailP50 = quantile(tail, 0.5)
	}
	return st
}

// ladder runs every rung, splitting d by the rungs' shares, and reports the
// serve_* metrics under prefix.
func (g *loadGen) ladder(rc *runCtx, d time.Duration, prefix string) []rungStats {
	g.start = time.Now()
	g.reloadsDue = 0
	var stats []rungStats
	var reloads []float64
	for i, r := range serveLadder {
		rate, per := r.rate, time.Duration(r.share*float64(d))
		acc := g.rung(rc, i, rate, per)
		stats = append(stats, acc.summarize())
		reloads = append(reloads, acc.reloads...)
	}
	maxRPS := 0.0
	for _, st := range stats {
		if st.rate == 0 {
			rc.rep.gauge(prefix+"serve_capacity_rps", st.capacity, "1/s")
			continue
		}
		tag := fmt.Sprintf("@%g", st.rate)
		rc.rep.gauge(prefix+"serve_p50_ms"+tag, st.p50, "ms")
		rc.rep.gauge(prefix+"serve_p99_ms"+tag, st.p99, "ms")
		rc.rep.gauge(prefix+"serve_samples"+tag, float64(st.completed), "count")
		rc.rep.gauge(prefix+"generator_late_p99_ms"+tag, st.lateP99, "ms")
		if st.failed == 0 && st.p99 <= p99LimitMs && st.lateTailP50 <= ms(backlogLimit) {
			maxRPS = st.rate
		}
		if st.rate == serveRefRate {
			rc.rep.gauge(prefix+"serve_p50_ms", st.p50, "ms")
			rc.rep.gauge(prefix+"serve_p99_ms", st.p99, "ms")
			rc.rep.gauge(prefix+"serve_samples", float64(st.completed), "count")
			rc.rep.gauge(prefix+"generator_late_p99_ms", st.lateP99, "ms")
			rc.rep.gauge(prefix+"serve_rt_p50_ms", st.rtP50, "ms")
		}
	}
	rc.rep.gauge(prefix+"serve_max_rps", maxRPS, "1/s")
	rc.rep.gauge(prefix+"reload_p50_ms", median(reloads), "ms")
	rc.rep.gauge(prefix+"reloads", float64(len(reloads)), "count")
	return stats
}

// verifier holds the two serving states, loaded independently of the
// server, to recompute every response.
type verifier struct {
	engines [2]*core.Engine // [0] = snapshot A (odd epochs), [1] = B (even)
	cache   map[[2]int][]service.Match
}

type wireResp struct {
	Matches  []service.Match `json:"matches"`
	Warnings []string        `json:"warnings"`
}

func (v *verifier) expected(reqs []serveReq, req, state int) []service.Match {
	key := [2]int{req, state}
	if m, ok := v.cache[key]; ok {
		return m
	}
	r := reqs[req]
	var ms []core.Match
	for _, n := range r.names {
		got, _ := v.engines[state].DetectDomainBackend(n, r.be)
		ms = append(ms, got...)
	}
	core.SortMatches(ms)
	out := service.NewMatches(ms)
	v.cache[key] = out
	return out
}

// checkBodies decodes the first body filed under each (request, state)
// and compares its matches with Engine.DetectDomainBackend for that
// state (odd epochs serve snapshot A, even ones B); every later body
// was already required to repeat it byte for byte.
func (v *verifier) checkBodies(rc *runCtx, g *loadGen) {
	rc.rep.check(g.bad == 0, "serve: %d requests failed", g.bad)
	rc.rep.check(g.diverged == 0, "serve: %d responses differ from the first answer to the same request and state", g.diverged)
	wrong := 0
	for k, rest := range g.bodies {
		var resp wireResp
		if err := json.Unmarshal(append([]byte(`{"epoch":0`), rest...), &resp); err != nil {
			rc.rep.check(false, "serve: undecodable response: %v", err)
			continue
		}
		want := v.expected(g.reqs, k.req, k.state)
		if !(len(want) == 0 && len(resp.Matches) == 0) && !reflect.DeepEqual(want, resp.Matches) {
			if wrong < 3 {
				rc.rep.check(false, "serve: request %d in state %d: %d matches, want %d", k.req, k.state, len(resp.Matches), len(want))
			}
			wrong++
		}
		if g.reqs[k.req].explain && len(resp.Warnings) != len(resp.Matches) {
			rc.rep.check(false, "serve: explain returned %d warnings for %d matches", len(resp.Warnings), len(resp.Matches))
		}
	}
	rc.rep.check(wrong == 0, "serve: %d (request, state) answers disagree with the engine", wrong)
	rc.rep.gauge("verified_answers", float64(len(g.bodies)), "count")
}

func runServe(rc *runCtx) error {
	in, err := makeInputs(rc, serveScale)
	if err != nil {
		return err
	}
	reqs := buildRequests(in, rc.seed)

	// Compile the two serving states, as `shamfinder compile` would:
	// snapshot A protects every reference, B every other one, so hits on
	// the dropped half flip with each reload.
	db := in.env.DB()
	c0 := time.Now()
	detA := core.NewDetector(db, in.refs)
	compileMs := ms(time.Since(c0))
	var half []string
	for i := 0; i < len(in.refs); i += 2 {
		half = append(half, in.refs[i])
	}
	snaps := [2]string{filepath.Join(rc.workDir, "a.snap"), filepath.Join(rc.workDir, "b.snap")}
	if err := snapshot.WriteFile(snaps[0], db, detA); err != nil {
		return err
	}
	if err := snapshot.WriteFile(snaps[1], db, core.NewDetector(db, half)); err != nil {
		return err
	}
	resetPeakRSS()

	var setups []float64
	var srv *server
	for i := 0; i < serveSetups; i++ {
		runtime.GC() // each cold start begins from a collected heap
		s, d, err := startServer(snaps[0])
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i < serveSetups-1 {
			if err := s.stop(); err != nil {
				return fmt.Errorf("stopping set-up server: %w", err)
			}
		} else {
			srv = s
		}
	}
	rc.rep.gauge("setup_s", median(setups), "s")

	ver := &verifier{cache: map[[2]int][]service.Match{}}
	for i, p := range snaps {
		_, det, err := snapshot.ReadFile(p)
		if err != nil {
			return err
		}
		ver.engines[i] = core.NewEngine(det)
	}

	gen := newLoadGen(srv.base, reqs, snaps, runtime.NumCPU())
	phase := rc.duration
	if rc.traced {
		phase /= 2
	}
	ustats := gen.ladder(rc, phase, "")
	var tstats []rungStats
	var wall time.Duration
	var allocs, bytesPer float64
	if rc.traced {
		rc.tr = newTracer()
		gen.tr = rc.tr
		w0 := time.Now()
		tstats = gen.ladder(rc, phase, "traced.")
		wall = time.Since(w0)
		gen.tr = nil
		allocs, bytesPer = gen.allocsPerRequest(rc)
	}
	var st service.Stats
	metricsErr := getJSON(gen.clients[0], srv.base+"/metrics", &st)
	gen.close()
	stopErr := srv.stop()

	ver.checkBodies(rc, gen)
	rc.rep.check(metricsErr == nil, "serve: /metrics: %v", metricsErr)
	rc.rep.check(stopErr == nil, "serve: shutdown: %v", stopErr)
	if !rc.traced {
		return nil
	}

	// Tracing overhead, capacity and reference-rate p50.
	capOf := func(sts []rungStats) float64 {
		for _, s := range sts {
			if s.rate == 0 {
				return s.capacity
			}
		}
		return 0
	}
	refRung := func(sts []rungStats) rungStats {
		for _, s := range sts {
			if s.rate == serveRefRate {
				return s
			}
		}
		return rungStats{}
	}
	reportOverhead(rc, capOf(ustats), capOf(tstats), refRung(ustats).p50, refRung(tstats).p50)
	reportSelfTimes(rc, wall)
	rc.rep.gauge("service.allocs_per_req", allocs, "count")
	rc.rep.gauge("service.bytes_per_req", bytesPer, "B")
	rc.rep.note("service.allocs_per_req and bytes_per_req are whole-process MemStats deltas over one pass of the request pool without reloads: client and server share the process")
	rc.rep.gauge("service.shed", float64(st.Shed), "count")
	rc.rep.gauge("service.server_p99_us", float64(st.P99Ns)/1000, "us")
	rc.rep.gauge("core.compile_ms", compileMs, "ms")
	tm := in.env.SimCharTimings()
	rc.rep.gauge("simchar.build_ms", ms(tm.RasterizeImages+tm.ComputePairwise+tm.EliminateSparse), "ms")

	replayServeLayers(rc, reqs, ver.engines, snaps[0], refRung(ustats).rtP50)
	var names [][]byte
	for _, r := range reqs {
		for _, n := range r.names {
			names = append(names, []byte(n))
		}
	}
	_, fdet, err := shamfinder.LoadSnapshot(snaps[0])
	if err != nil {
		return err
	}
	replayNames(rc, fdet, names, domain.NormalizeZoneLine)
	rc.rep.replayed(append([]string{"service.handler_us_p50", "service.handler_us_p99", "service.net_us_p50 (round trip minus handler)",
		"core.engine_detect_us", "service.encode_us", "core.swap_us", "snapshot.load_ms"}, nameReplays...)...)
	return nil
}

func getJSON(c *http.Client, u string, v any) error {
	resp, err := c.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// replayServeLayers times the layers the server calls internally on
// the same request mix, without a socket: the whole handler
// (Server.ServeHTTP), detection (Engine.DetectDomainBackend), encoding
// (service.NewMatches + JSON), Engine.Swap and the snapshot load.
func replayServeLayers(rc *runCtx, reqs []serveReq, engines [2]*core.Engine, snap string, roundTripP50Ms float64) {
	srv := service.New(service.Config{Engine: engines[0]})
	var handler []float64
	sp := rc.tr.start("service", "replay Server.ServeHTTP", "", nil)
	for pass := 0; pass < 3; pass++ {
		for _, r := range reqs {
			var req *http.Request
			if r.explain {
				req = httptest.NewRequest("GET", r.target, nil)
			} else {
				req = httptest.NewRequest("POST", r.target, bytes.NewReader(r.body))
			}
			w := httptest.NewRecorder()
			t0 := time.Now()
			srv.ServeHTTP(w, req)
			handler = append(handler, us(time.Since(t0)))
			if w.Code != http.StatusOK {
				rc.rep.check(false, "serve: handler replay status %d", w.Code)
			}
		}
	}
	sp.endCount(int64(len(handler)), true)
	hp50 := quantile(handler, 0.5)
	rc.rep.gauge("service.handler_us_p50", hp50, "us")
	rc.rep.gauge("service.handler_us_p99", quantile(handler, 0.99), "us")
	rc.rep.gauge("service.net_us_p50", roundTripP50Ms*1000-hp50, "us")

	matches := make([][]core.Match, len(reqs))
	sp = rc.tr.start("core", "replay Engine.DetectDomainBackend", "", nil)
	t0 := time.Now()
	for i, r := range reqs {
		for _, n := range r.names {
			m, _ := engines[0].DetectDomainBackend(n, r.be)
			matches[i] = append(matches[i], m...)
		}
	}
	rc.rep.gauge("core.engine_detect_us", us(time.Since(t0))/float64(len(reqs)), "us")
	sp.endCount(int64(len(reqs)), true)

	type resp struct {
		Epoch   uint64          `json:"epoch"`
		Queried int             `json:"queried"`
		Backend string          `json:"backend"`
		Matches []service.Match `json:"matches"`
	}
	enc := json.NewEncoder(io.Discard)
	sp = rc.tr.start("service", "replay NewMatches+encode", "", nil)
	t0 = time.Now()
	for i, r := range reqs {
		enc.Encode(resp{Epoch: 1, Queried: len(r.names), Backend: r.be.String(), Matches: service.NewMatches(matches[i])})
	}
	rc.rep.gauge("service.encode_us", us(time.Since(t0))/float64(len(reqs)), "us")
	sp.endCount(int64(len(reqs)), true)

	scratch := core.NewEngine(engines[0].Detector())
	const swaps = 10000
	sp = rc.tr.start("core", "replay Engine.Swap", "", nil)
	t0 = time.Now()
	for i := 0; i < swaps; i++ {
		scratch.Swap(engines[i%2].Detector())
	}
	rc.rep.gauge("core.swap_us", us(time.Since(t0))/swaps, "us")
	sp.endCount(swaps, true)

	var loads []float64
	for i := 0; i < 3; i++ {
		sp = rc.tr.start("snapshot", "replay snapshot.ReadFile", "", nil)
		t0 = time.Now()
		if _, _, err := snapshot.ReadFile(snap); err != nil {
			rc.rep.check(false, "serve: snapshot replay: %v", err)
		}
		loads = append(loads, ms(time.Since(t0)))
		sp.endCount(1, true)
	}
	rc.rep.gauge("snapshot.load_ms", median(loads), "ms")
}
