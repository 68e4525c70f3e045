// Package triage is the measurement half of the framework as one
// streaming pipeline: detected homographs flow through bounded-
// concurrency DNS probing, conditional web classification and
// blacklist coverage, emitting one Record per domain — the paper's
// Sections 5–6 (resolve the 3,280 detected homographs, fetch and
// categorize the live ones per Tables 12–13, check the set against the
// Table 14 feeds) as a single backpressured chain. It is the only
// fan-out path for §6 probing: the CLI survey, the serving layer's
// jobs and the experiments' tables all run through it.
//
// Shape:
//
//	inputs ──► DNS stage ──► web stage ──► blacklist + tally ──► records
//	           (workers,     (workers;     (in-order collector)
//	            rate limit,   only HasA —
//	            retries)      §6.2 gate)
//
// Stages are connected by channels whose capacity equals the worker
// window, so a slow web fetch backpressures the DNS stage and the DNS
// stage backpressures the feeder — memory stays proportional to the
// worker counts, never to the input. Each stage preserves input order
// deterministically for any worker count: a dispatcher hands every
// item a one-shot result slot and queues the slots in arrival order; a
// collector awaits the slots in that same order. Per-stage timeouts
// bound a hung probe without stalling the window, retries absorb
// transient transport errors, and a token-bucket rate limit caps the
// aggregate DNS query rate across workers.
//
// Partial progress is checkpointable: records already present in a
// resume set (loaded from a previous run's JSONL output) ride the
// pipeline unprobed, so an interrupted zone-scale survey restarts in
// seconds and its final output is byte-identical to an uninterrupted
// run.
package triage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blacklist"
	"repro/internal/dnsclient"
	"repro/internal/resilience"
	"repro/internal/webclassify"
)

// Input is one detected homograph entering the pipeline.
type Input struct {
	// FQDN is the normalized ACE domain ("xn--ggle-55da.com").
	FQDN string
	// Reference is the domain it imitates ("google.com"); optional,
	// carried through for reporting.
	Reference string
	// Source names the homoglyph database(s) that detected it ("UC",
	// "SimChar", "UC∪SimChar"); optional, feeds the Table 14 split.
	Source string
}

// Record is the triage outcome for one domain — one JSONL line of a
// survey run. The Resumed flag is runtime-only (never serialized) so a
// resumed run's output is byte-identical to an uninterrupted one.
type Record struct {
	FQDN      string `json:"fqdn"`
	Reference string `json:"reference,omitempty"`
	Source    string `json:"source,omitempty"`

	// DNS stage (paper §6.1).
	HasNS    bool     `json:"has_ns"`
	HasA     bool     `json:"has_a"`
	HasMX    bool     `json:"has_mx"`
	NSHosts  []string `json:"ns_hosts,omitempty"`
	DNSError string   `json:"dns_error,omitempty"`

	// Web stage (paper §6.2, Tables 12–13). Empty when the stage was
	// skipped or gated off (no A record).
	Category       string `json:"category,omitempty"`
	RedirectTarget string `json:"redirect_target,omitempty"`
	RedirectClass  string `json:"redirect_class,omitempty"`
	StatusHTTP     int    `json:"status_http,omitempty"`
	StatusHTTPS    int    `json:"status_https,omitempty"`

	// Blacklist stage (paper Table 14): names of the feeds listing the
	// domain, in the set's column order.
	Blacklists []string `json:"blacklists,omitempty"`

	Resumed bool `json:"-"`

	// aborted marks a record whose probing was cut short by
	// cancellation rather than completed or timed out. Aborted records
	// are never emitted: a half-probed domain must not enter a
	// checkpoint looking like a clean NXDOMAIN, or a resumed run would
	// trust it forever.
	aborted bool
}

// Config parameterizes a Pipeline.
type Config struct {
	// DNS is the probing client; required unless SkipDNS.
	DNS *dnsclient.Client
	// Classifier fetches and classifies websites; required unless
	// SkipWeb. The pipeline's web stage pool governs concurrency; the
	// classifier's Timeout bounds each fetch, with StageTimeout as the
	// per-domain ceiling above it.
	Classifier *webclassify.Classifier
	// Blacklists is the Table 14 feed set; nil skips the blacklist
	// stage.
	Blacklists *blacklist.Set

	// DNSWorkers bounds concurrent DNS probes. 0 means 16.
	DNSWorkers int
	// WebWorkers bounds concurrent web fetches. 0 means 16.
	WebWorkers int
	// RateLimit caps aggregate DNS probes per second across workers;
	// 0 means unlimited.
	RateLimit float64
	// Retries is how many extra attempts a failed DNS probe gets
	// (transport errors only; NXDOMAIN is an answer). Default 1; pass
	// a negative value for none. These stack multiplicatively on the
	// DNS client's own UDP retransmits (dnsclient.Client.Retries,
	// default 2) — construct the client with Retries: 0 when the
	// pipeline should own the whole retry policy, as the CLI and
	// serving layer do.
	Retries int
	// RetryBackoff spaces the pipeline-level DNS retries. A probe that
	// just failed usually failed because the resolver (or path) is
	// saturated; an immediate re-probe from every worker at once only
	// deepens the hole. The zero value keeps the historical
	// back-to-back behaviour.
	RetryBackoff resilience.Backoff
	// StageTimeout bounds one domain's stay in one stage; a probe or
	// fetch still running when it expires is recorded as an error and
	// the window moves on. 0 means 15 seconds.
	StageTimeout time.Duration

	// ParkingNS are name-server suffixes of known parking providers:
	// domains whose probed delegation matches are classified parked
	// without a fetch (the Vissers-style first pass).
	ParkingNS []string

	// Resume holds records from a previous run, keyed by FQDN; inputs
	// found here ride through unprobed.
	Resume map[string]Record

	// SkipDNS, SkipWeb and SkipBlacklist disable stages. With SkipDNS
	// the §6.2 gate is open: every domain is fetched.
	SkipDNS, SkipWeb, SkipBlacklist bool
}

// Progress is a point-in-time snapshot of a running pipeline's
// counters, safe to read concurrently with the run.
type Progress struct {
	Submitted int64 `json:"submitted"`
	Probed    int64 `json:"probed"`
	Fetched   int64 `json:"fetched"`
	Done      int64 `json:"done"`
	Resumed   int64 `json:"resumed"`
	DNSErrors int64 `json:"dns_errors"`
}

// Pipeline is a configured triage chain. One Pipeline may run once;
// construct a fresh one per survey.
type Pipeline struct {
	cfg     Config
	limiter *limiter

	submitted, probed, fetched, done, resumed, dnsErrors atomic.Int64
}

// New validates cfg and returns a runnable pipeline.
func New(cfg Config) (*Pipeline, error) {
	if !cfg.SkipDNS && cfg.DNS == nil {
		return nil, errors.New("triage: Config.DNS is required unless SkipDNS")
	}
	if !cfg.SkipWeb && cfg.Classifier == nil {
		return nil, errors.New("triage: Config.Classifier is required unless SkipWeb")
	}
	if cfg.DNSWorkers <= 0 {
		cfg.DNSWorkers = 16
	}
	if cfg.WebWorkers <= 0 {
		cfg.WebWorkers = 16
	}
	if cfg.Retries == 0 {
		cfg.Retries = 1
	} else if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.StageTimeout <= 0 {
		cfg.StageTimeout = 15 * time.Second
	}
	p := &Pipeline{cfg: cfg}
	if cfg.RateLimit > 0 {
		p.limiter = newLimiter(cfg.RateLimit)
	}
	return p, nil
}

// Progress snapshots the pipeline's counters.
func (p *Pipeline) Progress() Progress {
	return Progress{
		Submitted: p.submitted.Load(),
		Probed:    p.probed.Load(),
		Fetched:   p.fetched.Load(),
		Done:      p.done.Load(),
		Resumed:   p.resumed.Load(),
		DNSErrors: p.dnsErrors.Load(),
	}
}

// Stream runs the pipeline over in, emitting one Record per Input on
// the returned channel, in input order. The channel closes when the
// input is exhausted or ctx is cancelled. On cancellation, only
// records that completed every enabled stage are emitted — in-flight
// domains whose probing was cut short are dropped (never surfaced as
// false negatives, never checkpointed), and no goroutines are left
// behind once the channel closes.
func (p *Pipeline) Stream(ctx context.Context, in <-chan Input) <-chan Record {
	// Feeder: Input → seeded Record (resume hit or blank).
	seeded := make(chan Record, p.cfg.DNSWorkers)
	go func() {
		defer close(seeded)
		for {
			var input Input
			var ok bool
			select {
			case input, ok = <-in:
				if !ok {
					return
				}
			case <-ctx.Done():
				return
			}
			p.submitted.Add(1)
			rec := Record{FQDN: input.FQDN, Reference: input.Reference, Source: input.Source}
			if prev, hit := p.cfg.Resume[input.FQDN]; hit {
				rec = prev
				// The identity fields follow the current input: a resume
				// file only memoizes probe outcomes.
				rec.FQDN, rec.Reference, rec.Source = input.FQDN, input.Reference, input.Source
				rec.Resumed = true
				p.resumed.Add(1)
			}
			select {
			case seeded <- rec:
			case <-ctx.Done():
				return
			}
		}
	}()

	var probed <-chan Record = seeded
	if !p.cfg.SkipDNS {
		probed = orderedStage(ctx, probed, p.cfg.DNSWorkers, p.dnsStage)
	}
	classified := probed
	if !p.cfg.SkipWeb {
		classified = orderedStage(ctx, classified, p.cfg.WebWorkers, p.webStage)
	}

	// Final stage: blacklist lookup + bookkeeping, in order, no pool —
	// map probes cost nanoseconds.
	out := make(chan Record)
	go func() {
		defer close(out)
		for rec := range classified {
			if rec.aborted {
				continue // cancelled mid-probe: incomplete, not a result
			}
			if !p.cfg.SkipBlacklist && p.cfg.Blacklists != nil && !rec.Resumed {
				for _, f := range p.cfg.Blacklists.Feeds() {
					if f != nil && f.Contains(rec.FQDN) {
						rec.Blacklists = append(rec.Blacklists, f.Name)
					}
				}
			}
			p.done.Add(1)
			select {
			case out <- rec:
			case <-ctx.Done():
				// Drain so every upstream goroutine can finish and exit.
				for range classified {
				}
				return
			}
		}
	}()
	return out
}

// Run drains inputs through Stream and collects the records. The
// returned slice holds one record per input, in input order; on
// cancellation it holds only the records that completed every enabled
// stage (in-flight domains are dropped, not emitted half-probed),
// alongside ctx's error.
func (p *Pipeline) Run(ctx context.Context, inputs []Input) ([]Record, error) {
	in := make(chan Input)
	go func() {
		defer close(in)
		for _, input := range inputs {
			select {
			case in <- input:
			case <-ctx.Done():
				return
			}
		}
	}()
	records := make([]Record, 0, len(inputs))
	for rec := range p.Stream(ctx, in) {
		records = append(records, rec)
	}
	return records, ctx.Err()
}

// dnsStage probes NS/A/MX for one record (unless resumed), applying
// the rate limit, retries and the stage timeout.
func (p *Pipeline) dnsStage(ctx context.Context, rec Record) Record {
	if rec.Resumed {
		return rec
	}
	defer p.probed.Add(1)
	attempts := p.cfg.Retries + 1
	var res dnsclient.ProbeResult
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 && p.cfg.RetryBackoff.Base > 0 {
			if err := p.cfg.RetryBackoff.Sleep(ctx, attempt-1); err != nil {
				rec.aborted = true
				return rec
			}
		}
		if p.limiter != nil {
			if err := p.limiter.wait(ctx); err != nil {
				rec.aborted = true // cancelled while queued, not an outcome
				return rec
			}
		}
		var timedOut bool
		res, timedOut = p.probeWithTimeout(ctx, rec.FQDN)
		if timedOut {
			// The stage timeout is a hard per-domain ceiling, not a
			// per-attempt one: retrying here would hold the worker slot
			// (and the in-order window) for attempts × StageTimeout and
			// stack abandoned probe goroutines. Record the overrun and
			// move the window on.
			rec.DNSError = fmt.Sprintf("triage: probe exceeded stage timeout %v", p.cfg.StageTimeout)
			p.dnsErrors.Add(1)
			return rec
		}
		if res.Err == nil {
			break
		}
	}
	if res.Err != nil {
		if errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded) {
			rec.aborted = true
			return rec
		}
		rec.DNSError = res.Err.Error()
		p.dnsErrors.Add(1)
		return rec
	}
	rec.HasNS, rec.HasA, rec.HasMX, rec.NSHosts = res.HasNS, res.HasA, res.HasMX, res.NSHosts
	return rec
}

// probeWithTimeout runs one probe bounded by the stage timeout,
// expressed as a context deadline the DNS client honors directly: on
// expiry the probe stops retransmitting, stops sleeping through its
// backoff schedule, and releases its pooled-connection slots before
// returning — nothing is abandoned to keep probing a domain the
// window already moved past.
func (p *Pipeline) probeWithTimeout(ctx context.Context, fqdn string) (dnsclient.ProbeResult, bool) {
	pctx, cancel := context.WithTimeout(ctx, p.cfg.StageTimeout)
	defer cancel()
	res := p.cfg.DNS.ProbeContext(pctx, fqdn)
	if res.Err != nil && pctx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
		return dnsclient.ProbeResult{Name: fqdn}, true
	}
	return res, false
}

// webStage classifies one record's website. The §6.2 gate: only
// domains that resolved (or everything, when DNS was skipped) are
// fetched. A delegation parked on a known provider classifies without
// a fetch.
func (p *Pipeline) webStage(ctx context.Context, rec Record) Record {
	if rec.Resumed || rec.aborted {
		return rec
	}
	if !p.cfg.SkipDNS && !rec.HasA {
		return rec
	}
	if len(p.cfg.ParkingNS) > 0 && webclassify.ParkedOn(rec.NSHosts, p.cfg.ParkingNS) {
		rec.Category = string(webclassify.CatParked)
		return rec
	}
	defer p.fetched.Add(1)
	ch := make(chan webclassify.Result, 1)
	go func() {
		ch <- p.cfg.Classifier.Classify(rec.FQDN)
	}()
	t := time.NewTimer(p.cfg.StageTimeout)
	defer t.Stop()
	var res webclassify.Result
	select {
	case res = <-ch:
	case <-t.C:
		// A genuine outcome: the host was too slow for the survey, the
		// paper's Error class.
		rec.Category = string(webclassify.CatError)
		return rec
	case <-ctx.Done():
		rec.aborted = true // cancelled, not slow
		return rec
	}
	rec.Category = string(res.Category)
	rec.RedirectTarget = res.RedirectTarget
	rec.RedirectClass = string(res.RedirectClass)
	rec.StatusHTTP = res.StatusHTTP
	rec.StatusHTTPS = res.StatusHTTPS
	return rec
}

// orderedStage fans records across a bounded worker pool while
// preserving input order: the dispatcher assigns each record a
// one-shot slot and queues slots in arrival order; the collector
// awaits them in that order. The pending queue's capacity is the
// worker count, which is also the stage's reorder window — a stalled
// head-of-line item (bounded by the stage timeout) holds back at most
// one window of completed successors, and the full queue backpressures
// the dispatcher, which backpressures upstream.
func orderedStage(ctx context.Context, in <-chan Record, workers int, fn func(context.Context, Record) Record) <-chan Record {
	out := make(chan Record)
	pending := make(chan chan Record, workers)
	sem := make(chan struct{}, workers)
	go func() { // dispatcher
		defer close(pending)
		for rec := range in {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				// Drain upstream so its goroutine can exit.
				for range in {
				}
				return
			}
			slot := make(chan Record, 1)
			pending <- slot
			go func(rec Record) {
				defer func() { <-sem }()
				if ctx.Err() != nil {
					rec.aborted = true // never ran the stage
					slot <- rec
					return
				}
				slot <- fn(ctx, rec)
			}(rec)
		}
	}()
	go func() { // collector
		defer close(out)
		for slot := range pending {
			rec := <-slot // always arrives: workers send unconditionally into a 1-slot buffer
			select {
			case out <- rec:
			case <-ctx.Done():
				for slot := range pending {
					<-slot
				}
				return
			}
		}
	}()
	return out
}

// limiter is a minimal token-bucket rate limiter: each wait reserves
// the next slot on a virtual timeline spaced 1/rate apart, so N
// concurrent workers collectively never exceed the configured rate,
// with no background goroutine to leak.
type limiter struct {
	mu       sync.Mutex
	next     time.Time
	interval time.Duration
}

func newLimiter(perSecond float64) *limiter {
	return &limiter{interval: time.Duration(float64(time.Second) / perSecond)}
}

func (l *limiter) wait(ctx context.Context) error {
	l.mu.Lock()
	//shamlint:allow determinism the token bucket paces wall-clock probe rate; time never reaches record bytes
	now := time.Now()
	if l.next.Before(now) {
		l.next = now
	}
	d := l.next.Sub(now)
	l.next = l.next.Add(l.interval)
	l.mu.Unlock()
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return ctx.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}
