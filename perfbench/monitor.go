package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/blacklist"
	"repro/internal/core"
	"repro/internal/dnsclient"
	"repro/internal/dnsserver"
	"repro/internal/domain"
	"repro/internal/hostsim"
	"repro/internal/jobstore"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/triage"
	"repro/internal/webclassify"
	"repro/internal/websim"
	"repro/internal/zonewatch"

	shamfinder "repro"
)

const (
	// monitorScale is the registry the monitored zone is drawn from
	// (zone-sweep's), and monitorASCIIShare the share of its plain names
	// the zone keeps: ~140k lines, a quarter of zone-sweep's zone, with
	// every benign IDN and planted homograph, so that triage of the
	// additions outweighs the scan.
	monitorScale      = sweepScale
	monitorASCIIShare = 4 // keep one plain name in four
	// monitorGens is the number of timed zone generations per cycle;
	// each adds 1/monitorGens of the planted homographs.
	monitorGens = 4
	// monitorSetups is how many times a run cold-starts the stack.
	monitorSetups = 21
	// surveyUA is the survey crawler's user agent (the serving layer's
	// own), which cloaking sites key on.
	surveyUA = "ShamFinder-Survey/1.0"
)

// monitorPlan is the zone's generation schedule: which names each
// generation's zone holds, and how many of them are new candidates and
// planted homographs.
type monitorPlan struct {
	order    []string // every name, seeded shuffle; a generation keeps a subset in this order
	gen      map[string]int
	added    [monitorGens + 1]int64
	detected [monitorGens + 1]int64
}

func makeMonitorPlan(in *inputs, seed uint64) *monitorPlan {
	rng := stats.NewRNG(seed ^ 0x3017)
	p := &monitorPlan{gen: map[string]int{}}
	add := func(name string, g int, planted bool) {
		if _, dup := p.gen[name]; dup {
			return // a few homographs collide textually
		}
		p.gen[name] = g
		p.order = append(p.order, name)
		if strings.Contains(name, "xn--") {
			p.added[g]++
			if planted {
				p.detected[g]++
			}
		}
	}
	for _, d := range in.reg.BenignASCII {
		if rng.Intn(monitorASCIIShare) == 0 {
			add(d, 0, false)
		}
	}
	// Half the benign IDNs are in the baseline, the rest arrive with the
	// homographs, so added and detected differ in every generation.
	for i, d := range in.reg.BenignIDNs {
		g := 0
		if i%2 == 1 {
			g = 1 + (i/2)%monitorGens
		}
		add(d.ASCII, g, false)
	}
	for i, h := range in.reg.Homographs {
		add(h.ASCII, 1+i%monitorGens, true)
	}
	rng.Shuffle(len(p.order), func(i, j int) { p.order[i], p.order[j] = p.order[j], p.order[i] })
	return p
}

// writeGeneration drops generation g's zone file atomically.
func (p *monitorPlan) writeGeneration(path string, g int) (int, error) {
	var b strings.Builder
	lines := 0
	for _, n := range p.order {
		if p.gen[n] <= g {
			b.WriteString(n)
			b.WriteByte('\n')
			lines++
		}
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(b.String()), 0o644); err != nil {
		return 0, err
	}
	return lines, os.Rename(tmp, path)
}

// infra is the in-process simulated Internet the surveys probe.
type infra struct {
	dns    *dnsserver.Server
	web    *websim.Server
	mapper *hostsim.Mapper
	feeds  *blacklist.Set
	dials  atomic.Int64
}

func startInfra(in *inputs) (*infra, error) {
	store := dnsserver.NewStore()
	store.AddZone(in.reg.BuildProbeZone(0))
	x := &infra{dns: dnsserver.NewServer(store)}
	if err := x.dns.ListenAndServe("127.0.0.1:0"); err != nil {
		return nil, err
	}
	var err error
	if x.mapper, err = hostsim.NewMapper(); err != nil {
		x.dns.Close()
		return nil, err
	}
	x.web = websim.NewServer()
	if err := x.web.Start(); err != nil {
		x.dns.Close()
		return nil, err
	}
	websim.Deploy(in.reg, x.web, x.mapper)
	if x.feeds, err = in.env.Blacklists(); err != nil {
		x.close()
		return nil, err
	}
	return x, nil
}

func (x *infra) close() {
	x.web.Close()
	x.dns.Close()
}

// resolve is the web stage's dial hook; it counts every dial.
func (x *infra) resolve(domain string, port int) string {
	x.dials.Add(1)
	return x.mapper.Resolve(domain, port)
}

// stack is one monitoring process: the durable job store, the serving
// layer over its engine, the zone watcher and its survey batcher.
type stack struct {
	store   *jobstore.Store
	srv     *service.Server
	watcher *zonewatch.Watcher
	batcher *zonewatch.SurveyBatcher
	zone    string
	jobs    []submitted // in submission order
	spec    jobstore.Spec
	tr      *tracer
	parent  *spanRef
	genID   string
}

type submitted struct {
	id     string
	gen    int
	inputs []triage.Input
	cut    time.Time // when the batcher called Submit
	call   time.Duration
}

// startStack brings up a stack over a state directory the way `serve
// -snapshot -job-dir` plus `watch-zone` do: load the snapshot, start
// the engine, open the store, build the server and recover, open the
// watcher and its batcher.
func startStack(snap, dir string, x *infra) (*stack, error) {
	_, det, err := snapshot.ReadFile(snap)
	if err != nil {
		return nil, err
	}
	engine := core.NewEngine(det)
	s := &stack{zone: filepath.Join(dir, "zone.txt")}
	s.spec = jobstore.Spec{Resolver: x.dns.Addr(), Transport: "udp"}
	if s.store, err = jobstore.Open(filepath.Join(dir, "jobs")); err != nil {
		return nil, err
	}
	stateDir := filepath.Join(dir, "state")
	s.watcher, err = zonewatch.New(zonewatch.Config{ZonePath: s.zone, StateDir: stateDir, Engine: engine})
	if err != nil {
		return nil, err
	}
	s.srv = service.New(service.Config{
		Engine:    engine,
		ZoneWatch: s.watcher,
		Survey: service.SurveyConfig{
			Resolve:      x.resolve,
			Blacklists:   x.feeds,
			ParkingNS:    registry.ParkingProviders,
			Store:        s.store,
			KeepFinished: 1 << 20, // a cycle's jobs must all stay readable
		},
	})
	if err := s.srv.RecoverSurveys(); err != nil {
		return nil, err
	}
	journal := filepath.Join(stateDir, "deltas.out")
	s.batcher, err = zonewatch.NewSurveyBatcher(zonewatch.SurveyBatcherConfig{
		JournalPath: journal,
		Submit: func(in []triage.Input, q int, from, to int64) (string, error) {
			return s.submit(in, q, journal, from, to)
		},
		Cursor:         s.store.MaxJournalTo(journal),
		DeadLetterPath: s.watcher.DeadLetterPath(),
	})
	return s, err
}

func (s *stack) submit(in []triage.Input, queried int, journal string, from, to int64) (string, error) {
	sp := s.tr.start("service", "SubmitSurvey", s.genID, s.parent)
	t0 := time.Now()
	id, err := s.srv.SubmitSurvey(s.spec, in, queried, journal, from, to)
	sp.end()
	if err == nil {
		s.jobs = append(s.jobs, submitted{id: id, inputs: in, cut: t0, call: time.Since(t0)})
	}
	return id, err
}

// waitTerminal polls the store until job id's durable manifest is
// terminal and returns when that was observed.
func (s *stack) waitTerminal(ctx context.Context, id string) (jobstore.Manifest, time.Time, error) {
	for {
		if m, ok := s.store.Get(id); ok && jobstore.Terminal(m.State) {
			return m, time.Now(), nil
		}
		select {
		case <-ctx.Done():
			return jobstore.Manifest{}, time.Time{}, fmt.Errorf("job %s: %w", id, ctx.Err())
		case <-time.After(500 * time.Microsecond):
		}
	}
}

// quiesce waits until no survey job is running, then checks that the
// state directory no longer changes.
func (s *stack) quiesce(ctx context.Context, dir string) error {
	for s.srv.Stats().SurveysActive != 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("jobs still active: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	before := listing(dir)
	time.Sleep(20 * time.Millisecond)
	if after := listing(dir); after != before {
		return fmt.Errorf("state directory %s still changing after every manifest was terminal", dir)
	}
	return nil
}

func listing(dir string) string {
	var b strings.Builder
	filepath.Walk(dir, func(p string, fi os.FileInfo, err error) error {
		if err == nil {
			fmt.Fprintf(&b, "%s %d %d\n", p, fi.Size(), fi.ModTime().UnixNano())
		}
		return nil
	})
	return b.String()
}

// genResult is one timed generation.
type genResult struct {
	lines       int
	latency     time.Duration // zone drop → last terminal manifest
	surveyed    int
	surveySpan  time.Duration // first batch cut → last terminal manifest
	scan        zonewatch.ScanStats
	scanTime    time.Duration
	tickTime    time.Duration
	jobLatency  []time.Duration
	submitCalls []time.Duration
}

// cycle runs one monitoring process from empty state: the baseline
// generation, then monitorGens timed generations, each ending when
// every job it produced has a terminal manifest in the store.
func cycle(ctx context.Context, rc *runCtx, p *monitorPlan, snap, dir string, x *infra, tr *tracer, id string) ([]genResult, *stack, error) {
	s, err := startStack(snap, dir, x)
	if err != nil {
		return nil, nil, err
	}
	s.tr = tr
	if _, err := p.writeGeneration(s.zone, 0); err != nil {
		return nil, nil, err
	}
	base, err := s.watcher.ScanOnce(ctx)
	if err != nil {
		return nil, nil, err
	}
	rc.rep.check(base.Added == p.added[0] && base.Detected == 0,
		"monitor: baseline scan added %d detected %d, plan %d and 0", base.Added, base.Detected, p.added[0])
	s.batcher.Tick(ctx)
	s.batcher.Flush()

	var out []genResult
	for g := 1; g <= monitorGens; g++ {
		s.genID = fmt.Sprintf("%s-g%d", id, g)
		root := tr.start("bench", "generation", s.genID, nil)
		s.parent = root
		var r genResult
		first := len(s.jobs)
		if r.lines, err = p.writeGeneration(s.zone, g); err != nil {
			return nil, nil, err
		}
		drop := time.Now() // the new generation is in place
		sp := tr.start("zonewatch", "ScanOnce", s.genID, root)
		t0 := time.Now()
		r.scan, err = s.watcher.ScanOnce(ctx)
		r.scanTime = time.Since(t0)
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		rc.rep.check(r.scan.Added == p.added[g] && r.scan.Detected == p.detected[g],
			"monitor: generation %d scan added %d detected %d, plan %d and %d", g, r.scan.Added, r.scan.Detected, p.added[g], p.detected[g])
		// Tick and Flush call Submit synchronously; the SubmitSurvey
		// spans nest under this one, and tickTime is net of them.
		sp = tr.start("zonewatch", "SurveyBatcher.Tick+Flush", s.genID, root)
		s.parent = sp
		t0 = time.Now()
		s.batcher.Tick(ctx)
		s.batcher.Flush()
		r.tickTime = time.Since(t0)
		sp.end()
		s.parent = root
		var last time.Time
		for i := first; i < len(s.jobs); i++ {
			j := &s.jobs[i]
			j.gen = g
			m, at, err := s.waitTerminal(ctx, j.id)
			if err != nil {
				return nil, nil, err
			}
			tr.record("triage", "survey job (jobstore+triage)", j.id, root, j.cut.Add(j.call), at)
			r.jobLatency = append(r.jobLatency, at.Sub(j.cut))
			r.submitCalls = append(r.submitCalls, j.call)
			r.tickTime -= j.call
			r.surveyed += len(j.inputs)
			if m.State != jobstore.StateDone {
				rc.rep.check(false, "monitor: job %s ended %s: %s", j.id, m.State, m.Error)
			}
			if at.After(last) {
				last = at
			}
		}
		if last.IsZero() {
			last = time.Now()
		}
		root.end()
		r.latency = last.Sub(drop)

		if first < len(s.jobs) {
			r.surveySpan = last.Sub(s.jobs[first].cut)
		}
		out = append(out, r)
	}
	if err := s.quiesce(ctx, dir); err != nil {
		rc.rep.check(false, "monitor: %v", err)
	}
	return out, s, nil
}

// checkCycle compares a finished cycle's durable results with the
// standalone pipeline's: batches are cut at the same journal points in
// every cycle, so job k's stored records must equal triage.Pipeline.Run
// on the warm-up cycle's job k inputs (want[k]), and each manifest tally
// must equal its records' Tally. It counts failed jobs and records
// carrying a DNS error.
func checkCycle(rc *runCtx, s *stack, want [][]byte) {
	rc.rep.check(len(s.jobs) == len(want), "monitor: cycle cut %d jobs, the warm-up cycle %d", len(s.jobs), len(want))
	for k, j := range s.jobs {
		m, _ := s.store.Get(j.id)
		rc.rep.attempted++
		if m.State != jobstore.StateDone {
			rc.rep.failed++
			continue
		}
		recs, err := s.store.LoadRecords(j.id)
		if err != nil {
			rc.rep.check(false, "monitor: job %s records: %v", j.id, err)
			continue
		}
		tally := triage.NewTally()
		for _, r := range recs {
			rc.rep.attempted++
			if r.DNSError != "" {
				rc.rep.failed++
			}
			tally.Add(r)
		}
		got, _ := json.Marshal(recs)
		rc.rep.check(k < len(want) && string(got) == string(want[k]),
			"monitor: job %s (generation %d) records differ from triage.Pipeline.Run on its inputs", j.id, j.gen)
		a, _ := json.Marshal(tally)
		b, _ := json.Marshal(m.Tally)
		rc.rep.check(string(a) == string(b), "monitor: job %s manifest tally differs from its records' Tally", j.id)
	}
}

// pipelineConfig mirrors the serving layer's survey configuration for
// a job spec, so a standalone Pipeline.Run sees what the jobs saw.
func pipelineConfig(x *infra, client *dnsclient.Client) triage.Config {
	return triage.Config{
		DNS: client,
		Classifier: &webclassify.Classifier{
			Resolve:     x.mapper.Resolve,
			Timeout:     3 * time.Second,
			UserAgent:   surveyUA,
			IsMalicious: x.feeds.AnyContains,
		},
		Blacklists: x.feeds,
		ParkingNS:  registry.ParkingProviders,
	}
}

func newProbeClient(x *infra) *dnsclient.Client {
	c := dnsclient.New(x.dns.Addr())
	c.Transport = dnsclient.TransportUDP
	c.Timeout = 2 * time.Second
	c.Retries = 0
	return c
}

func runMonitor(rc *runCtx) error {
	in, err := makeInputs(rc, monitorScale)
	if err != nil {
		return err
	}
	plan := makeMonitorPlan(in, rc.seed)
	x, err := startInfra(in)
	if err != nil {
		return err
	}
	defer x.close()

	db := in.env.DB()
	c0 := time.Now()
	det := core.NewDetector(db, in.refs)
	compileMs := ms(time.Since(c0))
	snap := filepath.Join(rc.workDir, "monitor.snap")
	if err := snapshot.WriteFile(snap, db, det); err != nil {
		return err
	}
	resetPeakRSS()

	// Set-up: snapshot load + engine, store, server, watcher, batcher,
	// each repetition from a collected heap. The repetitions are spread
	// over the run, one before each timed cycle and the rest at its end,
	// so the set-up median sees the same machine as the cycles rather
	// than the busy moments after the inputs are built.
	var setups, loads []float64
	setupOnce := func() error {
		runtime.GC()
		t0 := time.Now()
		if _, _, err := snapshot.ReadFile(snap); err != nil {
			return err
		}
		loads = append(loads, ms(time.Since(t0)))
		runtime.GC()
		dir := filepath.Join(rc.workDir, fmt.Sprintf("setup-%d", len(setups)))
		t0 = time.Now()
		if _, err := startStack(snap, dir, x); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		return os.RemoveAll(dir)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if rc.traced {
		rc.tr = newTracer()
	}

	// An untimed warm-up cycle fills caches and yields each generation's
	// job inputs. The standalone pipeline on those inputs is the
	// reference every durable record must equal; in a traced run it is
	// also the triage replay.
	_, warm, err := cycle(ctx, rc, plan, snap, filepath.Join(rc.workDir, "warmup"), x, nil, "warmup")
	if err != nil {
		return err
	}
	var want [][]byte
	var replayRecs []triage.Record
	var replayIn []triage.Input
	var runTime time.Duration
	var progress triage.Progress
	for _, j := range warm.jobs {
		client := newProbeClient(x)
		p, err := triage.New(pipelineConfig(x, client))
		if err != nil {
			return err
		}
		sp := rc.tr.start("triage", "replay Pipeline.Run", j.id, nil)
		t0 := time.Now()
		recs, err := p.Run(ctx, j.inputs)
		runTime += time.Since(t0)
		sp.endCount(int64(len(j.inputs)), true)
		client.Close()
		if err != nil {
			return err
		}
		pr := p.Progress()
		progress.DNSErrors += pr.DNSErrors
		progress.Fetched += pr.Fetched
		w, _ := json.Marshal(recs)
		want = append(want, w)
		replayRecs = append(replayRecs, recs...)
		replayIn = append(replayIn, j.inputs...)
	}
	checkCycle(rc, warm, want)

	// Timed cycles, each checked and its state removed as soon as it
	// ends, so no cycle's memory or files weigh on the next.
	cycles := 1
	runCycles := func(d time.Duration, tr *tracer, phase string) ([]genResult, []float64, error) {
		var gens []genResult
		var seen []float64
		start := time.Now()
		for n := 0; n < 2 || time.Since(start) < d; n++ {
			if len(setups) < monitorSetups {
				if err := setupOnce(); err != nil {
					return nil, nil, err
				}
			}
			runtime.GC()
			dir := filepath.Join(rc.workDir, fmt.Sprintf("%s-%d", phase, n))
			rs, s, err := cycle(ctx, rc, plan, snap, dir, x, tr, fmt.Sprintf("%s%d", phase, n))
			if err != nil {
				return nil, nil, err
			}
			checkCycle(rc, s, want)
			seen = append(seen, s.watcher.Health().SeenLoadMillis)
			if err := os.RemoveAll(dir); err != nil {
				return nil, nil, err
			}
			gens = append(gens, rs...)
			cycles++
		}
		return gens, seen, nil
	}
	phase := rc.duration
	if rc.traced {
		phase /= 2
	}
	gens, _, err := runCycles(phase, nil, "untraced")
	if err != nil {
		return err
	}
	for len(setups) < monitorSetups {
		if err := setupOnce(); err != nil {
			return err
		}
	}
	rc.rep.gauge("setup_s", median(setups), "s")
	linesPerS, genP50, surveyPerS := monitorRates(gens)
	rc.rep.gauge("monitor_lines_per_s", linesPerS, "1/s")
	rc.rep.gauge("monitor_gen_ms_p50", genP50, "ms")
	rc.rep.gauge("survey_domains_per_s", surveyPerS, "1/s")
	rc.rep.gauge("generations", float64(len(gens)), "count")
	if !rc.traced {
		return nil
	}

	w0 := time.Now()
	tgens, seen, err := runCycles(phase, rc.tr, "traced")
	if err != nil {
		return err
	}
	wall := time.Since(w0)
	tLines, tGenP50, _ := monitorRates(tgens)
	reportOverhead(rc, linesPerS, tLines, genP50, tGenP50)
	reportSelfTimes(rc, wall)

	var scanRates, ticks, submits, jobs []float64
	var added, detected int64
	for i, g := range tgens {
		scanRates = append(scanRates, float64(g.scan.Lines)/g.scanTime.Seconds())
		ticks = append(ticks, ms(g.tickTime))
		submits = append(submits, durations(g.submitCalls, ms)...)
		jobs = append(jobs, durations(g.jobLatency, func(d time.Duration) float64 { return d.Seconds() })...)
		if i < monitorGens {
			added += g.scan.Added
			detected += g.scan.Detected
		}
	}
	rc.rep.gauge("zonewatch.scan_lines_per_s", median(scanRates), "1/s")
	rc.rep.gauge("zonewatch.seen_load_ms", median(seen), "ms")
	rc.rep.gauge("zonewatch.added", float64(added), "count")
	rc.rep.gauge("zonewatch.detected", float64(detected), "count")
	rc.rep.gauge("zonewatch.batcher_tick_ms", median(ticks), "ms")
	rc.rep.gauge("service.submit_ms", median(submits), "ms")
	rc.rep.gauge("service.job_s_p50", median(jobs), "s")
	rc.rep.gauge("webclassify.dials", float64(x.dials.Load())/float64(cycles), "count")
	rc.rep.note("zonewatch.added/detected and webclassify.dials are per cycle (%d generations, every planted homograph once); zonewatch.batcher_tick_ms excludes the SubmitSurvey calls it makes", monitorGens)
	rc.rep.gauge("snapshot.load_ms", median(loads), "ms")
	rc.rep.gauge("core.compile_ms", compileMs, "ms")
	tm := in.env.SimCharTimings()
	rc.rep.gauge("simchar.build_ms", ms(tm.RasterizeImages+tm.ComputePairwise+tm.EliminateSparse), "ms")

	// Replays of the layers the program calls internally, each on this
	// run's own inputs.
	rc.rep.gauge("triage.domains_per_s", float64(len(replayIn))/runTime.Seconds(), "1/s")
	rc.rep.gauge("triage.dns_errors", float64(progress.DNSErrors), "count")
	rc.rep.gauge("triage.fetched", float64(progress.Fetched), "count")
	replayMonitorLayers(rc, x, warm, replayIn, replayRecs)
	var lines [][]byte
	for _, n := range plan.order {
		lines = append(lines, []byte(n))
	}
	_, fdet, err := shamfinder.LoadSnapshot(snap)
	if err != nil {
		return err
	}
	replayNames(rc, fdet, lines, domain.NormalizeZoneLine)
	rc.rep.replayed(append([]string{"triage.domains_per_s", "triage.dns_errors", "triage.fetched", "triage.tally_us",
		"jobstore.put_ms", "dnsclient.probe_ms_p50", "dnsclient.probe_ms_p99", "dnsclient.error_ratio",
		"webclassify.classify_ms_p50", "webclassify.classify_ms_p99", "blacklist.lookup_ns"}, nameReplays...)...)
	return nil
}

func monitorRates(gens []genResult) (linesPerS, genMsP50, surveyPerS float64) {
	var lr, lat, sr []float64
	for _, g := range gens {
		lr = append(lr, float64(g.lines)/g.latency.Seconds())
		lat = append(lat, ms(g.latency))
		if g.surveySpan > 0 {
			sr = append(sr, float64(g.surveyed)/g.surveySpan.Seconds())
		}
	}
	return median(lr), median(lat), median(sr)
}

// replayMonitorLayers times, on the run's own inputs, the layers the
// survey jobs call internally: Tally.Add, Store.Put on the run's
// manifests, dnsclient probes, web classification of live domains and
// blacklist lookups.
func replayMonitorLayers(rc *runCtx, x *infra, s *stack, inputs []triage.Input, recs []triage.Record) {
	sp := rc.tr.start("triage", "replay Tally.Add", "", nil)
	t0 := time.Now()
	const tallyPasses = 20
	for i := 0; i < tallyPasses; i++ {
		t := triage.NewTally()
		for _, r := range recs {
			t.Add(r)
		}
	}
	rc.rep.gauge("triage.tally_us", us(time.Since(t0))/float64(tallyPasses*len(recs)), "us")
	sp.endCount(int64(tallyPasses*len(recs)), true)

	store, err := jobstore.Open(filepath.Join(rc.workDir, "put-replay"))
	if err != nil {
		rc.rep.check(false, "monitor: replay store: %v", err)
		return
	}
	var puts []float64
	for _, j := range s.jobs {
		m, _ := s.store.Get(j.id)
		sp = rc.tr.start("jobstore", "replay Store.Put", j.id, nil)
		t0 = time.Now()
		if err := store.Put(m); err != nil {
			rc.rep.check(false, "monitor: replay put: %v", err)
		}
		puts = append(puts, ms(time.Since(t0)))
		sp.endCount(1, true)
	}
	rc.rep.gauge("jobstore.put_ms", median(puts), "ms")

	client := newProbeClient(x)
	defer client.Close()
	var probes []float64
	errs := 0
	sp = rc.tr.start("dnsclient", "replay Client.ProbeContext", "", nil)
	for _, in := range inputs {
		t0 = time.Now()
		if client.ProbeContext(context.Background(), in.FQDN).Err != nil {
			errs++
		}
		probes = append(probes, ms(time.Since(t0)))
	}
	sp.endCount(int64(len(inputs)), true)
	rc.rep.gauge("dnsclient.probe_ms_p50", quantile(probes, 0.5), "ms")
	rc.rep.gauge("dnsclient.probe_ms_p99", quantile(probes, 0.99), "ms")
	rc.rep.gauge("dnsclient.error_ratio", float64(errs)/float64(len(inputs)), "ratio")

	cls := pipelineConfig(x, nil).Classifier
	var classify []float64
	sp = rc.tr.start("webclassify", "replay Classifier.Classify", "", nil)
	for _, r := range recs {
		if !r.HasA {
			continue // the pipeline's §6.2 gate: only live domains are fetched
		}
		t0 = time.Now()
		cls.Classify(r.FQDN)
		classify = append(classify, ms(time.Since(t0)))
	}
	sp.endCount(int64(len(classify)), true)
	sort.Float64s(classify)
	rc.rep.gauge("webclassify.classify_ms_p50", quantile(classify, 0.5), "ms")
	rc.rep.gauge("webclassify.classify_ms_p99", quantile(classify, 0.99), "ms")

	const lookupPasses = 50
	sp = rc.tr.start("blacklist", "replay Set.AnyContains", "", nil)
	t0 = time.Now()
	for i := 0; i < lookupPasses; i++ {
		for _, in := range inputs {
			x.feeds.AnyContains(in.FQDN)
		}
	}
	rc.rep.gauge("blacklist.lookup_ns", float64(time.Since(t0))/float64(lookupPasses*len(inputs)), "ns")
	sp.endCount(int64(lookupPasses*len(inputs)), true)
}
