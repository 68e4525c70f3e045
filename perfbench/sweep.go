package main

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	shamfinder "repro"
	"repro/internal/domain"
	"repro/internal/punycode"
	"repro/internal/registry"
	"repro/internal/stats"
)

// sweepScale sizes the zone-sweep registry: ~565k zone lines, of which
// the generator makes ~0.7% IDNs (3280 planted homographs among them).
const sweepScale = 0.004

// sweepSetups is how many times a run builds the program from scratch
// to time set-up; the median is reported.
const sweepSetups = 9

// buildSweepZone writes the registry's names as one zone blob, one name
// per line, respread over several suffixes and shuffled by the seed.
func buildSweepZone(in *inputs, seed uint64) ([]byte, int) {
	rng := stats.NewRNG(seed ^ 0x5eed5eed)
	var names []string
	in.reg.ForEachDomain(func(d string, _ bool, _ registry.Membership) {
		names = append(names, respread(d, rng))
	})
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	var buf bytes.Buffer
	for _, n := range names {
		buf.WriteString(n)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), len(names)
}

// sweepResult is one whole-zone pass.
type sweepResult struct {
	matches  []shamfinder.Match
	lines    int
	readErr  error
	elapsed  time.Duration
	blocked  time.Duration // feeder time blocked on the worker channel
	sortTime time.Duration
}

// sweep runs one pass the way `shamfinder detect -backend both` does:
// a feeder normalizes each line into a pooled buffer and hands it to
// the detector's worker stream; matches are collected and sorted.
func sweep(det *shamfinder.Detector, zone []byte, workers int, tr *tracer, id string) sweepResult {
	var res sweepResult
	root := tr.start("bench", "sweep", id, nil)
	t0 := time.Now()
	labels := make(chan *[]byte, 1024) // the CLI feeder's channel depth
	pool := &sync.Pool{New: func() any { b := make([]byte, 0, 80); return &b }}
	go func() {
		defer close(labels)
		feed := tr.start("domain", "NormalizeZoneLineAll+feed", id, root)
		sc := bufio.NewScanner(bytes.NewReader(zone))
		sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
		var blocked time.Duration
		lines := 0
		for sc.Scan() {
			lines++
			label, ok := shamfinder.NormalizeZoneLineAll(sc.Bytes())
			if !ok {
				continue
			}
			bp := pool.Get().(*[]byte)
			*bp = append((*bp)[:0], label...)
			select {
			case labels <- bp:
			default:
				if tr == nil {
					labels <- bp
				} else {
					b0 := time.Now()
					labels <- bp
					blocked += time.Since(b0)
				}
			}
		}
		res.lines, res.readErr, res.blocked = lines, sc.Err(), blocked
		if feed != nil {
			feed.s.Wait = int64(blocked)
		}
		feed.endCount(int64(lines), false)
	}()
	stream := tr.start("core", "DetectStreamBytesBackend", id, root)
	for m := range det.DetectStreamBytesBackend(labels, workers, pool, shamfinder.BackendBoth) {
		res.matches = append(res.matches, m)
	}
	stream.end()
	// The stream has drained, so the feeder has finished writing res.
	s0 := time.Now()
	srt := tr.start("core", "SortMatches", id, root)
	shamfinder.SortMatches(res.matches)
	srt.end()
	res.sortTime = time.Since(s0)
	res.elapsed = time.Since(t0)
	root.end()
	return res
}

// sweepBuilds times set-up, what `detect -fastfont -refs` pays before
// the first line. Each build begins from a collected heap with the
// previous build already garbage. The builds are spread evenly over
// the first sweep loop, so the set-up median sees the same machine as
// the passes; each pass uses the latest build.
type sweepBuilds struct {
	refs           []string
	fw             *shamfinder.Framework
	det            *shamfinder.Detector
	setup, compile []float64
}

func (b *sweepBuilds) build() error {
	b.fw, b.det = nil, nil
	runtime.GC()
	t0 := time.Now()
	fw, err := shamfinder.New(shamfinder.Config{FontScope: shamfinder.FontFast})
	if err != nil {
		return err
	}
	t1 := time.Now()
	b.fw, b.det = fw, fw.NewDetector(b.refs)
	b.compile = append(b.compile, ms(time.Since(t1)))
	b.setup = append(b.setup, time.Since(t0).Seconds())
	return nil
}

// sweepLoop repeats whole-zone sweeps (a closed loop) for d, at least
// three times, checking every pass against the first. Until b holds
// sweepSetups builds, it builds again every d/sweepSetups.
func sweepLoop(rc *runCtx, b *sweepBuilds, zone []byte, workers int, d time.Duration, tr *tracer, phase string) ([]sweepResult, error) {
	var out []sweepResult
	start := time.Now()
	for len(out) < 3 || time.Since(start) < d {
		if n := len(b.setup); n < sweepSetups && time.Since(start) >= time.Duration(n)*d/sweepSetups {
			if err := b.build(); err != nil {
				return nil, err
			}
		}
		r := sweep(b.det, zone, workers, tr, fmt.Sprintf("%s-%d", phase, len(out)))
		rc.rep.attempted += int64(r.lines)
		if r.readErr != nil {
			rc.rep.failed++
			rc.rep.check(false, "zone-sweep: read error: %v", r.readErr)
		}
		if len(out) > 0 {
			rc.rep.check(reflect.DeepEqual(r.matches, out[0].matches),
				"zone-sweep: pass %d differs from the first (%d vs %d matches)", len(out), len(r.matches), len(out[0].matches))
			// Only the first pass's matches are kept, so memory does not
			// grow with the number of passes.
			r.matches = nil
		}
		out = append(out, r)
	}
	return out, nil
}

func sweepRates(rs []sweepResult) (namesPerS, msP50 float64) {
	t := make([]float64, len(rs))
	for i, r := range rs {
		t[i] = ms(r.elapsed)
	}
	msP50 = median(t)
	return float64(rs[0].lines) / (msP50 / 1000), msP50
}

func runZoneSweep(rc *runCtx) error {
	in, err := makeInputs(rc, sweepScale)
	if err != nil {
		return err
	}
	zone, nLines := buildSweepZone(in, rc.seed)
	resetPeakRSS()

	workers := runtime.NumCPU()
	phase := rc.duration
	if rc.traced {
		phase /= 2
	}
	builds := &sweepBuilds{refs: in.refs}
	runs, err := sweepLoop(rc, builds, zone, workers, phase, nil, "untraced")
	if err != nil {
		return err
	}
	for len(builds.setup) < sweepSetups {
		if err := builds.build(); err != nil {
			return err
		}
	}
	rc.rep.gauge("setup_s", median(builds.setup), "s")
	det := builds.det
	rate, p50 := sweepRates(runs)
	rc.rep.gauge("sweep_names_per_s", rate, "1/s")
	rc.rep.gauge("sweep_ms_p50", p50, "ms")
	rc.rep.gauge("sweeps", float64(len(runs)), "count")
	rc.rep.gauge("zone_lines", float64(nLines), "count")

	// Output checks: a 1-worker run must find the same sorted match set,
	// and every planted homograph must be found by the postings index.
	single := sweep(det, zone, 1, nil, "single")
	rc.rep.attempted += int64(single.lines)
	rc.rep.check(single.readErr == nil, "zone-sweep: 1-worker read error: %v", single.readErr)
	rc.rep.check(reflect.DeepEqual(single.matches, runs[0].matches),
		"zone-sweep: nproc-worker matches differ from the 1-worker run (%d vs %d)", len(runs[0].matches), len(single.matches))
	found := map[[2]string]bool{}
	for _, m := range runs[0].matches {
		if m.Backend&shamfinder.BackendPostings != 0 {
			found[[2]string{m.IDN, m.Reference}] = true
		}
	}
	missing := 0
	for _, h := range in.reg.Homographs {
		if !found[[2]string{strings.TrimSuffix(h.ASCII, ".com"), h.Target}] {
			missing++
		}
	}
	rc.rep.check(missing == 0, "zone-sweep: %d of %d planted homographs not found by postings", missing, len(in.reg.Homographs))
	rc.rep.gauge("matches", float64(len(runs[0].matches)), "count")
	rc.rep.gauge("planted_homographs", float64(len(in.reg.Homographs)), "count")

	if !rc.traced {
		return nil
	}
	rc.tr = newTracer()
	w0 := time.Now()
	traced, err := sweepLoop(rc, builds, zone, workers, phase, rc.tr, "traced")
	if err != nil {
		return err
	}
	wall := time.Since(w0)
	tRate, tP50 := sweepRates(traced)
	reportOverhead(rc, rate, tRate, p50, tP50)
	reportSelfTimes(rc, wall)

	var blocked, sorts []float64
	for _, r := range traced {
		blocked = append(blocked, float64(r.blocked)/float64(r.lines))
		sorts = append(sorts, ms(r.sortTime))
	}
	rc.rep.gauge("core.feed_block_ns", median(blocked), "ns")
	rc.rep.gauge("core.sort_ms", median(sorts), "ms")
	rc.rep.gauge("core.stream_speedup", tRate/(float64(single.lines)/single.elapsed.Seconds()), "x")
	var pOnly, sOnly, both float64
	for _, m := range runs[0].matches {
		switch m.Backend {
		case shamfinder.BackendPostings:
			pOnly++
		case shamfinder.BackendSkeleton:
			sOnly++
		default:
			both++
		}
	}
	rc.rep.gauge("core.matches_postings_only", pOnly, "count")
	rc.rep.gauge("core.matches_skeleton_only", sOnly, "count")
	rc.rep.gauge("core.matches_both", both, "count")
	tm := builds.fw.BuildTimings()
	rc.rep.gauge("simchar.build_ms", ms(tm.RasterizeImages+tm.ComputePairwise+tm.EliminateSparse), "ms")
	rc.rep.gauge("core.compile_ms", median(builds.compile), "ms")
	replayNames(rc, det, splitLines(zone), domain.NormalizeZoneLineAll)
	rc.rep.replayed(nameReplays...)
	return nil
}

func splitLines(zone []byte) [][]byte {
	return bytes.Split(bytes.TrimSuffix(zone, []byte("\n")), []byte("\n"))
}

// nameReplays are the metrics replayNames produces.
var nameReplays = []string{"domain.normalize_ns", "domain.accept_ratio", "punycode.decode_ns",
	"core.postings_ns", "core.skeleton_ns", "core.both_ns", "core.hit_ratio"}

// replayNames times the per-name layers on a workload's names, each as
// one aggregate span: normalization (with the workload's own
// normalizer), punycode decode of every ACE label, and detection per
// backend.
func replayNames(rc *runCtx, det *shamfinder.Detector, lines [][]byte, normalize func([]byte) ([]byte, bool)) {
	scratch := make([]byte, 0, 256)
	var names [][]byte
	for _, l := range lines {
		scratch = append(scratch[:0], l...)
		if n, ok := normalize(scratch); ok {
			names = append(names, append([]byte(nil), n...))
		}
	}
	sp := rc.tr.start("domain", "replay NormalizeZoneLine", "", nil)
	t0 := time.Now()
	for _, l := range lines {
		scratch = append(scratch[:0], l...)
		normalize(scratch)
	}
	el := time.Since(t0)
	sp.endCount(int64(len(lines)), true)
	rc.rep.gauge("domain.normalize_ns", float64(el)/float64(len(lines)), "ns")
	rc.rep.gauge("domain.accept_ratio", float64(len(names))/float64(len(lines)), "ratio")

	var ace [][]byte
	for _, n := range names {
		for _, lab := range bytes.Split(n, []byte(".")) {
			if bytes.HasPrefix(lab, []byte("xn--")) {
				ace = append(ace, lab)
			}
		}
	}
	if len(ace) > 0 {
		buf := make([]rune, 0, 64)
		sp = rc.tr.start("punycode", "replay ToUnicodeLabelAppend", "", nil)
		t0 = time.Now()
		for _, lab := range ace {
			buf, _ = punycode.ToUnicodeLabelAppend(buf[:0], lab)
		}
		el = time.Since(t0)
		sp.endCount(int64(len(ace)), true)
		rc.rep.gauge("punycode.decode_ns", float64(el)/float64(len(ace)), "ns")
	}
	if len(names) == 0 {
		return
	}
	for _, be := range []struct {
		name string
		b    shamfinder.Backend
	}{{"core.postings_ns", shamfinder.BackendPostings}, {"core.skeleton_ns", shamfinder.BackendSkeleton}, {"core.both_ns", shamfinder.BackendBoth}} {
		hits := 0
		sp = rc.tr.start("core", "replay DetectDomainBytesBackend "+be.b.String(), "", nil)
		t0 = time.Now()
		for _, n := range names {
			if len(det.DetectDomainBytesBackend(n, be.b)) > 0 {
				hits++
			}
		}
		el = time.Since(t0)
		sp.endCount(int64(len(names)), true)
		rc.rep.gauge(be.name, float64(el)/float64(len(names)), "ns")
		if be.b == shamfinder.BackendBoth {
			rc.rep.gauge("core.hit_ratio", float64(hits)/float64(len(names)), "ratio")
		}
	}
}
