package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runCtx is one benchmark run: its seed, its measurement time, its
// private work directory and the report it fills.
type runCtx struct {
	seed     uint64
	duration time.Duration
	traced   bool
	workDir  string
	rep      *report
	tr       *tracer // nil outside the traced phase of a traced run
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type namedMetric struct {
	name  string
	value float64
	unit  string
}

func (m namedMetric) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"name":%q,"value":%s,"unit":%q}`, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)), nil
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects every metric a run measures, in print order, plus
// the attempted/failed operation counts and any output-check failures.
type report struct {
	list      []namedMetric
	byName    map[string]metricValue
	attempted int64
	failed    int64
	failures  []string
	notes     []string
}

func newReport() *report { return &report{byName: map[string]metricValue{}} }

func (r *report) gauge(name string, v float64, unit string) {
	r.list = append(r.list, namedMetric{name, v, unit})
	r.byName[name] = metricValue{v, unit}
}

func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// replayed labels per-layer metrics measured by re-running a layer's
// public function on the run's own inputs, outside the workload's wall
// time, because the program calls that layer internally.
func (r *report) replayed(names ...string) {
	r.note("replayed on this run's inputs: %s", strings.Join(names, ", "))
}

// metricSpec names one metric of BENCHMARK.json.
type metricSpec struct{ name, unit string }

// endToEnd are the gated metrics, reported by every workload; each
// workload maps the generic throughput name onto its own user-facing
// metric (see workload.aliases). Latencies are printed but not gated:
// zone-sweep's and monitor's are the inverse of their throughput, and
// serve's p50 at a fixed rate moves by a third between runs on a
// shared 2-vCPU host.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"throughput_per_s", "1/s"},
}

// perLayer are the traced run's metrics, the same list for every
// workload; a layer a workload does not exercise reads zero.
var perLayer = []metricSpec{
	{"domain.normalize_ns", "ns"},
	{"domain.accept_ratio", "ratio"},
	{"punycode.decode_ns", "ns"},
	{"core.skeleton_ns", "ns"},
	{"core.postings_ns", "ns"},
	{"core.both_ns", "ns"},
	{"core.hit_ratio", "ratio"},
	{"core.matches_postings_only", "count"},
	{"core.matches_skeleton_only", "count"},
	{"core.matches_both", "count"},
	{"core.feed_block_ns", "ns"},
	{"core.stream_speedup", "x"},
	{"core.sort_ms", "ms"},
	{"simchar.build_ms", "ms"},
	{"core.compile_ms", "ms"},
	{"snapshot.load_ms", "ms"},
	{"service.handler_us_p50", "us"},
	{"service.handler_us_p99", "us"},
	{"service.net_us_p50", "us"},
	{"core.engine_detect_us", "us"},
	{"service.encode_us", "us"},
	{"service.allocs_per_req", "count"},
	{"service.bytes_per_req", "B"},
	{"service.shed", "count"},
	{"service.server_p99_us", "us"},
	{"core.swap_us", "us"},
	{"zonewatch.scan_lines_per_s", "1/s"},
	{"zonewatch.seen_load_ms", "ms"},
	{"zonewatch.added", "count"},
	{"zonewatch.detected", "count"},
	{"zonewatch.batcher_tick_ms", "ms"},
	{"service.submit_ms", "ms"},
	{"service.job_s_p50", "s"},
	{"jobstore.put_ms", "ms"},
	{"triage.domains_per_s", "1/s"},
	{"triage.tally_us", "us"},
	{"triage.dns_errors", "count"},
	{"triage.fetched", "count"},
	{"dnsclient.probe_ms_p50", "ms"},
	{"dnsclient.probe_ms_p99", "ms"},
	{"dnsclient.error_ratio", "ratio"},
	{"webclassify.classify_ms_p50", "ms"},
	{"webclassify.classify_ms_p99", "ms"},
	{"webclassify.dials", "count"},
	{"blacklist.lookup_ns", "ns"},
	{"trace.layer_self_s", "s"},
	{"trace.wall_s", "s"},
	{"trace.self_over_wall", "ratio"},
	{"trace.overhead_throughput_pct", "%"},
	{"trace.overhead_latency_pct", "%"},
}

// --- small statistics helpers ---

// quantile is the linear-interpolation quantile of xs (sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durations(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

// resetPeakRSS starts the peak-RSS window at the program phase: the
// input generators' garbage is collected and returned to the OS, then
// the kernel's high-water mark is reset (clear_refs 5), so
// rss_peak_mb measures the program under test on top of the inputs it
// holds, not the generation that made them.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cannot reset peak RSS, it includes input generation:", err)
	}
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// No procfs: fall back to what the Go runtime obtained from the OS.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// machine is the fingerprint every result carries.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint() machine {
	m := machine{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: sourceID()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// sourceID names the code under test: the VCS revision stamped into the
// binary when it was built inside a git checkout, else the content hash
// of the program's sources (see treeHash).
func sourceID() string {
	rev, dirty := "", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	tree := treeHash()
	switch {
	case rev != "" && dirty:
		return rev + "+dirty tree:" + tree
	case rev != "":
		return rev
	default:
		return "tree:" + tree
	}
}
