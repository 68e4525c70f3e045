// Command perfbench is the repository benchmark: it generates a
// workload's inputs from a seed, drives the ShamFinder program through
// its public Go API for a fixed time, checks every output, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as
// the last line of standard output:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload zone-sweep --seed 1 --seconds 15 --trace 0
//
// Human-readable lines above the JSON carry the seed, the machine
// fingerprint, the workload rationale and every metric with its unit.
// The full result, with the recorded spans of a traced run, is also
// written to .bench_build/perfbench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload name: zone-sweep, serve or monitor")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "measurement time of one run")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	w, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	// Keep the collector's pacing fixed across machines' defaults: a
	// program-side memory regression must show as RSS, not be hidden
	// by an environment GOGC.
	debug.SetGCPercent(100)

	rc := &runCtx{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		workDir:  filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid())),
		rep:      newReport(),
	}
	if err := os.MkdirAll(rc.workDir, 0o755); err != nil {
		fatal(err)
	}
	runErr := w.run(rc)
	// The work directory holds only this run's state (zone files, job
	// stores, snapshots); nothing in it outlives the run.
	if err := os.RemoveAll(rc.workDir); err != nil && runErr == nil {
		runErr = fmt.Errorf("removing work dir: %w", err)
	}
	if runErr != nil {
		fatal(runErr)
	}
	rc.rep.gauge("rss_peak_mb", peakRSSMB(), "MB")
	if rc.rep.attempted == 0 {
		fatal(fmt.Errorf("workload %s attempted nothing", w.name))
	}
	rc.rep.gauge("failed_ratio", float64(rc.rep.failed)/float64(rc.rep.attempted), "ratio")
	emit(w, rc)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// emit prints the human-readable report and the result line, and keeps
// the full record (fingerprint, every metric, spans) next to the build.
func emit(w workload, rc *runCtx) {
	rep := rc.rep
	fp := fingerprint()
	mode, trace := "untraced", 0
	if rc.traced {
		mode, trace = "traced", 1
	}
	fmt.Printf("workload %s (seed %d, %s run, %.1fs)\n", w.name, rc.seed, mode, rc.duration.Seconds())
	fmt.Printf("why: %s\n", w.why)
	fmt.Printf("rationale: %s\n", w.rationale)
	fmt.Printf("machine: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n", fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.Go, fp.Commit)
	for _, n := range rep.notes {
		fmt.Printf("note: %s\n", n)
	}
	for _, m := range rep.list {
		fmt.Printf("  %-34s %16.6g %s\n", m.name, m.value, m.unit)
	}
	for _, f := range rep.failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}

	out := result{
		Correct:   len(rep.failures) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	names := endToEnd
	if rc.traced {
		names = perLayer
	}
	for _, spec := range names {
		v, ok := rep.byName[w.alias(spec.name)]
		if !ok {
			// A layer this workload does not exercise reads zero.
			v = metricValue{Value: 0, Unit: spec.unit}
		}
		v.Unit = spec.unit
		out.Metrics[spec.name] = v
	}
	full := struct {
		Workload    string        `json:"workload"`
		Why         string        `json:"why"`
		Rationale   string        `json:"rationale"`
		Seed        uint64        `json:"seed"`
		Traced      bool          `json:"traced"`
		Seconds     float64       `json:"seconds"`
		Machine     machine       `json:"machine"`
		Result      result        `json:"result"`
		All         []namedMetric `json:"all_metrics"`
		Failures    []string      `json:"failures,omitempty"`
		Spans       []span        `json:"spans,omitempty"`
		GeneratedAt string        `json:"generated_at"`
	}{w.name, w.why, w.rationale, rc.seed, rc.traced, rc.duration.Seconds(), fp, out, rep.list, rep.failures, rc.tr.all(), time.Now().UTC().Format(time.RFC3339)}
	if data, err := json.MarshalIndent(full, "", " "); err == nil {
		dir := filepath.Join(".bench_build", "perfbench", "results")
		if os.MkdirAll(dir, 0o755) == nil {
			name := fmt.Sprintf("%s-seed%d-trace%d.json", w.name, rc.seed, trace)
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing result record:", err)
			}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}
