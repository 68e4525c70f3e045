package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the program's public functions. Spans stay in memory and
// are written with the run's result record at exit.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Req    string `json:"req,omitempty"` // request or batch id shared by related spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count > 1 marks an aggregate: one span covering that many
	// per-line calls.
	Count int64 `json:"count,omitempty"`
	// Wait is time inside the span the caller spent blocked on another
	// layer (a full channel); it is not the layer's self time.
	Wait int64 `json:"wait_ns,omitempty"`
	// Replay marks a layer's public function re-run by the benchmark on
	// the run's inputs, because the program calls it internally.
	Replay bool `json:"replay,omitempty"`
}

// tracer records spans. A nil *tracer records nothing, so untraced code
// paths cost one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end closes it.
type spanRef struct {
	t *tracer
	s span
}

func (t *tracer) start(layer, name, req string, parent *spanRef) *spanRef {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id}) // reserve the id
	t.mu.Unlock()
	s := span{ID: id, Name: name, Layer: layer, Req: req, Start: int64(now.Sub(t.t0))}
	if parent != nil {
		s.Parent = parent.s.ID
	}
	return &spanRef{t: t, s: s}
}

func (r *spanRef) end() { r.endCount(0, false) }

// endCount closes the span as an aggregate of n calls; replay labels a
// benchmark-side re-run of a layer the program calls internally.
func (r *spanRef) endCount(n int64, replay bool) {
	if r == nil {
		return
	}
	r.s.End = int64(time.Since(r.t.t0))
	r.s.Count = n
	r.s.Replay = replay
	r.t.mu.Lock()
	r.t.spans[r.s.ID-1] = r.s
	r.t.mu.Unlock()
}

// record adds an already-measured interval as a closed span.
func (t *tracer) record(layer, name, req string, parent *spanRef, start, end time.Time) {
	if r := t.start(layer, name, req, parent); r != nil {
		r.s.Start = int64(start.Sub(t.t0))
		r.s.End = int64(end.Sub(t.t0))
		r.t.mu.Lock()
		r.t.spans[r.s.ID-1] = r.s
		r.t.mu.Unlock()
	}
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per layer, each span's duration minus the part of it
// its child spans cover (the union of their intervals, clipped to the
// parent). Replayed spans are excluded: they ran outside the workload's
// own wall time.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 && !s.Replay {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.Replay || s.End <= s.Start {
			continue
		}
		covered := int64(0)
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		curS, curE := int64(-1), int64(-1)
		for _, c := range iv {
			a, b := max(c[0], s.Start), min(c[1], s.End)
			if b <= a {
				continue
			}
			if a > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = a, b
			} else if b > curE {
				curE = b
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		out[s.Layer] += time.Duration(s.End - s.Start - covered - s.Wait)
	}
	return out
}

// reportSelfTimes adds the summed layer self time against the traced
// phase's wall time, plus one line per layer.
func reportSelfTimes(rc *runCtx, wall time.Duration) {
	self := selfTimes(rc.tr.all())
	var layers []string
	var total time.Duration
	for l, d := range self {
		if l == "bench" {
			continue // the benchmark's own root spans
		}
		layers = append(layers, l)
		total += d
	}
	sort.Strings(layers)
	for _, l := range layers {
		rc.rep.gauge("self_s."+l, self[l].Seconds(), "s")
	}
	rc.rep.gauge("trace.layer_self_s", total.Seconds(), "s")
	rc.rep.gauge("trace.wall_s", wall.Seconds(), "s")
	if wall > 0 {
		rc.rep.gauge("trace.self_over_wall", total.Seconds()/wall.Seconds(), "ratio")
	}
}

// reportOverhead records the tracing overhead: the traced phase's
// end-to-end result minus the untraced phase's, as a share of the
// untraced one.
func reportOverhead(rc *runCtx, untracedTput, tracedTput, untracedLat, tracedLat float64) {
	if untracedTput > 0 {
		rc.rep.gauge("trace.overhead_throughput_pct", 100*(tracedTput-untracedTput)/untracedTput, "%")
	}
	if untracedLat > 0 {
		rc.rep.gauge("trace.overhead_latency_pct", 100*(tracedLat-untracedLat)/untracedLat, "%")
	}
}

// treeHash is a short content hash of the checkout's files (the build
// and git directories excluded), standing in for the commit id where
// the checkout is not a git repository.
func treeHash() string {
	h := sha256.New()
	var paths []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (p == ".git" || p == ".bench_build" || strings.HasPrefix(d.Name(), ".bench")) {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
