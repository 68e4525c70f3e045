package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/homoglyph"
	"repro/internal/langid"
	"repro/internal/punycode"
	"repro/internal/report"
)

// Table6 counts the domain lists and their IDNs.
func Table6(e *Env) (*report.Experiment, error) {
	exp := &report.Experiment{
		ID:          "Table 6",
		Description: "Domain-name lists and the IDNs they contain",
		Bench:       "BenchmarkTable06_DomainLists",
	}
	reg, err := e.Registry()
	if err != nil {
		return nil, err
	}
	rows := reg.TableSix()
	tbl := report.NewTable(
		fmt.Sprintf("Domain lists (benign corpus scaled ×%g)", e.Opt.Scale),
		"Data", "# domains", "# IDNs", "IDN fraction")
	for _, r := range rows {
		tbl.AddRow(r.Name, r.Domains, r.IDNs,
			fmt.Sprintf("%.2f%%", 100*float64(r.IDNs)/float64(r.Domains)))
	}
	exp.Tables = append(exp.Tables, tbl)
	union := rows[2]
	exp.Addf("union domains", "141,212,035", "%d (×%g scale)", union.Domains, e.Opt.Scale)
	exp.Addf("union IDNs", "955,512 (0.67%)", "%d (%.2f%%)",
		union.IDNs, 100*float64(union.IDNs)/float64(union.Domains))
	exp.Commentary = "The benign corpus scales with -scale while homograph counts stay absolute (homograph-dense sampling, DESIGN.md §1), so the IDN fraction converges to the paper's 0.67% as scale grows."
	return exp, nil
}

// Table7 identifies the language of every registered IDN label.
func Table7(e *Env) (*report.Experiment, error) {
	exp := &report.Experiment{
		ID:          "Table 7",
		Description: "Top languages used for IDNs",
		Bench:       "BenchmarkTable07_Languages",
	}
	reg, err := e.Registry()
	if err != nil {
		return nil, err
	}
	rows := langid.TallyAll(reg.IDNLabels())
	tbl := report.NewTable("IDN languages", "Rank", "Language", "Number", "Fraction")
	for i, r := range rows {
		if i >= 8 {
			break
		}
		tbl.AddRow(i+1, r.Language.Name, r.Count, fmt.Sprintf("%.1f%%", 100*r.Fraction))
	}
	exp.Tables = append(exp.Tables, tbl)
	paperTop := []string{"Chinese 46.5%", "Korean 10.6%", "Japanese 9.3%", "Germany 5.6%", "Turkish 3.6%"}
	for i := 0; i < 5 && i < len(rows); i++ {
		exp.Addf(fmt.Sprintf("rank %d", i+1), paperTop[i], "%s %.1f%%",
			rows[i].Language.Name, 100*rows[i].Fraction)
	}
	exp.Commentary = "East-Asian languages dominate, with Chinese roughly half — the ranking the paper reports. Note the detected fractions drift at small -scale because the homograph population (mostly Latin-lookalike labels) is a larger share of all IDNs."
	return exp, nil
}

// DetectionResult carries the per-database detection outputs shared by
// Tables 8, 9, 14 and Section 6.4.
type DetectionResult struct {
	UC    []core.Match
	Sim   []core.Match
	Union []core.Match

	UCDomains    []string // detected IDNs (with .com), per database
	SimDomains   []string
	UnionDomains []string

	// Detector is the union (UC ∪ SimChar) detector; its Revert lets the
	// reference win over per-character canonicalization (§6.4).
	Detector *core.Detector

	Elapsed       time.Duration // union batch run wall-clock (indexed, parallel)
	StreamElapsed time.Duration // union run through DetectStreamBytesBackend
	LinearElapsed time.Duration // union run through the seed linear engine
	IDNs          int           // scanned IDN count
	Refs          int
}

var detectionCache = struct {
	env *Env
	res *DetectionResult
}{}

// Detect runs Algorithm 1 three times — UC only, SimChar only, and the
// union — over every registered IDN against the top-10k references.
// The result is cached per Env.
func Detect(e *Env) (*DetectionResult, error) {
	if detectionCache.env == e && detectionCache.res != nil {
		return detectionCache.res, nil
	}
	reg, err := e.Registry()
	if err != nil {
		return nil, err
	}
	refs := e.Refs().SLDs(e.Opt.RefCount)
	idns := reg.IDNs()
	labels := make([]string, len(idns))
	for i, d := range idns {
		labels[i] = strings.TrimSuffix(d, ".com")
	}

	run := func(src homoglyph.Source) (*core.Detector, []core.Match, time.Duration) {
		det := core.NewDetector(e.DB().WithSources(src), refs)
		start := time.Now()
		matches := det.DetectParallel(labels, 0, core.BackendPostings)
		return det, matches, time.Since(start)
	}
	res := &DetectionResult{IDNs: len(labels), Refs: len(refs)}
	_, res.UC, _ = run(homoglyph.SourceUC)
	_, res.Sim, _ = run(homoglyph.SourceSimChar)
	res.Detector, res.Union, res.Elapsed = run(homoglyph.SourceUC | homoglyph.SourceSimChar)
	det := res.Detector
	res.UCDomains = withCom(core.DetectedIDNs(res.UC))
	res.SimDomains = withCom(core.DetectedIDNs(res.Sim))
	res.UnionDomains = withCom(core.DetectedIDNs(res.Union))

	// Time the two alternative union-engine paths for Section 4.2 on the
	// union detector just built: the zone-scale streaming API and the
	// seed linear scan it replaced.
	start := time.Now()
	pool := &sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}
	// A few hundred buffered lines keep the feeder ahead of the workers.
	in := make(chan *[]byte, 256)
	go func() {
		for _, l := range labels {
			bp := pool.Get().(*[]byte)
			*bp = append((*bp)[:0], l...)
			in <- bp
		}
		close(in)
	}()
	streamed := 0
	for range det.DetectStreamBytesBackend(in, 0, pool, core.BackendPostings) {
		streamed++
	}
	res.StreamElapsed = time.Since(start)
	if streamed != len(res.Union) {
		return nil, fmt.Errorf("experiments: stream produced %d matches, batch %d", streamed, len(res.Union))
	}
	start = time.Now()
	for _, l := range labels {
		det.DetectLabelLinear(l)
	}
	res.LinearElapsed = time.Since(start)

	detectionCache.env, detectionCache.res = e, res
	return res, nil
}

func withCom(labels []string) []string {
	out := make([]string, len(labels))
	for i, l := range labels {
		out[i] = l + ".com"
	}
	return out
}

// Table8 reports detected homograph counts per database.
func Table8(e *Env) (*report.Experiment, error) {
	exp := &report.Experiment{
		ID:          "Table 8",
		Description: "Detected IDN homographs for ASCII domains, by homoglyph database",
		Bench:       "BenchmarkTable08_Detection",
	}
	res, err := Detect(e)
	if err != nil {
		return nil, err
	}
	tbl := report.NewTable("Detections", "Homoglyph DB", "Number")
	tbl.AddRow("UC", len(res.UCDomains))
	tbl.AddRow("SimChar", len(res.SimDomains))
	tbl.AddRow("UC ∪ SimChar", len(res.UnionDomains))
	exp.Tables = append(exp.Tables, tbl)

	exp.Addf("UC detections", "436", "%d", len(res.UCDomains))
	exp.Addf("SimChar detections", "3,110", "%d", len(res.SimDomains))
	exp.Addf("union detections", "3,280", "%d", len(res.UnionDomains))
	ratio := float64(len(res.UnionDomains)) / float64(len(res.UCDomains))
	exp.Addf("union / UC ratio", "≈7.5×", "%.1f×", ratio)
	exp.Commentary = "Adding SimChar multiplies detections roughly eightfold over the UC-only baseline (the Quinkert et al. approach), the paper's headline result."
	return exp, nil
}

// Table9 lists the reference domains with the most homographs.
func Table9(e *Env) (*report.Experiment, error) {
	exp := &report.Experiment{
		ID:          "Table 9",
		Description: "Top-5 ASCII domain names with the most IDN homographs",
		Bench:       "BenchmarkTable09_TopTargets",
	}
	res, err := Detect(e)
	if err != nil {
		return nil, err
	}
	hist := core.TargetHistogram(res.Union)
	type tc struct {
		target string
		n      int
	}
	rows := make([]tc, 0, len(hist))
	for t, n := range hist {
		rows = append(rows, tc{t, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].target < rows[j].target
	})
	tbl := report.NewTable("Top targets", "Rank", "Domain name", "# homographs", "Alexa rank")
	for i := 0; i < 5 && i < len(rows); i++ {
		tbl.AddRow(i+1, rows[i].target+".com", rows[i].n, e.Refs().Rank(rows[i].target+".com"))
	}
	exp.Tables = append(exp.Tables, tbl)

	paper := []string{"myetherwallet.com (170)", "google.com (114)", "amazon.com (75)", "facebook.com (72)", "allstate.com (68)"}
	for i := 0; i < 5 && i < len(rows); i++ {
		exp.Addf(fmt.Sprintf("rank %d", i+1), paper[i], "%s.com (%d)", rows[i].target, rows[i].n)
	}
	exp.Commentary = "The top target (myetherwallet, Alexa rank ~7,400) and fifth (allstate, ~5,148) are only moderately popular — the paper's observation that homograph attacks also chase mid-tier brands."
	return exp, nil
}

// Throughput measures the Section 4.2 detection rate: seconds per
// reference domain scanning the full IDN set.
func Throughput(e *Env) (*report.Experiment, error) {
	exp := &report.Experiment{
		ID:          "Section 4.2",
		Description: "Detection throughput (Alexa 10k refs × all IDNs)",
		Bench:       "BenchmarkDetectionThroughput",
	}
	res, err := Detect(e)
	if err != nil {
		return nil, err
	}
	perRef := res.Elapsed.Seconds() / float64(res.Refs)
	exp.Addf("total sweep", "743.6 s (141M domains, 955k IDNs)", "%.3f s (%d IDNs)",
		res.Elapsed.Seconds(), res.IDNs)
	exp.Addf("per reference domain", "0.07 s", "%.6f s", perRef)
	exp.Addf("streaming sweep (DetectStreamBytesBackend)", "n/a", "%.3f s (%.0f labels/s)",
		res.StreamElapsed.Seconds(), float64(res.IDNs)/res.StreamElapsed.Seconds())
	exp.Addf("seed linear engine", "n/a", "%.3f s (%.1f× slower than indexed)",
		res.LinearElapsed.Seconds(), res.LinearElapsed.Seconds()/res.Elapsed.Seconds())
	exp.Commentary = "Fast enough to screen a newly observed IDN in real time, the paper's requirement for a blocking countermeasure. The indexed engine intersects per-position candidate lists instead of scanning every same-length reference, so the sweep scales with matches rather than with the reference-list size."
	return exp, nil
}

// Revert64 reproduces Section 6.4: map malicious homographs back to
// their original domains and count those whose original is outside the
// Alexa top 1k.
func Revert64(e *Env) (*report.Experiment, error) {
	exp := &report.Experiment{
		ID:          "Section 6.4",
		Description: "Reverting malicious IDNs to their original domains",
		Bench:       "BenchmarkRevert",
	}
	reg, err := e.Registry()
	if err != nil {
		return nil, err
	}
	bl, err := e.Blacklists()
	if err != nil {
		return nil, err
	}
	res, err := Detect(e)
	if err != nil {
		return nil, err
	}
	db := e.DB()
	reverted, nonTop1k := 0, 0
	for _, domain := range res.UnionDomains {
		if !bl.AnyContains(domain) {
			continue
		}
		label := strings.TrimSuffix(domain, ".com")
		uni, err := punycode.ToUnicodeLabel(label)
		if err != nil {
			continue
		}
		original := db.Revert(uni) + ".com"
		reverted++
		rank := e.Refs().Rank(original)
		if rank == 0 || rank > 1000 {
			nonTop1k++
		}
	}
	_ = reg
	exp.Addf("malicious IDNs reverted", "blacklisted set", "%d", reverted)
	exp.Addf("originals outside Alexa top-1k", "91", "%d", nonTop1k)
	exp.Commentary = "Reversion uses the homoglyph database's canonical mapping; a sizeable share of malicious homographs target domains a top-1k reference list would miss, motivating the paper's revert-then-trace workflow."
	return exp, nil
}
