package core

import (
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/punycode"
)

// compareMatch orders matches by FQDN, then matched label, then
// reference — the deterministic output order every batch API guarantees
// regardless of worker count. (A multi-label FQDN can match through
// more than one of its labels, so the label breaks FQDN ties.)
func compareMatch(a, b Match) int {
	if c := strings.Compare(a.FQDN, b.FQDN); c != 0 {
		return c
	}
	if c := strings.Compare(a.IDN, b.IDN); c != 0 {
		return c
	}
	return strings.Compare(a.Reference, b.Reference)
}

// DetectParallel scans a set of domains (full FQDNs on any TLD, or bare
// IDN labels) under backend be across workers (≤ 0 means GOMAXPROCS)
// and returns every (domain, reference) match, sorted by FQDN then
// reference. The result is deterministic: workers accumulate private
// match slices which are concatenated and sorted exactly once.
func (d *Detector) DetectParallel(domains []string, workers int, be Backend) []Match {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(domains) {
		workers = len(domains)
	}
	var out []Match
	if workers <= 1 {
		for _, idn := range domains {
			out = append(out, d.DetectDomainBackend(idn, be)...)
		}
	} else {
		parts := make([][]Match, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var local []Match
				for i := w; i < len(domains); i += workers {
					local = append(local, d.DetectDomainBackend(domains[i], be)...)
				}
				parts[w] = local
			}(w)
		}
		wg.Wait()
		n := 0
		for _, p := range parts {
			n += len(p)
		}
		out = make([]Match, 0, n)
		for _, p := range parts {
			out = append(out, p...)
		}
	}
	slices.SortFunc(out, compareMatch)
	return out
}

// streamBatch is the most buffers DetectStreamBytesBackend's dispatcher
// hands a worker at once.
const streamBatch = 64

// DetectStreamBytesBackend scans normalized zone lines (full FQDNs, any
// TLD) arriving on in as pooled *[]byte buffers under backend be,
// across workers (≤ 0 means GOMAXPROCS), and sends every match on the
// returned channel, which is closed once in is drained. Each buffer is
// handed back to recycle (when non-nil) as soon as its domain has been
// scanned. Together with DetectDomainBytesBackend's lazy string
// materialization this makes the whole line→match pipeline
// allocation-free in steady state on the miss path — the common case at
// zone scale, where ~99% of domains match nothing. Match order across
// domains is not deterministic; consumers that need the batch ordering
// sort with SortMatches.
//
// One dispatcher goroutine is in's only receiver: it gathers buffers
// into batches of up to streamBatch and hands each batch to a worker,
// so workers contend on one channel operation per batch instead of one
// per line. A partial batch is flushed as soon as in has nothing
// buffered, so no line waits on lines that have not arrived yet. Batch
// slices cycle through a fixed free list and are never reallocated.
func (d *Detector) DetectStreamBytesBackend(in <-chan *[]byte, workers int, recycle *sync.Pool, be Backend) <-chan Match {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make(chan Match, 4*workers)
	batches := make(chan []*[]byte, workers)
	// One batch filling, one queued per worker and one in hand per
	// worker keep every worker busy; a worker returning a batch never
	// blocks, since free has room for all of them.
	free := make(chan []*[]byte, 2*workers+1)
	for i := 0; i < cap(free); i++ {
		free <- make([]*[]byte, 0, streamBatch)
	}
	go func() {
		defer close(batches)
		batch := <-free
		// The last buffer always flushes (in is empty then), so nothing
		// is left over once in closes.
		for bp := range in {
			batch = append(batch, bp)
			if len(batch) == streamBatch || len(in) == 0 {
				batches <- batch
				batch = <-free
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for batch := range batches {
				for i, bp := range batch {
					for _, m := range d.DetectDomainBytesBackend(*bp, be) {
						out <- m
					}
					if recycle != nil {
						recycle.Put(bp)
					}
					batch[i] = nil // the free list must not pin recycled buffers
				}
				free <- batch[:0]
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// SortMatches sorts matches into the deterministic batch order (FQDN,
// then label, then reference), e.g. after draining
// DetectStreamBytesBackend.
func SortMatches(matches []Match) {
	slices.SortFunc(matches, compareMatch)
}

// DetectedIDNs collapses matches to the distinct set of homograph IDNs —
// the counting unit of the paper's Table 8.
func DetectedIDNs(matches []Match) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range matches {
		if !seen[m.IDN] {
			seen[m.IDN] = true
			out = append(out, m.IDN)
		}
	}
	sort.Strings(out)
	return out
}

// TargetHistogram counts matches per reference — Table 9's "top targeted
// domains".
func TargetHistogram(matches []Match) map[string]int {
	h := map[string]int{}
	byIDN := map[string]map[string]bool{}
	for _, m := range matches {
		if byIDN[m.Reference] == nil {
			byIDN[m.Reference] = map[string]bool{}
		}
		byIDN[m.Reference][m.IDN] = true
	}
	for ref, idns := range byIDN {
		h[ref] = len(idns)
	}
	return h
}

// Revert maps a (possibly undetected) IDN label back to its most plausible
// original domain label — Section 6.4's countermeasure for homographs of
// unpopular domains. If the label is a homograph of a known reference,
// the reference wins (this resolves direction-ambiguous pairs such as
// CJK 工 vs Katakana エ); otherwise every character is canonicalized
// independently.
func (d *Detector) Revert(idnLabel string) (string, error) {
	if matches := d.DetectDomainBackend(idnLabel, BackendPostings); len(matches) > 0 {
		return matches[0].Reference, nil
	}
	uni, err := punycode.ToUnicodeLabel(idnLabel)
	if err != nil {
		return "", err
	}
	return d.db.Revert(uni), nil
}
