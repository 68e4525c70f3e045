package core

import (
	"testing"

	"repro/internal/lint"
)

// TestNoallocGate pins the detector's //shamlint:noalloc contract
// dynamically: with a warm scratch pool, byte-level detection of a bare
// label or a whole domain must allocate nothing on the miss path, under
// every backend — the shape of nearly every line a zone feeder pushes
// through.
func TestNoallocGate(t *testing.T) {
	det := NewDetector(testDB(t), []string{"google", "amazon"})
	label := []byte("xn--bcher-kva")
	fqdn := []byte("www.xn--bcher-kva.co.uk")
	// Pure-ASCII misses: only the skeleton backend even considers them,
	// and their table-driven skeletons must stay allocation-free too —
	// bare, in an FQDN, and uppercase (the table folds case).
	asciiLabel := []byte("plainasciimiss")
	asciiFqdn := []byte("plain-ascii-miss.example.com")
	upperFqdn := []byte("WWW.PLAIN-ASCII-MISS.EXAMPLE.COM")
	// Each backend's miss path, on bare labels, multi-label FQDNs and
	// pure-ASCII names, through the one byte-level entry point.
	misses := []struct {
		in []byte
		be Backend
	}{
		{label, BackendPostings},
		{label, BackendBoth},
		{fqdn, BackendPostings},
		{fqdn, BackendSkeleton},
		{asciiLabel, BackendSkeleton},
		{asciiFqdn, BackendBoth},
		{upperFqdn, BackendBoth},
	}
	// Warm the scratch pool outside the measured region.
	for _, m := range misses {
		det.DetectDomainBytesBackend(m.in, m.be)
	}

	lint.CheckNoallocCoverage(t, ".", map[string]func(){
		"(*Detector).DetectDomainBytesBackend": func() {
			for _, m := range misses {
				if ms := det.DetectDomainBytesBackend(m.in, m.be); len(ms) != 0 {
					panic("unexpected match")
				}
			}
		},
	})
}
