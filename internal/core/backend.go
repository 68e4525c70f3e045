package core

import (
	"fmt"

	"repro/internal/domain"
)

// Backend selects which matches a query reports. Every backend starts
// from the same probe of the TR39 skeleton index; they differ in which
// hits they keep. BackendPostings keeps the hits Algorithm 1's pairwise
// check verifies, proving exactly which characters were substituted —
// same-length, rune-for-rune substitutions only. BackendSkeleton keeps
// every hit, catching many-to-one and length-changing confusions
// ("rn"→"m", "vv"→"w") the pairwise model provably cannot. BackendBoth
// reports both, tagging each match with the backend(s) that found it.
type Backend uint8

const (
	// BackendPostings keeps the skeleton hits that pass the pairwise check.
	BackendPostings Backend = 1 << iota
	// BackendSkeleton keeps every skeleton hit but the reference itself.
	BackendSkeleton
	// BackendBoth reports the verified hits, then the other skeleton hits.
	BackendBoth = BackendPostings | BackendSkeleton
)

// String names the backend the way the CLI flag and wire field spell it.
func (b Backend) String() string {
	switch b {
	case BackendPostings:
		return "postings"
	case BackendSkeleton:
		return "skeleton"
	case BackendBoth:
		return "both"
	default:
		return "none"
	}
}

// NormalizeZoneLine prepares one zone line or incoming name for
// detection under b, in place: domain.NormalizeZoneLineAll when b
// includes the skeleton index, whose pure-ASCII many-to-one targets
// ("rnicrosoft.com") the posting candidate gate would drop, and the
// gated domain.NormalizeZoneLine otherwise. Feeders call this rather
// than pairing a normalizer with a backend by hand.
func (b Backend) NormalizeZoneLine(line []byte) ([]byte, bool) {
	if b&BackendSkeleton != 0 {
		return domain.NormalizeZoneLineAll(line)
	}
	return domain.NormalizeZoneLine(line)
}

// ParseBackend parses the CLI/wire spelling. The empty string selects
// BackendPostings — the pre-existing behavior of every caller that does
// not ask for a backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "postings":
		return BackendPostings, nil
	case "skeleton":
		return BackendSkeleton, nil
	case "both":
		return BackendBoth, nil
	default:
		return 0, fmt.Errorf(`core: unknown backend %q (want "postings", "skeleton", or "both")`, s)
	}
}
