// Package core implements the ShamFinder detection engine — Algorithm 1 of
// the paper: given a list of reference domain names and a set of extracted
// IDNs, find the IDNs that are homographs of a reference, pinpointing the
// differential characters so downstream countermeasures (blocklists, the
// Figure 12 warning UI) can explain exactly which character was substituted.
//
// The engine is indexed by one structure, the TR39 skeleton map: every
// rune maps to the canonical prototype of its confusable component, and
// each reference's whole-label skeleton keys a hash map. An incoming label
// is decoded, skeletonized and probed once; a label no reference
// resembles rejects there, in O(label length). The few hits are then
// filtered per backend — Algorithm 1's pairwise check for postings,
// identity only for skeleton (see detectLabelIn). The seed linear scan
// survives as DetectLabelLinear, the oracle for tests and ablations.
package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/domain"
	"repro/internal/homoglyph"
	"repro/internal/punycode"
)

// CharDiff records one substituted character in a detected homograph.
type CharDiff struct {
	Pos    int              // rune index within the label
	Got    rune             // the character in the IDN
	Want   rune             // the character in the reference
	Source homoglyph.Source // which database vouched for the pair
}

// String renders the diff as "օ≈o@1 (SimChar)".
func (d CharDiff) String() string {
	return fmt.Sprintf("%c≈%c@%d (%s)", d.Got, d.Want, d.Pos, d.Source)
}

// Match is one detected homograph: the matched label (in both forms),
// the reference it imitates, and the domain context it was found in —
// so a report can say "xn--ggle-55da.net imitates google.net" instead
// of hardcoding one TLD.
type Match struct {
	IDN       string // ASCII (xn--) form of the matched label, as seen in the zone
	Unicode   string // decoded label
	Reference string // targeted reference label (registrable label, suffix removed)
	FQDN      string // full domain the label was matched in (equals IDN for bare-label input)
	TLD       string // public suffix of FQDN ("com", "co.uk", "xn--p1ai"); "" for bare labels
	Backend   Backend
	Diffs     []CharDiff // per-character substitutions; nil unless pairwise-verified (Backend postings or both)
}

// Imitated returns the domain the match imitates: the reference label
// under the matched FQDN's own public suffix ("google.net" for a
// homograph registered in the .net zone). A bare-label match returns
// just the reference.
func (m Match) Imitated() string {
	if m.TLD == "" {
		return m.Reference
	}
	return m.Reference + "." + m.TLD
}

// scratch holds the per-call working memory detectDomain reuses across
// labels, keeping the steady-state path allocation-free except for the
// matches themselves.
type scratch struct {
	runes []rune
	skel  []byte
}

// Detector holds the deduplicated references, their rune
// decompositions, the skeleton index over them, and the homoglyph
// database, ready to scan IDNs. A Detector is immutable after
// construction and safe for concurrent use.
type Detector struct {
	db       *homoglyph.DB
	refs     []string
	refRunes [][]rune // refRunes[i] decomposes refs[i]; all share one arena
	skel     *skelIndex
	scratch  sync.Pool
}

// NewDetector builds a detector over reference labels (TLD part removed,
// ASCII form). Duplicate references are collapsed. Construction compiles
// the skeleton index; reuse the detector across scans.
func NewDetector(db *homoglyph.DB, references []string) *Detector {
	d := &Detector{db: db}
	d.scratch.New = func() any { return &scratch{} }
	seen := make(map[string]bool, len(references))
	for _, ref := range references {
		// punycode.Fold is the same normalization the decode path applies
		// to incoming labels, so an uppercase (even non-ASCII) reference
		// and its lowercase spelling index identically.
		ref = punycode.FoldString(strings.TrimSpace(ref))
		// An ACE reference ("xn--bcher-kva") must index on its decoded
		// runes — incoming labels are compared in Unicode form, so the
		// literal ASCII spelling could never match any homograph. A
		// label that fails to decode stays literal (inert, as before).
		if punycode.IsACE(ref) {
			if uni, err := punycode.ToUnicodeLabel(ref); err == nil {
				ref = uni
			}
		}
		if ref == "" || seen[ref] {
			continue
		}
		seen[ref] = true
		d.refs = append(d.refs, ref)
	}
	d.refRunes = runeArena(d.refs)
	d.skel = buildSkelIndex(db, d.refRunes)
	return d
}

// runeArena decomposes every reference into one shared rune arena, so
// the hot path never re-runs []rune(ref) and a 10k-reference detector
// holds all its decompositions in a single allocation.
func runeArena(refs []string) [][]rune {
	n := 0
	for _, ref := range refs {
		n += utf8.RuneCountInString(ref)
	}
	arena := make([]rune, 0, n)
	out := make([][]rune, len(refs))
	for i, ref := range refs {
		start := len(arena)
		for _, r := range ref {
			arena = append(arena, r)
		}
		out[i] = arena[start:len(arena):len(arena)]
	}
	return out
}

// NumReferences returns the deduplicated reference count without
// copying the list — the serving layer's health and metrics endpoints
// read it on every scrape.
func (d *Detector) NumReferences() int { return len(d.refs) }

// References returns the deduplicated reference labels.
func (d *Detector) References() []string {
	out := make([]string, len(d.refs))
	copy(out, d.refs)
	return out
}

// matchAgainst implements the inner loop of Algorithm 1 for one
// (reference, IDN) pair of equal rune length.
func (d *Detector) matchAgainst(ref []rune, idn []rune) ([]CharDiff, bool) {
	var diffs []CharDiff
	for i := range ref {
		if ref[i] == idn[i] {
			continue
		}
		ok, src := d.db.Confusable(idn[i], ref[i])
		if !ok {
			return nil, false
		}
		diffs = append(diffs, CharDiff{Pos: i, Got: idn[i], Want: ref[i], Source: src})
	}
	// A homograph must differ somewhere; an identical string is the
	// reference itself, not an attack.
	if len(diffs) == 0 {
		return nil, false
	}
	return diffs, true
}

// DetectDomainBackend checks a dotted FQDN — any TLD, any label count,
// trailing root dot tolerated — or a bare label (a domain with no dot,
// ACE "xn--" or Unicode form) under backend be. It scans each candidate
// label left of the public suffix against the skeleton index: the
// registrable label and any subdomains are attacker-chosen, the suffix
// is the zone's own (and skipping it keeps ACE TLDs like xn--p1ai from
// costing a punycode decode per line). Under the posting backend a
// candidate is an ACE label or one carrying non-ASCII bytes — pure-ASCII
// labels cannot be pairwise homographs; with the skeleton backend
// enabled every non-empty label is a candidate, since a many-to-one
// homograph ("rnicrosoft") is pure ASCII. Matches carry the FQDN and its
// public suffix, so reports can name the imitated domain on the zone it
// was actually found in. Safe for concurrent use.
func (d *Detector) DetectDomainBackend(fqdn string, be Backend) []Match {
	return detectDomain(d, fqdn, be)
}

// DetectDomainBytesBackend is DetectDomainBackend over a reused line
// buffer: nothing is retained from fqdn, and a domain that matches
// nothing allocates nothing under any backend, so a zone feeder can
// recycle one buffer per in-flight line. Strings (the match's IDN,
// Unicode and FQDN forms) are materialized only when a label actually
// matches.
//
//shamlint:noalloc
func (d *Detector) DetectDomainBytesBackend(fqdn []byte, be Backend) []Match {
	return detectDomain(d, fqdn, be)
}

// detectDomain is the domain-level hot path, compiled for both
// spellings. A cheap scratch-free gate runs first: the scannable
// labels all sit left of the final dot (the suffix is never scanned),
// so a name with no candidate label before its last dot — the shape of
// almost every line in an IDN-TLD zone such as .xn--p1ai, where the
// ACE TLD alone gets plain lines past the feeder's xn-- test — rejects
// on one short byte scan. Names that pass split into label spans
// (scratch-backed, no allocation); the candidate labels left of the
// public suffix are scanned, and matches are enriched with the
// FQDN/TLD context (materialized only when a label actually matched).
func detectDomain[S punycode.ByteSeq](d *Detector, fqdn S, be Backend) []Match {
	end := len(fqdn)
	if end > 0 && fqdn[end-1] == '.' {
		end-- // trailing root dot
	}
	trimmed := fqdn[:end]
	firstDot := -1
	for i := 0; i < end; i++ {
		if trimmed[i] == '.' {
			firstDot = i
			break
		}
	}
	if firstDot < 0 { // bare label
		if !candidateLabelFor(trimmed, be) {
			return nil
		}
		sc := d.scratch.Get().(*scratch)
		defer d.scratch.Put(sc)
		ms := detectLabelIn(d, sc, trimmed, be)
		if len(ms) > 0 && end != len(fqdn) { // root-dot spelling: echo it
			fq := string(fqdn)
			for i := range ms {
				ms[i].FQDN = fq
			}
		}
		return ms
	}

	// One fused walk scans every scannable label. Scannability reduces
	// to "not the final label": the first label is always scannable (the
	// public suffix never swallows the whole name), the final label of a
	// dotted name never is, and an interior label could only be excluded
	// as the second half of a "co.uk"-style suffix — whose second-level
	// entries are all plain ASCII, never candidates (an invariant the
	// domain package pins with a test). Scratch is checked out lazily,
	// so a line with no candidate label costs one byte scan and nothing
	// else — the shape of almost every line an IDN TLD's xn-- sneaks
	// past the feeder gate.
	var out []Match
	var sc *scratch
	if label := trimmed[:firstDot]; candidateLabelFor(label, be) {
		sc = d.scratch.Get().(*scratch)
		out = detectLabelIn(d, sc, label, be)
	}
	secondLastStart, lastStart := 0, firstDot+1
	start := firstDot + 1
	for i := start; i < end; i++ {
		if trimmed[i] != '.' {
			continue
		}
		if label := trimmed[start:i]; candidateLabelFor(label, be) {
			if sc == nil {
				sc = d.scratch.Get().(*scratch)
			}
			out = append(out, detectLabelIn(d, sc, label, be)...)
		}
		secondLastStart, lastStart = lastStart, i+1
		start = i + 1
	}
	if sc != nil {
		d.scratch.Put(sc)
	}
	if len(out) == 0 {
		return nil
	}
	// Attach the domain context, deciding the suffix width only now
	// that a match exists.
	fq := string(fqdn)
	tldStart := lastStart
	if lastStart > firstDot+1 && // three labels or more
		domain.TwoLabelSuffix(trimmed, domain.Span{Start: secondLastStart, End: lastStart - 1}, domain.Span{Start: lastStart, End: end}) {
		tldStart = secondLastStart
	}
	tld := fq[tldStart:end]
	for i := range out {
		out[i].FQDN = fq
		out[i].TLD = tld
	}
	return out
}

// candidateLabel reports whether a label can be a homograph under the
// posting backend: an ACE label decodes to non-ASCII by construction,
// and a raw label must carry a non-ASCII byte (ASCII-to-ASCII pairs are
// never homoglyphs — the soundness property the engine's tests pin).
func candidateLabel[S punycode.ByteSeq](label S) bool {
	if punycode.HasACEPrefix(label) {
		return true
	}
	for i := 0; i < len(label); i++ {
		if label[i] >= 0x80 {
			return true
		}
	}
	return false
}

// candidateLabelFor is the backend-aware candidate gate. The skeleton
// backend must see every non-empty label: a many-to-one homograph
// ("rnicrosoft") is pure ASCII, exactly the shape the posting gate
// rejects as impossible for itself.
func candidateLabelFor[S punycode.ByteSeq](label S, be Backend) bool {
	if be&BackendSkeleton != 0 {
		return len(label) > 0
	}
	return candidateLabel(label)
}

// detectLabelIn is the shared per-label hot path, compiled for both
// label spellings, running on borrowed scratch. Every backend starts
// with the same probe: skeletonize, look the skeleton up. A pure-ASCII
// label skeletonizes straight from its bytes through the index's ASCII
// table and is decoded only on a hit; any other label is decoded once
// and skeletonized rune by rune. The miss path — the zone-scale common
// case — ends at the probe, allocating nothing: the map index uses the
// string(sc.skel) conversion the compiler performs without copying.
//
// The hits are the references sharing the label's skeleton, ascending by
// id. Each backend filters them:
//   - postings keeps the hits of equal rune length that pass Algorithm 1's
//     pairwise check (matchAgainst), with their character diffs. The
//     skeleton map is built from the same pairwise graph, so every pair
//     matchAgainst accepts shares a skeleton: this is exactly the
//     paper's same-length scan, answered without visiting the misses.
//   - skeleton keeps every hit that is not the reference itself.
//   - both returns the verified hits first, tagged both and carrying
//     diffs, then the unverified ones, tagged skeleton.
func detectLabelIn[S punycode.ByteSeq](d *Detector, sc *scratch, idnLabel S, be Backend) []Match {
	skel, ascii := appendASCIILabel(d.skel, sc.skel[:0], idnLabel)
	if !ascii {
		runes, err := punycode.ToUnicodeLabelAppend(sc.runes[:0], idnLabel)
		sc.runes = runes
		if err != nil || len(runes) == 0 {
			return nil
		}
		skel = d.skel.appendLabel(skel[:0], runes)
	}
	sc.skel = skel
	ids := d.skel.refs[string(skel)]
	if len(ids) == 0 {
		return nil
	}
	if ascii {
		// A plain label never fails to decode; it only folds.
		sc.runes, _ = punycode.ToUnicodeLabelAppend(sc.runes[:0], idnLabel)
	}
	runes := sc.runes

	// Hits exist, so matches are likely: the IDN and Unicode strings are
	// materialized once, on the first match — the miss path never builds
	// them.
	var idn, uni string
	var verified, unverified []Match
	for _, id := range ids {
		ref := d.refRunes[id]
		var diffs []CharDiff
		ok := false
		if be&BackendPostings != 0 && len(ref) == len(runes) {
			diffs, ok = d.matchAgainst(ref, runes)
		}
		// An unverified hit survives only under the skeleton backend, and
		// never when it is the reference itself — the skeleton-side twin
		// of matchAgainst's zero-diff rejection.
		if !ok && (be&BackendSkeleton == 0 || slices.Equal(ref, runes)) {
			continue
		}
		if idn == "" {
			idn, uni = string(idnLabel), string(runes)
		}
		m := Match{
			IDN:       idn,
			Unicode:   uni,
			Reference: d.refs[id],
			FQDN:      idn, // bare-label context; detectDomain overwrites
			Backend:   BackendSkeleton,
			Diffs:     diffs,
		}
		if ok {
			m.Backend = be
			verified = append(verified, m)
		} else {
			unverified = append(unverified, m)
		}
	}
	if len(verified) == 0 {
		return unverified
	}
	return append(verified, unverified...)
}

// DetectLabelLinear is the seed engine: a linear scan over every
// same-length reference. It is retained as the correctness oracle the
// skeleton-probed path is property-tested against, and as the "before"
// side of the throughput ablation.
func (d *Detector) DetectLabelLinear(idnLabel string) []Match {
	uni, err := punycode.ToUnicodeLabel(idnLabel)
	if err != nil {
		return nil
	}
	runes := []rune(uni)
	var out []Match
	for i, ref := range d.refRunes {
		if len(ref) != len(runes) {
			continue
		}
		if diffs, ok := d.matchAgainst(ref, runes); ok {
			out = append(out, Match{
				IDN:       idnLabel,
				Unicode:   uni,
				Reference: d.refs[i],
				FQDN:      idnLabel,
				Backend:   BackendPostings,
				Diffs:     diffs,
			})
		}
	}
	return out
}

// DB exposes the detector's homoglyph database.
func (d *Detector) DB() *homoglyph.DB { return d.db }
