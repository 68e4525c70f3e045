package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/punycode"
)

// manyToOneFixtures pins the false-negative class this backend closes:
// homographs built from many-to-one confusables ("rn"→"m", "vv"→"w",
// "cl"→"d") that the postings backend PROVABLY cannot represent — they
// change the label's rune length, so no rune-for-rune comparison can
// pair them with the reference.
var manyToOneFixtures = []struct {
	label string // attacker-registered, pure ASCII
	ref   string
}{
	{"rnicrosoft", "microsoft"},
	{"vvikipedia", "wikipedia"},
	{"close", "dose"}, // "cl" renders as 'd': close ≈ dose
	{"rnozilla", "mozilla"},
	{"vvard", "ward"},
}

func manyToOneDetector(t testing.TB) *Detector {
	refs := make([]string, 0, len(manyToOneFixtures))
	for _, f := range manyToOneFixtures {
		refs = append(refs, f.ref)
	}
	return NewDetector(testDB(t), refs)
}

func TestSkeletonCatchesManyToOne(t *testing.T) {
	d := manyToOneDetector(t)
	for _, f := range manyToOneFixtures {
		if ms := d.DetectDomainBackend(f.label, BackendPostings); len(ms) != 0 {
			t.Errorf("postings unexpectedly matched %q: %v", f.label, ms)
		}
		ms := d.DetectDomainBackend(f.label, BackendSkeleton)
		found := false
		for _, m := range ms {
			if m.Reference == f.ref {
				found = true
				if m.Backend != BackendSkeleton {
					t.Errorf("%q: Backend = %v, want skeleton", f.label, m.Backend)
				}
				if m.Unicode != f.label {
					t.Errorf("%q: Unicode = %q", f.label, m.Unicode)
				}
			}
		}
		if !found {
			t.Errorf("skeleton backend missed %q → %q (got %v)", f.label, f.ref, ms)
		}
	}
}

// The skeleton backend must keep working at the domain level, where the
// posting candidate gate would have rejected the pure-ASCII label before
// detection even ran.
func TestSkeletonDomainLevel(t *testing.T) {
	d := manyToOneDetector(t)
	if ms := d.DetectDomainBackend("rnicrosoft.com", BackendPostings); len(ms) != 0 {
		t.Fatalf("postings matched an ASCII label: %v", ms)
	}
	ms := d.DetectDomainBackend("rnicrosoft.com", BackendSkeleton)
	if len(ms) != 1 || ms[0].Reference != "microsoft" {
		t.Fatalf("skeleton DetectDomainBackend = %v, want microsoft", ms)
	}
	if ms[0].FQDN != "rnicrosoft.com" || ms[0].TLD != "com" {
		t.Fatalf("domain context = %q/%q", ms[0].FQDN, ms[0].TLD)
	}
	if ms[0].Imitated() != "microsoft.com" {
		t.Fatalf("Imitated = %q", ms[0].Imitated())
	}
	bs := d.DetectDomainBytesBackend([]byte("www.rnicrosoft.co.uk"), BackendBoth)
	if len(bs) != 1 || bs[0].TLD != "co.uk" || bs[0].Backend != BackendSkeleton {
		t.Fatalf("bytes both-mode = %+v", bs)
	}
}

// In both-mode a reference found by the two backends carries the union
// mask and keeps the posting match's diffs; a skeleton-only find is
// tagged skeleton.
func TestBothModeUnionTagging(t *testing.T) {
	d := NewDetector(testDB(t), []string{"google", "microsoft"})
	idn := ace(t, "gооgle") // Cyrillic о twice: visible to both backends
	ms := d.DetectDomainBackend(idn, BackendBoth)
	if len(ms) != 1 {
		t.Fatalf("matches = %v", ms)
	}
	if ms[0].Backend != BackendBoth {
		t.Fatalf("Backend = %v, want both", ms[0].Backend)
	}
	if len(ms[0].Diffs) != 2 {
		t.Fatalf("merged match lost its diffs: %v", ms[0].Diffs)
	}
	ms = d.DetectDomainBackend("rnicrosoft", BackendBoth)
	if len(ms) != 1 || ms[0].Backend != BackendSkeleton || len(ms[0].Diffs) != 0 {
		t.Fatalf("skeleton-only both-mode match = %+v", ms)
	}
}

// The reference itself must never match itself through the skeleton map
// (every ref's skeleton trivially hits its own entry).
func TestSkeletonRejectsIdentity(t *testing.T) {
	d := NewDetector(testDB(t), []string{"google", "microsoft"})
	for _, be := range []Backend{BackendSkeleton, BackendBoth} {
		if ms := d.DetectDomainBackend("google", be); len(ms) != 0 {
			t.Errorf("%v: identical label matched: %v", be, ms)
		}
	}
	// But a label that equals another reference's skeleton form still
	// matches that OTHER reference ("rnicrosoft" is not a reference here,
	// "microsoft" is — and "microsoft" skeletonizes with its own 'm').
	if ms := d.DetectDomainBackend("rnicrosoft", BackendSkeleton); len(ms) != 1 {
		t.Errorf("non-identity skeleton match lost: %v", ms)
	}
}

func TestParseBackend(t *testing.T) {
	cases := []struct {
		in   string
		want Backend
		ok   bool
	}{
		{"", BackendPostings, true},
		{"postings", BackendPostings, true},
		{"skeleton", BackendSkeleton, true},
		{"both", BackendBoth, true},
		{"tr39", 0, false},
	}
	for _, c := range cases {
		got, err := ParseBackend(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseBackend(%q) = %v, %v", c.in, got, err)
		}
	}
	for _, b := range []Backend{BackendPostings, BackendSkeleton, BackendBoth} {
		back, err := ParseBackend(b.String())
		if err != nil || back != b {
			t.Errorf("round trip %v: %v, %v", b, back, err)
		}
	}
}

// TestDifferentialParity is the fuzzed backend-parity bugfix test: every
// single-rune substitution the posting backend finds, the skeleton
// backend must find too. The skeleton index is built from the same
// pairwise graph via union-find, so Confusable(a,b) ⇒ same component ⇒
// equal skeletons — this test pins that construction against fold-order
// and expansion-order regressions with a seeded random corpus. The
// posting answer must also equal the linear oracle's, exactly.
func TestDifferentialParity(t *testing.T) {
	db := testDB(t)
	refs := []string{
		"google", "microsoft", "wikipedia", "amazon", "facebook",
		"close", "ward", "example", "payments", "bank",
	}
	d := NewDetector(db, refs)
	rng := rand.New(rand.NewSource(42))
	labels := 0
	for trial := 0; trial < 3000; trial++ {
		ref := refs[rng.Intn(len(refs))]
		runes := []rune(ref)
		// Substitute 1..3 positions with pairwise homoglyphs.
		subs := 1 + rng.Intn(3)
		changed := false
		for s := 0; s < subs; s++ {
			p := rng.Intn(len(runes))
			hs := db.Homoglyphs(runes[p])
			if len(hs) == 0 {
				continue
			}
			runes[p] = hs[rng.Intn(len(hs))]
			changed = true
		}
		if !changed {
			continue
		}
		labels++
		label := string(runes)
		post := d.DetectDomainBackend(label, BackendPostings)
		if lin := d.DetectLabelLinear(label); !reflect.DeepEqual(post, lin) {
			t.Fatalf("postings diverges from the linear oracle on %q: %v vs %v", label, post, lin)
		}
		skel := d.DetectDomainBackend(label, BackendSkeleton)
		for _, pm := range post {
			found := false
			for _, sm := range skel {
				if sm.Reference == pm.Reference {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("parity violated: postings found %q → %q, skeleton did not (skeleton: %v)",
					label, pm.Reference, skel)
			}
		}
	}
	if labels < 1000 {
		t.Fatalf("fuzz corpus too small: %d substituted labels", labels)
	}
}

// Snapshot round trip of the skeleton index is byte-for-byte: flatten,
// rebuild, re-flatten must reproduce the identical layout, and the
// rebuilt detector must answer skeleton queries identically.
func TestSkeletonSnapshotRoundTrip(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"google", "microsoft", "wikipedia", "close"})
	s1 := d.Snapshot()
	d2, err := NewDetectorFromSnapshot(db, s1)
	if err != nil {
		t.Fatal(err)
	}
	s2 := d2.Snapshot()

	if len(s1.SkelKeys) == 0 || len(s1.SkelSeqRunes) == 0 {
		t.Fatalf("skeleton sections empty: %d keys, %d seqs", len(s1.SkelKeys), len(s1.SkelSeqRunes))
	}
	if !runesEq(s1.SkelRepRunes, s2.SkelRepRunes) || !runesEq(s1.SkelReps, s2.SkelReps) ||
		!runesEq(s1.SkelSeqRunes, s2.SkelSeqRunes) || !runesEq(s1.SkelSeqs, s2.SkelSeqs) ||
		!i32Eq(s1.SkelSeqLens, s2.SkelSeqLens) || !i32Eq(s1.SkelListLens, s2.SkelListLens) ||
		!i32Eq(s1.SkelListIDs, s2.SkelListIDs) || !stringsEq(s1.SkelKeys, s2.SkelKeys) {
		t.Fatal("skeleton snapshot not byte-for-byte across load/re-flatten")
	}

	for _, f := range manyToOneFixtures[:3] {
		a := d.DetectDomainBackend(f.label, BackendBoth)
		b := d2.DetectDomainBackend(f.label, BackendBoth)
		if len(a) != len(b) {
			t.Fatalf("rebuilt detector diverges on %q: %v vs %v", f.label, a, b)
		}
	}
}

// Corrupt skeleton sections must be rejected, not silently loaded.
func TestSkeletonSnapshotValidation(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"google"})

	s := d.Snapshot()
	s.SkelReps = s.SkelReps[:len(s.SkelReps)-1]
	if _, err := NewDetectorFromSnapshot(db, s); err == nil {
		t.Error("truncated rep table accepted")
	}

	s = d.Snapshot()
	if len(s.SkelListIDs) == 0 {
		t.Fatal("no skeleton posting ids")
	}
	s.SkelListIDs[0] = 999
	if _, err := NewDetectorFromSnapshot(db, s); err == nil {
		t.Error("out-of-range skeleton ref id accepted")
	}

	s = d.Snapshot()
	if len(s.SkelSeqLens) > 0 {
		s.SkelSeqLens[0] = 1
		if _, err := NewDetectorFromSnapshot(db, s); err == nil {
			t.Error("single-rune skeleton sequence accepted")
		}
	}
}

// Every canonical-layout violation must be rejected. Each case keeps
// the counts consistent, so order is the only thing wrong: a loader
// that accepted a duplicated key would overwrite silently, and the
// loaded detector would re-snapshot to different bytes.
func TestSkeletonSnapshotRejectsNonCanonical(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"google", "microsoft", "wikipedia", "close"})
	cases := []struct {
		name   string
		mutate func(s *Snapshot)
	}{
		{"duplicate rep rune", func(s *Snapshot) { s.SkelRepRunes[1] = s.SkelRepRunes[0] }},
		{"descending rep runes", func(s *Snapshot) {
			s.SkelRepRunes[0], s.SkelRepRunes[1] = s.SkelRepRunes[1], s.SkelRepRunes[0]
			s.SkelReps[0], s.SkelReps[1] = s.SkelReps[1], s.SkelReps[0]
		}},
		{"duplicate seq rune", func(s *Snapshot) { s.SkelSeqRunes[1] = s.SkelSeqRunes[0] }},
		{"descending seq runes", func(s *Snapshot) {
			s.SkelSeqRunes[0], s.SkelSeqRunes[1] = s.SkelSeqRunes[1], s.SkelSeqRunes[0]
		}},
		{"duplicate skeleton key", func(s *Snapshot) { s.SkelKeys[1] = s.SkelKeys[0] }},
		{"descending skeleton keys", func(s *Snapshot) {
			s.SkelKeys[0], s.SkelKeys[1] = s.SkelKeys[1], s.SkelKeys[0]
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := d.Snapshot()
			if len(s.SkelRepRunes) < 2 || len(s.SkelSeqRunes) < 2 || len(s.SkelKeys) < 2 {
				t.Fatalf("tables too small: %d reps, %d seqs, %d keys", len(s.SkelRepRunes), len(s.SkelSeqRunes), len(s.SkelKeys))
			}
			c.mutate(s)
			if _, err := NewDetectorFromSnapshot(db, s); err == nil {
				t.Error("non-canonical snapshot accepted")
			}
		})
	}
}

// runeSkeleton is the per-rune rep/seq lookup, spelled out
// independently of the index's own helpers.
func runeSkeleton(x *skelIndex, r rune) string {
	if s, ok := x.seq[r]; ok {
		return string(s)
	}
	if m, ok := x.rep[r]; ok {
		return string(m)
	}
	return string(r)
}

// TestSkeletonASCIITable checks all 128 entries of the ASCII table, on a
// built and on a snapshot-loaded detector, against the per-rune rep/seq
// lookup of the folded byte.
func TestSkeletonASCIITable(t *testing.T) {
	db := testDB(t)
	built := manyToOneDetector(t)
	loaded, err := NewDetectorFromSnapshot(db, built.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*Detector{"built": built, "loaded": loaded} {
		x := d.skel
		for c := 0; c < 0x80; c++ {
			want := runeSkeleton(x, punycode.Fold(rune(c)))
			if got := x.ascii[c]; got != want {
				t.Errorf("%s: ascii[%q] = %q, want %q", name, rune(c), got, want)
			}
		}
		// The many-to-one fixtures rely on multi-byte entries, shared by
		// both cases of the letter.
		for _, c := range "mwd" {
			lo, up := x.ascii[c], x.ascii[c-'a'+'A']
			if len(lo) < 2 || up != lo {
				t.Errorf("%s: ascii[%q] = %q, ascii[%q] = %q, want one multi-byte skeleton", name, c, lo, c-'a'+'A', up)
			}
		}
	}
}

// TestASCIIFastPathMatchesRunePath: over random mixed-case ASCII labels,
// the byte-table skeleton equals the skeleton of the decoded, folded
// runes, and labels the fast path must not take (ACE, non-ASCII, empty)
// are refused.
func TestASCIIFastPathMatchesRunePath(t *testing.T) {
	d := manyToOneDetector(t)
	x := d.skel
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_"
	rng := rand.New(rand.NewSource(15))
	label := make([]byte, 0, 64)
	for i := 0; i < 5000; i++ {
		label = label[:0]
		for n := 1 + rng.Intn(40); n > 0; n-- {
			label = append(label, alphabet[rng.Intn(len(alphabet))])
		}
		if punycode.HasACEPrefix(label) {
			continue
		}
		fast, ok := appendASCIILabel(x, nil, label)
		if !ok {
			t.Fatalf("%q: fast path refused a plain ASCII label", label)
		}
		runes, err := punycode.ToUnicodeLabelAppend(nil, label)
		if err != nil {
			t.Fatal(err)
		}
		if slow := x.appendLabel(nil, runes); !bytes.Equal(fast, slow) {
			t.Fatalf("%q: fast skeleton %q, rune path %q", label, fast, slow)
		}
	}
	for _, l := range []string{"", "xn--ggle-55da", "XN--GGLE-55DA", "bücher", "abc\x80"} {
		if _, ok := appendASCIILabel(x, nil, l); ok {
			t.Errorf("%q: fast path taken", l)
		}
	}
	// Case never changes what a pure-ASCII label matches.
	for _, f := range manyToOneFixtures {
		lower := d.DetectDomainBackend(f.label, BackendBoth)
		upper := d.DetectDomainBackend(strings.ToUpper(f.label), BackendBoth)
		if len(lower) == 0 || len(upper) != len(lower) || upper[0].Unicode != lower[0].Unicode || upper[0].Reference != lower[0].Reference {
			t.Errorf("%q: uppercase spelling matches %v, lowercase %v", f.label, upper, lower)
		}
	}
}

func runesEq(a, b []rune) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func i32Eq(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func stringsEq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkSkeletonLookup: the ns/label cost of the whole-label skeleton
// probe every backend starts with, on the miss path (the zone-scale
// common case). CI publishes it as BENCH_skeleton.json and gates on its
// zero allocations.
// The ace case decodes its label; the ascii case is a plain zone name,
// skeletonized straight from its bytes.
func BenchmarkSkeletonLookup(b *testing.B) {
	d := NewDetector(testDB(b), benchRefs())
	for _, c := range []struct{ name, fqdn string }{
		{"ace", "xn--ggle-55da.example.com"},
		{"ascii", "plain-ascii-miss.example.com"},
	} {
		b.Run(c.name, func(b *testing.B) {
			fqdn := []byte(c.fqdn)
			d.DetectDomainBytesBackend(fqdn, BackendSkeleton)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.DetectDomainBytesBackend(fqdn, BackendSkeleton)
			}
		})
	}
}

func benchRefs() []string {
	var refs []string
	var buf bytes.Buffer
	for i := 0; i < 1000; i++ {
		buf.Reset()
		buf.WriteString("brand")
		buf.WriteByte(byte('a' + i%26))
		buf.WriteByte(byte('a' + (i/26)%26))
		buf.WriteByte(byte('0' + i%10))
		refs = append(refs, buf.String())
	}
	return refs
}
