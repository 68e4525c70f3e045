package core

import (
	"sort"
	"unicode/utf8"

	"repro/internal/homoglyph"
	"repro/internal/punycode"
)

// skelIndex is the detector's one index: every rune maps to a canonical
// prototype (a single representative rune, or a multi-rune sequence for
// many-to-one confusables), and every reference's whole-label skeleton is
// precomputed into a hash map — so a candidate label resolves to its
// imitated references in one map probe, regardless of length.
//
// The per-rune mapping is derived from the SAME pairwise graph Algorithm
// 1 verifies against, via union-find: every connected component of the
// Confusable relation collapses to one representative (its smallest
// rune). That construction is what lets one probe answer every backend —
// Confusable(a,b) ⇒ same component ⇒ same skeleton rune — so every
// reference the pairwise check would accept is among the label's skeleton
// hits. On top of that, components whose representative
// carries a multi-rune UC prototype ('m' → "rn") expand to the mapped
// sequence, which is what catches the length-changing homographs
// ("rnicrosoft") the pairwise model cannot represent.
//
// rep and seq are the source of truth (they are what a snapshot stores);
// ascii is derived from them once per index so the zone-scale common
// case — a plain ASCII label — skeletonizes by table lookup per byte,
// with no decode and no map probe per rune.
type skelIndex struct {
	rep   map[rune]rune      // non-identity component representatives
	seq   map[rune][]rune    // multi-rune skeletons (already rep-mapped)
	refs  map[string][]int32 // skeleton(ref) → ascending ids into Detector.refs
	ascii [0x80]string       // ascii[c] = UTF-8 skeleton of Fold(c), from rep/seq
}

// buildSkelIndex compiles the skeleton index for the detector's
// homoglyph view over its references' rune decompositions.
func buildSkelIndex(db *homoglyph.DB, refRunes [][]rune) *skelIndex {
	chars := db.Chars().Runes()

	// Union-find over the pairwise graph, path-halving on find.
	parent := make(map[rune]rune, len(chars))
	var find func(rune) rune
	find = func(r rune) rune {
		p, ok := parent[r]
		if !ok || p == r {
			return r
		}
		root := find(p)
		parent[r] = root
		return root
	}
	union := func(a, b rune) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, r := range chars {
		for _, p := range db.Homoglyphs(r) {
			union(r, p)
		}
	}

	// Representative = smallest rune of the component.
	minOf := make(map[rune]rune, len(chars))
	for _, r := range chars {
		root := find(r)
		if m, ok := minOf[root]; !ok || r < m {
			minOf[root] = r
		}
	}
	x := &skelIndex{
		rep:  make(map[rune]rune),
		seq:  make(map[rune][]rune),
		refs: make(map[string][]int32),
	}
	for _, r := range chars {
		if m := minOf[find(r)]; m != r {
			x.rep[r] = m
		}
	}

	// Sequence expansion is decided per COMPONENT, by its representative:
	// if the rep's full UC prototype is multi-rune, every member of the
	// component skeletonizes to that sequence (each sequence rune itself
	// resolved recursively). Deciding by member instead would let a
	// SimChar-only partner of 'w' keep skeleton 'w' while 'w' itself went
	// to "vv", silently breaking posting⊆skeleton parity.
	var uc ucExpander
	if db.Use()&homoglyph.SourceUC != 0 {
		if c := db.UC(); c != nil {
			uc = c
		}
	}
	var expand func(r rune, depth int, dst []rune) []rune
	expand = func(r rune, depth int, dst []rune) []rune {
		rep := r
		if m, ok := x.rep[r]; ok {
			rep = m
		}
		if uc != nil && depth < 8 {
			if s := uc.SkeletonAppend(nil, rep); len(s) > 1 {
				for _, t := range s {
					dst = expand(t, depth+1, dst)
				}
				return dst
			}
		}
		return append(dst, rep)
	}
	for _, r := range chars {
		if s := expand(r, 0, nil); len(s) > 1 {
			x.seq[r] = s
		}
	}
	x.buildASCII()

	for i, ref := range refRunes {
		key := string(x.appendLabel(nil, ref))
		x.refs[key] = append(x.refs[key], int32(i))
	}
	return x
}

// ucExpander is the slice of confusables.DB the expansion needs; an
// interface so the build works against any view without importing the
// package for more than the type.
type ucExpander interface {
	SkeletonAppend(dst []rune, r rune) []rune
}

// buildASCII derives the ASCII table from rep/seq. Entry c holds the
// skeleton of Fold(c), so an uppercase byte skeletonizes like its
// lowercase form — the same fold ToUnicodeLabelAppend applies before the
// rune path sees a label.
func (x *skelIndex) buildASCII() {
	for c := range x.ascii {
		x.ascii[c] = string(x.appendRune(nil, punycode.Fold(rune(c))))
	}
}

// appendRune appends the UTF-8 skeleton of one rune through the maps.
// Runes outside the database map to themselves.
func (x *skelIndex) appendRune(dst []byte, r rune) []byte {
	if s, ok := x.seq[r]; ok {
		for _, sr := range s {
			dst = utf8.AppendRune(dst, sr)
		}
		return dst
	}
	if m, ok := x.rep[r]; ok {
		return utf8.AppendRune(dst, m)
	}
	return utf8.AppendRune(dst, r)
}

// appendLabel appends the UTF-8 skeleton of the label's (folded) runes
// to dst and returns the extended slice, ASCII runes through the table.
// An all-unknown label's skeleton is itself.
func (x *skelIndex) appendLabel(dst []byte, runes []rune) []byte {
	for _, r := range runes {
		if r < 0x80 {
			dst = append(dst, x.ascii[r]...)
			continue
		}
		dst = x.appendRune(dst, r)
	}
	return dst
}

// appendASCIILabel appends the skeleton of a raw label straight from its
// bytes when the label is non-empty, pure ASCII and not ACE — the shape
// of nearly every zone name — and reports whether it did. For such a
// label the result equals appendLabel over its decoded runes, without
// the decode. Otherwise it reports false and dst's contents past its
// original length are unspecified.
func appendASCIILabel[S punycode.ByteSeq](x *skelIndex, dst []byte, label S) ([]byte, bool) {
	if len(label) == 0 || punycode.HasACEPrefix(label) {
		return dst, false
	}
	for i := 0; i < len(label); i++ {
		c := label[i]
		if c >= 0x80 {
			return dst, false
		}
		// Nearly every entry is one byte; appending it directly skips
		// the copy a string append costs.
		if s := x.ascii[c]; len(s) == 1 {
			dst = append(dst, s[0])
		} else {
			dst = append(dst, s...)
		}
	}
	return dst, true
}

// sortedRuneKeys returns a skeleton map's keys in their canonical
// (ascending) order, shared by Snapshot and the loader so identical
// detectors flatten identically.
func sortedRuneKeys[V any](m map[rune]V) []rune {
	out := make([]rune, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
