package core

import (
	"cmp"
	"fmt"
	"sort"

	"repro/internal/homoglyph"
)

// Snapshot is the flattened, position-independent form of a built
// Detector: the deduplicated reference list plus its skeleton index laid
// out in contiguous arrays. It exists so the internal/snapshot codec can
// serialize a detector with bulk slice writes and NewDetectorFromSnapshot
// can rebuild one without re-running the union-find and prototype
// expansion of NewDetector — the skeleton maps are stored already
// compiled.
type Snapshot struct {
	// Refs is the detector's reference list, normalized and
	// deduplicated, in insertion order.
	Refs []string

	// The skeleton index, flattened. The three maps are laid out
	// keys-ascending so identical detectors serialize byte-identically
	// and a load/re-snapshot round trip is exact.

	// SkelRepRunes/SkelReps are the non-identity component-representative
	// pairs, SkelRepRunes ascending.
	SkelRepRunes []rune
	SkelReps     []rune
	// SkelSeqRunes (ascending) key the multi-rune skeletons; entry i's
	// sequence is the next SkelSeqLens[i] runes of SkelSeqs.
	SkelSeqRunes []rune
	SkelSeqLens  []int32
	SkelSeqs     []rune
	// SkelKeys (ascending, byte order) are the reference skeletons; key
	// i's posting list is the next SkelListLens[i] entries of
	// SkelListIDs — indexes into Refs, ascending within each list.
	SkelKeys     []string
	SkelListLens []int32
	SkelListIDs  []int32
}

// Snapshot flattens the detector into its serializable form. The layout
// is canonical — every table ascends by key — so identical detectors
// produce identical snapshots.
func (d *Detector) Snapshot() *Snapshot {
	s := &Snapshot{Refs: append([]string(nil), d.refs...)}
	for _, r := range sortedRuneKeys(d.skel.rep) {
		s.SkelRepRunes = append(s.SkelRepRunes, r)
		s.SkelReps = append(s.SkelReps, d.skel.rep[r])
	}
	for _, r := range sortedRuneKeys(d.skel.seq) {
		seq := d.skel.seq[r]
		s.SkelSeqRunes = append(s.SkelSeqRunes, r)
		s.SkelSeqLens = append(s.SkelSeqLens, int32(len(seq)))
		s.SkelSeqs = append(s.SkelSeqs, seq...)
	}
	keys := make([]string, 0, len(d.skel.refs))
	for k := range d.skel.refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ids := d.skel.refs[k]
		s.SkelKeys = append(s.SkelKeys, k)
		s.SkelListLens = append(s.SkelListLens, int32(len(ids)))
		s.SkelListIDs = append(s.SkelListIDs, ids...)
	}
	return s
}

// NewDetectorFromSnapshot rebuilds a detector over an already-loaded
// homoglyph database. Skeleton sequences and reference lists alias the
// snapshot's arrays (full-capacity subslices), so beyond the maps
// themselves the load performs no copying; the snapshot must not be
// mutated afterwards. The db must be the one serialized alongside the
// detector — the skeleton maps bake in its confusable components.
func NewDetectorFromSnapshot(db *homoglyph.DB, s *Snapshot) (*Detector, error) {
	d := &Detector{db: db}
	d.scratch.New = func() any { return &scratch{} }
	d.refs = append([]string(nil), s.Refs...)
	d.refRunes = runeArena(d.refs)
	skel, err := skelFromSnapshot(s, len(d.refs))
	if err != nil {
		return nil, err
	}
	d.skel = skel
	return d, nil
}

// skelFromSnapshot rebuilds the skeleton index verbatim from its
// flattened form — no union-find, no re-expansion — validating every
// count and reference id so a crafted snapshot fails loudly. Each table
// must be strictly ascending by key, the only layout Snapshot writes: a
// duplicated key would otherwise overwrite silently, and the loaded
// detector would no longer re-snapshot to the bytes it was loaded from.
func skelFromSnapshot(s *Snapshot, numRefs int) (*skelIndex, error) {
	if len(s.SkelReps) != len(s.SkelRepRunes) {
		return nil, fmt.Errorf("core: snapshot skeleton rep table: %d runes, %d reps", len(s.SkelRepRunes), len(s.SkelReps))
	}
	if len(s.SkelSeqLens) != len(s.SkelSeqRunes) {
		return nil, fmt.Errorf("core: snapshot skeleton seq table: %d runes, %d lengths", len(s.SkelSeqRunes), len(s.SkelSeqLens))
	}
	if len(s.SkelListLens) != len(s.SkelKeys) {
		return nil, fmt.Errorf("core: snapshot skeleton ref index: %d keys, %d lengths", len(s.SkelKeys), len(s.SkelListLens))
	}
	if i := firstUnordered(s.SkelRepRunes); i >= 0 {
		return nil, fmt.Errorf("core: snapshot skeleton rep table: rune %d not strictly ascending", i)
	}
	if i := firstUnordered(s.SkelSeqRunes); i >= 0 {
		return nil, fmt.Errorf("core: snapshot skeleton seq table: rune %d not strictly ascending", i)
	}
	if i := firstUnordered(s.SkelKeys); i >= 0 {
		return nil, fmt.Errorf("core: snapshot skeleton ref index: key %d not strictly ascending", i)
	}
	x := &skelIndex{
		rep:  make(map[rune]rune, len(s.SkelRepRunes)),
		seq:  make(map[rune][]rune, len(s.SkelSeqRunes)),
		refs: make(map[string][]int32, len(s.SkelKeys)),
	}
	for i, r := range s.SkelRepRunes {
		x.rep[r] = s.SkelReps[i]
	}
	off := 0
	for i, r := range s.SkelSeqRunes {
		l := int(s.SkelSeqLens[i])
		if l < 2 || off+l > len(s.SkelSeqs) {
			return nil, fmt.Errorf("core: snapshot skeleton seq %d: bad length %d", i, l)
		}
		x.seq[r] = s.SkelSeqs[off : off+l : off+l]
		off += l
	}
	if off != len(s.SkelSeqs) {
		return nil, fmt.Errorf("core: snapshot skeleton seqs: %d trailing runes", len(s.SkelSeqs)-off)
	}
	idOff := 0
	for i, k := range s.SkelKeys {
		l := int(s.SkelListLens[i])
		if l < 0 || idOff+l > len(s.SkelListIDs) {
			return nil, fmt.Errorf("core: snapshot skeleton key %d: truncated posting list", i)
		}
		for _, id := range s.SkelListIDs[idOff : idOff+l] {
			if id < 0 || int(id) >= numRefs {
				return nil, fmt.Errorf("core: snapshot skeleton key %d: reference id %d out of range", i, id)
			}
		}
		x.refs[k] = s.SkelListIDs[idOff : idOff+l : idOff+l]
		idOff += l
	}
	if idOff != len(s.SkelListIDs) {
		return nil, fmt.Errorf("core: snapshot skeleton ids: %d trailing entries", len(s.SkelListIDs)-idOff)
	}
	x.buildASCII()
	return x, nil
}

// firstUnordered returns the index of the first element of keys that
// does not strictly exceed its predecessor, or -1 if keys is strictly
// ascending.
func firstUnordered[K cmp.Ordered](keys []K) int {
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return i
		}
	}
	return -1
}
