package core

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// streamCorpus mixes every line shape a zone stream carries: ACE
// homographs on several suffixes, pure-ASCII many-to-one homographs,
// uppercase spellings and plain misses — more lines than one dispatcher
// batch, so full and partial batches both occur.
func streamCorpus(t *testing.T) (*Detector, []string) {
	refs := append([]string{}, indexRefs...)
	for _, f := range manyToOneFixtures {
		refs = append(refs, f.ref)
	}
	det := NewDetector(testDB(t), refs)
	g := ace(t, "gооgle")
	var domains []string
	for i := 0; i < 3*streamBatch; i++ {
		switch i % 6 {
		case 0:
			domains = append(domains, g+".net")
		case 1:
			domains = append(domains, "www."+ace(t, "paypаl")+".co.uk")
		case 2:
			f := manyToOneFixtures[i%len(manyToOneFixtures)]
			domains = append(domains, f.label+".com")
		case 3:
			domains = append(domains, strings.ToUpper(manyToOneFixtures[i%len(manyToOneFixtures)].label)+".ORG")
		default:
			domains = append(domains, "plain-miss-"+string(rune('a'+i%26))+".example.com")
		}
	}
	return det, domains
}

// TestDetectStreamMatchesParallel: for every worker count and backend
// the pooled stream finds exactly what DetectParallel finds.
func TestDetectStreamMatchesParallel(t *testing.T) {
	det, domains := streamCorpus(t)
	pool := &sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}
	for _, be := range []Backend{BackendPostings, BackendSkeleton, BackendBoth} {
		for _, workers := range []int{1, 2, 8} {
			want := det.DetectParallel(domains, workers, be)
			if len(want) == 0 {
				t.Fatalf("%v: no matches in stream corpus", be)
			}
			in := make(chan *[]byte, 16)
			go func() {
				defer close(in)
				for _, d := range domains {
					bp := pool.Get().(*[]byte)
					*bp = append((*bp)[:0], d...)
					in <- bp
				}
			}()
			var got []Match
			for m := range det.DetectStreamBytesBackend(in, workers, pool, be) {
				got = append(got, m)
			}
			SortMatches(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v, workers=%d: stream %d matches, DetectParallel %d; sorted outputs differ",
					be, workers, len(got), len(want))
			}
		}
	}
}

// TestDetectStreamLockstep: the feeder sends one line and waits for its
// match before sending the next, so a dispatcher that held a partial
// batch until more lines arrived would deadlock here.
func TestDetectStreamLockstep(t *testing.T) {
	det, _ := streamCorpus(t)
	lines := []string{
		ace(t, "gооgle") + ".net",
		"rnicrosoft.com",
		"VVIKIPEDIA.ORG",
		"www." + ace(t, "paypаl") + ".co.uk",
	}
	in := make(chan *[]byte, 4)
	defer close(in)
	out := det.DetectStreamBytesBackend(in, 2, nil, BackendBoth)
	for round := 0; round < 3; round++ {
		for _, l := range lines {
			n := len(det.DetectDomainBackend(l, BackendBoth))
			if n == 0 {
				t.Fatalf("%q matches nothing", l)
			}
			b := []byte(l)
			in <- &b
			for ; n > 0; n-- {
				select {
				case m := <-out:
					if m.FQDN != l {
						t.Fatalf("sent %q, got a match for %q", l, m.FQDN)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("no match for %q: the stream is holding the line", l)
				}
			}
		}
	}
}
