// Package singleepoch is a shamlint fixture: request paths that
// consult the engine more than once.
package singleepoch

type Backend uint8

type Detector struct{ refs int }

func (d *Detector) DetectBytes(b []byte) int { return d.refs + len(b) }

type Engine struct{ det *Detector }

func (e *Engine) Current() (*Detector, uint64) { return e.det, 1 }
func (e *Engine) Detector() *Detector          { return e.det }
func (e *Engine) DetectDomainBackend(s string, be Backend) (int, uint64) {
	return e.det.DetectBytes([]byte(s)) + int(be), 1
}

// handleOnce is the contract: one Current(), everything else on the
// pinned detector.
func handleOnce(e *Engine, reqs [][]byte) int {
	det, _ := e.Current()
	total := 0
	for _, r := range reqs {
		total += det.DetectBytes(r)
	}
	return total
}

func handleTwice(e *Engine, a, b string) int {
	x, _ := e.DetectDomainBackend(a, 1)
	y, _ := e.DetectDomainBackend(b, 1) // want single-epoch "engine consulted 2 times"
	return x + y
}

func handleInLoop(e *Engine, reqs []string) int {
	total := 0
	for _, r := range reqs {
		n, _ := e.DetectDomainBackend(r, 1) // want single-epoch "inside a loop"
		total += n
	}
	return total
}

func handleDetectorThenCurrent(e *Engine, a []byte) (int, uint64) {
	n := e.Detector().DetectBytes(a)
	_, epoch := e.Current() // want single-epoch "engine consulted 2 times"
	return n, epoch
}

func handleAllowed(e *Engine, a string) (int, uint64) {
	_, epoch := e.Current()
	//shamlint:allow single-epoch fixture: second read is a freshness probe, not part of the answer
	n, _ := e.DetectDomainBackend(a, 1)
	return n, epoch
}
