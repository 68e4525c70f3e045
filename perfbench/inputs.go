package main

import (
	"fmt"
	"strings"

	"repro/internal/experiments"
	"repro/internal/registry"
	"repro/internal/stats"
)

// refCount is the reference-list size of every workload: the paper's
// Alexa top-10k.
const refCount = 10000

// inputs are a workload's generated inputs: the registry and reference
// list from the repository's own generators, seeded by --seed. The
// program under test receives only what is derived from them (zone
// lines, request bodies, reference labels, snapshot files).
type inputs struct {
	env  *experiments.Env
	reg  *registry.Registry
	refs []string
}

// makeInputs builds the inputs for the run's seed. The registry
// generator rejects about one seed in a hundred (its target planner
// can hand a short reference more homographs than it can host; seeds
// 4, 105, 155 and 260 below 400), and a caller sweeping seeds cannot
// know which. A rejected seed is retried as seed + k·2^32 for k = 1, 2,
// 3: no other --seed below 2^32 reaches those, so distinct seeds keep
// distinct inputs. The seed the registry came from is reported.
func makeInputs(rc *runCtx, scale float64) (*inputs, error) {
	var errs []error
	for k := uint64(0); k < 4; k++ {
		seed := rc.seed + k<<32
		env := experiments.NewEnv(experiments.Options{Seed: seed, Scale: scale, FastFont: true, RefCount: refCount})
		reg, err := env.Registry()
		if err != nil {
			errs = append(errs, fmt.Errorf("seed %d: %w", seed, err))
			continue
		}
		if k > 0 {
			rc.rep.note("registry generator rejected %v; inputs use registry seed %d", errs, seed)
		}
		return &inputs{env: env, reg: reg, refs: env.Refs().SLDs(refCount)}, nil
	}
	return nil, fmt.Errorf("registry generator rejected every seed tried: %v", errs)
}

// suffixes spreads the registry's .com names over several zones: a
// two-label public suffix, an IDN TLD, and plain gTLDs. Weights are
// percentages.
var suffixes = []struct {
	tld    string
	weight int
}{{"com", 55}, {"net", 15}, {"org", 10}, {"co.uk", 10}, {"xn--p1ai", 10}}

// respread rewrites one registry name ("label.com") onto a seeded
// suffix, with a www. prefix on one name in ten.
func respread(name string, rng *stats.RNG) string {
	label := strings.TrimSuffix(name, ".com")
	pick, tld := rng.Intn(100), suffixes[0].tld
	for _, s := range suffixes {
		if pick < s.weight {
			tld = s.tld
			break
		}
		pick -= s.weight
	}
	if rng.Intn(10) == 0 {
		label = "www." + label
	}
	return label + "." + tld
}
