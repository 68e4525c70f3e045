// Phishing hunt: the paper's Section 5–6 pipeline end to end, on live
// (simulated) infrastructure — now driven by the triage pipeline, so
// DNS probing, web classification and blacklist coverage run as one
// streaming, backpressured chain instead of three sequential batches.
//
//  1. Generate a synthetic .com registry with injected homographs.
//
//  2. Extract IDNs from the domain list (Step 2 of the framework).
//
//  3. Detect homographs of the Alexa-style reference list (Step 3).
//
//  4. Stream every detected homograph through the triage pipeline:
//     bounded-concurrency DNS probing (rate-limited), web
//     classification of the resolvable set (§6.2 gate, with the
//     parked-by-delegation first pass), and blacklist lookup — one
//     record per domain, in deterministic input order.
//
//  5. Print the hunt report from the running tally (Tables 12–14).
//
//     go run ./examples/phishing-hunt
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/blacklist"
	"repro/internal/dnsclient"
	"repro/internal/dnsserver"
	"repro/internal/hostsim"
	"repro/internal/ranking"
	"repro/internal/registry"
	"repro/internal/triage"
	"repro/internal/webclassify"
	"repro/internal/websim"
)

func main() {
	const seed = 1337

	log.Println("building homoglyph database (UC ∪ SimChar)...")
	fw, err := shamfinder.New(shamfinder.Config{FontScope: shamfinder.FontFast})
	if err != nil {
		log.Fatal(err)
	}

	log.Println("generating synthetic registry...")
	refs := ranking.Generate(10000, seed, ranking.PaperAnchors())
	reg, err := registry.Generate(registry.Options{
		Seed: seed, Scale: 0.0001, Refs: refs, DB: fw.DB(),
	})
	if err != nil {
		log.Fatal(err)
	}

	// Step 2: extract IDNs from the full registration list.
	var all []string
	reg.ForEachDomain(func(d string, isIDN bool, _ registry.Membership) {
		all = append(all, d)
	})
	idns := shamfinder.ExtractIDNs(all)
	log.Printf("registry: %d domains, %d IDNs", len(all), len(idns))

	// Step 3: Algorithm 1 against the top-10k references. The detector
	// is domain-aware: full FQDNs go in, matches carry the FQDN back.
	det := fw.NewDetector(refs.SLDs(10000))
	start := time.Now()
	matches := det.DetectParallel(idns, 0, shamfinder.BackendPostings)
	inputs := triage.InputsFromMatches(matches)
	log.Printf("detected %d homographs in %v", len(inputs), time.Since(start).Round(time.Millisecond))

	// Stand up the simulated serving infrastructure.
	store := dnsserver.NewStore()
	store.AddZone(reg.BuildProbeZone(0))
	dns := dnsserver.NewServer(store)
	if err := dns.ListenAndServe("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer dns.Close()

	mapper, err := hostsim.NewMapper()
	if err != nil {
		log.Fatal(err)
	}
	web := websim.NewServer()
	if err := web.Start(); err != nil {
		log.Fatal(err)
	}
	defer web.Close()
	websim.Deploy(reg, web, mapper)

	// Steps 4–5 as ONE streaming chain: DNS probe → web classify →
	// blacklist, connected by bounded channels. The §6.2 gate means
	// unresolvable homographs never reach the web stage; parked
	// delegations classify without a fetch; the rate limit caps the
	// aggregate query rate the way a polite zone-scale sweep must.
	client := dnsclient.New(dns.Addr())
	feeds := blacklist.FromRegistry(reg, blacklist.DefaultFiller(), seed)
	pipeline, err := triage.New(triage.Config{
		DNS: client,
		Classifier: &webclassify.Classifier{
			Resolve:     mapper.Resolve,
			UserAgent:   "Mozilla/5.0 (X11; Linux x86_64) HuntBrowser/1.0",
			Reverter:    fw.RevertDomain,
			IsMalicious: feeds.AnyContains,
		},
		Blacklists: feeds,
		DNSWorkers: 32,
		WebWorkers: 32,
		RateLimit:  2000,
		ParkingNS:  registry.ParkingProviders,
	})
	if err != nil {
		log.Fatal(err)
	}

	start = time.Now()
	in := make(chan triage.Input)
	go func() {
		defer close(in)
		for _, input := range inputs {
			in <- input
		}
	}()
	tally := triage.NewTally()
	var catches []triage.Record
	for rec := range pipeline.Stream(context.Background(), in) {
		tally.Add(rec)
		if len(rec.Blacklists) > 0 || rec.RedirectClass == string(webclassify.RedirMalicious) {
			catches = append(catches, rec)
		}
	}
	log.Printf("triaged %d homographs in %v (%d probed, %d fetched)",
		tally.Total, time.Since(start).Round(time.Millisecond),
		pipeline.Progress().Probed, pipeline.Progress().Fetched)

	fmt.Println("\n=== hunt report ===")
	for _, tbl := range tally.Tables() {
		fmt.Println(tbl.String())
	}
	fmt.Println(tally.TableFourteen().String())

	// The catch — blacklisted or maliciously redirecting.
	fmt.Println("confirmed-malicious homographs:")
	for i, rec := range catches {
		if i >= 10 {
			break
		}
		uni, _ := shamfinder.ToUnicode(rec.FQDN)
		original := rec.Reference
		if original == "" {
			if o, ok := fw.RevertDomain(rec.FQDN); ok {
				original = o
			}
		}
		fmt.Printf("  %-28s (%s) imitates %-20s [%s %v]\n",
			rec.FQDN, uni, original, rec.Category, rec.Blacklists)
	}
}
