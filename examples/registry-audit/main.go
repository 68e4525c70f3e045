// Registry audit: defensive brand protection. Given a brand label,
// enumerate the registrable single-substitution homographs the
// homoglyph database knows about, then check each against live DNS to
// see which are already registered — and by whom (NS records). Brand
// owners run exactly this loop to decide which lookalikes to
// defensively register (the paper's Table 13 found 178 such
// brand-protection registrations).
//
// The DNS check runs against a simulated .com zone with a few of the
// lookalikes pre-registered; point -server at a real resolver to audit
// the real registry.
//
//	go run ./examples/registry-audit [-brand paypal]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"

	"repro"
	"repro/internal/dnsclient"
	"repro/internal/dnsserver"
	"repro/internal/dnswire"
	"repro/internal/idntable"
	"repro/internal/punycode"
	"repro/internal/triage"
	"repro/internal/zonefile"
)

func main() {
	brand := flag.String("brand", "paypal", "brand label to audit (without TLD)")
	tld := flag.String("tld", "com", "TLD whose IANA IDN table gates registrability")
	server := flag.String("server", "", "DNS server host:port; empty = built-in simulated zone")
	limit := flag.Int("limit", 40, "maximum candidates to probe")
	flag.Parse()

	log.Println("building homoglyph database...")
	fw, err := shamfinder.New(shamfinder.Config{FontScope: shamfinder.FontFast})
	if err != nil {
		log.Fatal(err)
	}
	table, ok := idntable.Builtin(*tld)
	if !ok {
		log.Fatalf("no built-in IDN table for .%s (have %v)", *tld, idntable.BuiltinTLDs())
	}

	candidates := enumerate(fw, table, *brand, *limit)
	fmt.Printf("%d homograph candidates for %s.%s registrable under the .%s IDN table:\n\n",
		len(candidates), *brand, table.TLD, table.TLD)

	addr := *server
	var srv *dnsserver.Server
	if addr == "" {
		srv, addr = simulatedZone(candidates)
		defer srv.Close()
	}
	client := dnsclient.New(addr)
	defer client.Close()

	pipe, err := triage.New(triage.Config{
		DNS:           client,
		DNSWorkers:    16,
		SkipWeb:       true,
		SkipBlacklist: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	records, err := pipe.Run(context.Background(), inputs(candidates))
	if err != nil {
		log.Fatal(err)
	}
	registered := 0
	for i, rec := range records {
		status := "available"
		if rec.DNSError != "" {
			status = "error: " + rec.DNSError
		} else if rec.HasNS {
			status = "REGISTERED"
			registered++
		}
		fmt.Printf("  %-30s %-28s %s\n", candidates[i].unicode, rec.FQDN, status)
	}
	fmt.Printf("\n%d of %d already registered — review these for defensive registration or takedown.\n",
		registered, len(candidates))
}

type candidate struct {
	unicode string // e.g. "раypal.com"
	ascii   string // e.g. "xn--ypal-…"
}

func inputs(cs []candidate) []triage.Input {
	out := make([]triage.Input, len(cs))
	for i, c := range cs {
		out[i] = triage.Input{FQDN: c.ascii}
	}
	return out
}

// enumerate builds single-substitution homographs of brand that the
// TLD's IDN table permits (the paper's Section 2.1 point: an attack
// must survive the registry's inclusion policy).
func enumerate(fw *shamfinder.Framework, table *idntable.Table, brand string, limit int) []candidate {
	runes := []rune(strings.ToLower(brand))
	var out []candidate
	for pos, r := range runes {
		glyphs := table.FilterHomoglyphs(fw.Homoglyphs(r))
		sort.Slice(glyphs, func(i, j int) bool { return glyphs[i] < glyphs[j] })
		for _, g := range glyphs {
			variant := append([]rune(nil), runes...)
			variant[pos] = g
			label := string(variant)
			if !table.Allows(label) {
				continue // another character in the brand is off-table
			}
			ascii, err := punycode.ToASCII(label + "." + table.TLD)
			if err != nil {
				continue
			}
			out = append(out, candidate{unicode: label + "." + table.TLD, ascii: ascii})
			if len(out) == limit {
				return out
			}
		}
	}
	return out
}

// simulatedZone registers every third candidate in a loopback zone so
// the audit has something to find.
func simulatedZone(cs []candidate) (*dnsserver.Server, string) {
	origin := "com."
	if len(cs) > 0 {
		if i := strings.LastIndexByte(cs[0].ascii, '.'); i >= 0 {
			origin = cs[0].ascii[i+1:] + "."
		}
	}
	z := &zonefile.Zone{Origin: origin, TTL: 300}
	z.Records = append(z.Records, dnswire.Record{
		Name: origin, Class: dnswire.ClassIN, TTL: 900,
		Data: dnswire.SOA{MName: "a.gtld-servers.net.", RName: "nstld.example.",
			Serial: 1, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400},
	})
	for i, c := range cs {
		if i%3 != 0 {
			continue
		}
		z.Records = append(z.Records, dnswire.Record{
			Name: c.ascii + ".", Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.NS{Host: "ns1.squatter-hosting.example."},
		})
	}
	store := dnsserver.NewStore()
	store.AddZone(z)
	srv := dnsserver.NewServer(store)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	return srv, srv.Addr()
}
