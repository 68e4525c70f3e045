package dnsclient

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/dnswire"
)

// seedProbe replicates the pre-pool client's cost model — one freshly
// dialed UDP socket and one fresh 64 KiB read buffer per query, three
// sequential queries per probe — kept in-file so the pooling speedup
// stays measurable long after the dial-per-query code is gone.
func seedProbe(addr, domain string) error {
	fqdn := domain + "."
	for _, typ := range []dnswire.Type{dnswire.TypeNS, dnswire.TypeA, dnswire.TypeMX} {
		conn, err := net.Dial("udp", addr)
		if err != nil {
			return err
		}
		query := dnswire.NewQuery(1, fqdn, typ)
		wire, err := query.Pack(nil)
		if err != nil {
			conn.Close()
			return err
		}
		if _, err := conn.Write(wire); err != nil {
			conn.Close()
			return err
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, maxMsgSize)
		n, err := conn.Read(buf)
		conn.Close()
		if err != nil {
			return err
		}
		resp := new(dnswire.Message)
		if err := resp.Unpack(buf[:n]); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkProbe measures whole probes (NS+A+MX against the real
// authoritative server) per transport, plus the seed dial-per-query
// baseline. CI parses the sub-benchmark names, so keep them stable:
// seed, udp, tcp, dot, doh.
func BenchmarkProbe(b *testing.B) {
	srv, domains := startStoreServer(b, 16)
	if err := srv.EnableDoT("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	if err := srv.EnableDoH("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	dot, doh := srv.DoTAddr(), srv.DoHAddr()

	b.Run("seed", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if err := seedProbe(srv.Addr(), domains[i%len(domains)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "probes/s")
	})

	for _, tr := range Transports() {
		b.Run(string(tr), func(b *testing.B) {
			c := clientForBench(b, tr, srv.Addr(), dot, doh)
			// Warm up: dial the pool, complete TLS handshakes, populate
			// the session cache, fault in the buffer arena.
			for _, d := range domains {
				if res := c.ProbeContext(context.Background(), d); res.Err != nil {
					b.Fatal(res.Err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if res := c.ProbeContext(context.Background(), domains[i%len(domains)]); res.Err != nil {
						b.Fatal(res.Err)
					}
					i++
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "probes/s")
		})
	}
}

// TestProbeAllocationBudget is the allocations-per-probe regression
// gate for the pooled buffer arena: a probe is three queries, and the
// seed client paid a fresh 64 KiB read buffer for each (≥192 KiB per
// probe). The pooled client reuses arena buffers across queries, so
// steady-state cost must stay far below one buffer per probe.
func TestProbeAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget checked in the non-race run")
	}
	srv, domains := startStoreServer(t, 8)
	c := New(srv.Addr())
	defer c.Close()
	for _, d := range domains {
		if res := c.ProbeContext(context.Background(), d); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const rounds = 200
	for i := 0; i < rounds; i++ {
		if res := c.ProbeContext(context.Background(), domains[1]); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	runtime.ReadMemStats(&after)
	perProbe := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	const budget = 32 * 1024
	if perProbe > budget {
		t.Errorf("steady-state probe allocates %.0f B, budget %d B — is the read-buffer arena being bypassed?", perProbe, budget)
	}
	t.Logf("steady-state probe: %.0f B allocated (budget %d)", perProbe, budget)
}

func clientForBench(b *testing.B, tr Transport, udpAddr, dotAddr, dohAddr string) *Client {
	b.Helper()
	addr := udpAddr
	switch tr {
	case TransportDoT:
		addr = dotAddr
	case TransportDoH:
		addr = dohAddr
	}
	c := New(addr)
	c.Transport = tr
	b.Cleanup(func() { c.Close() })
	return c
}
