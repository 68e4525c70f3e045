package dnsclient

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dnsserver"
	"repro/internal/dnswire"
)

// enableEncrypted turns on the server's DoT and DoH listeners and
// returns their addresses.
func enableEncrypted(t *testing.T, srv *dnsserver.Server) (dot, doh string) {
	t.Helper()
	if err := srv.EnableDoT("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableDoH("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return srv.DoTAddr(), srv.DoHAddr()
}

func clientForTransport(t *testing.T, tr Transport, udpAddr, dotAddr, dohAddr string) *Client {
	t.Helper()
	addr := udpAddr
	switch tr {
	case TransportDoT:
		addr = dotAddr
	case TransportDoH:
		addr = dohAddr
	}
	c := New(addr)
	c.Transport = tr
	t.Cleanup(func() { c.Close() })
	return c
}

// waitForGoroutineSettle polls until the goroutine count returns to
// (near) the pre-test baseline — the drained-pool assertion every
// transport's teardown shares.
func waitForGoroutineSettle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// TestTransportsProbeIdentically is the end-to-end cross-transport
// contract: the same population probed over udp, tcp, dot and doh
// yields byte-identical results.
func TestTransportsProbeIdentically(t *testing.T) {
	srv, domains := startStoreServer(t, 40)
	dotAddr, dohAddr := enableEncrypted(t, srv)
	var baseline []ProbeResult
	for _, tr := range Transports() {
		c := clientForTransport(t, tr, srv.Addr(), dotAddr, dohAddr)
		results := probeAll(c, domains, 8)
		for _, res := range results {
			if res.Err != nil {
				t.Fatalf("%s: %s: %v", tr, res.Name, res.Err)
			}
		}
		if baseline == nil {
			baseline = results
		} else if !reflect.DeepEqual(results, baseline) {
			t.Fatalf("%s results differ from udp baseline", tr)
		}
	}
}

// TestPoolRedialAcrossServerRestart proves the tentpole's failure
// story on every transport: queries in flight across a server restart
// fail cleanly (no hang, no leak), and the pools re-dial so the next
// batch succeeds without constructing a new client.
func TestPoolRedialAcrossServerRestart(t *testing.T) {
	for _, tr := range Transports() {
		t.Run(string(tr), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			srv, domains := startStoreServer(t, 30)
			dotAddr, dohAddr := enableEncrypted(t, srv)
			udpAddr := srv.Addr()
			c := clientForTransport(t, tr, udpAddr, dotAddr, dohAddr)
			c.Timeout = 500 * time.Millisecond
			c.Retries = 1

			first := probeAll(c, domains, 8)
			for _, res := range first {
				if res.Err != nil {
					t.Fatalf("pre-restart %s: %v", res.Name, res.Err)
				}
			}

			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			// With the server down, a probe must fail within its retry
			// budget — the pooled connections are dead, not wedged.
			start := time.Now()
			if res := c.ProbeContext(context.Background(), domains[0]); res.Err == nil {
				t.Fatal("probe succeeded against a closed server")
			}
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Fatalf("downed-server probe took %v — in-flight queries hung", elapsed)
			}

			// Restart on the very same addresses; the client keeps its
			// pools and must recover by pruning dead connections and
			// re-dialing.
			if err := srv.ListenAndServe(udpAddr); err != nil {
				t.Fatal(err)
			}
			if err := srv.EnableDoT(dotAddr); err != nil {
				t.Fatal(err)
			}
			if err := srv.EnableDoH(dohAddr); err != nil {
				t.Fatal(err)
			}
			second := probeAll(c, domains, 8)
			for _, res := range second {
				if res.Err != nil {
					t.Fatalf("post-restart %s: %v", res.Name, res.Err)
				}
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatal("post-restart results differ from pre-restart")
			}

			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			srv.Close()
			waitForGoroutineSettle(t, baseline)
		})
	}
}

// TestQueryIDAllocationSkipsInFlight pins the collision-avoidance
// satellite: with the atomic counter forced to wrap mid-burst, every
// concurrently in-flight query on one socket must still hold a
// distinct ID.
func TestQueryIDAllocationSkipsInFlight(t *testing.T) {
	// Blackhole: queries are read and dropped, so registrations pile up.
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		buf := make([]byte, 64*1024)
		for {
			if _, _, err := conn.ReadFrom(buf); err != nil {
				return
			}
		}
	}()
	c := New(conn.LocalAddr().String())
	c.Timeout = 2 * time.Second
	c.Retries = 0
	c.PoolSize = 1 // every query lands on the same socket
	c.nextID.Store(65530)
	defer c.Close()

	const inflight = 40
	var wg sync.WaitGroup
	wg.Add(inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			defer wg.Done()
			c.QueryContext(context.Background(), "xn--wrap.com.", dnswire.TypeA)
		}()
	}
	// Wait until every query has registered on the socket.
	deadline := time.Now().Add(time.Second)
	for {
		c.mu.Lock()
		p := c.udp
		c.mu.Unlock()
		n := 0
		if p != nil {
			p.mu.Lock()
			if len(p.conns) == 1 {
				pc := p.conns[0]
				pc.mu.Lock()
				n = len(pc.inflight)
				pc.mu.Unlock()
			}
			p.mu.Unlock()
		}
		if n == inflight {
			break // the map keying proves the IDs are pairwise distinct
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d queries in flight on the socket", n, inflight)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Close fails the in-flight queries cleanly; the waiters return.
	c.Close()
	wg.Wait()
}

// TestStreamOutOfOrderResponses pins RFC 7766 pipelining: a server
// that answers two pipelined TCP queries in reverse order must have
// both responses demultiplexed back to the right callers.
func TestStreamOutOfOrderResponses(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var queries []*dnswire.Message
		buf := make([]byte, 64*1024)
		for len(queries) < 2 {
			n, err := readFrame(conn, buf)
			if err != nil {
				return
			}
			q := new(dnswire.Message)
			if err := q.Unpack(buf[:n]); err != nil {
				return
			}
			queries = append(queries, q)
		}
		// Answer in reverse arrival order.
		for i := len(queries) - 1; i >= 0; i-- {
			resp := dnswire.NewResponse(queries[i], dnswire.RCodeSuccess)
			resp.Answers = append(resp.Answers, dnswire.Record{
				Name: queries[i].Questions[0].Name, Class: dnswire.ClassIN, TTL: 60,
				Data: dnswire.TXT{Strings: []string{queries[i].Questions[0].Name}},
			})
			// Pack from offset 0 (compression pointers are absolute) and
			// frame separately.
			wire, err := resp.Pack(nil)
			if err != nil {
				return
			}
			frame := append([]byte{byte(len(wire) >> 8), byte(len(wire))}, wire...)
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	}()

	c := New(ln.Addr().String())
	c.Transport = TransportTCP
	c.PoolSize = 1 // both queries pipeline on one connection
	c.Retries = 0
	defer c.Close()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	names := []string{"first.com.", "second.com."}
	// The test server reads both queries before answering either, so
	// both must be in flight concurrently.
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			resp, err := c.Query(name, dnswire.TypeTXT)
			if err != nil {
				errs[i] = err
				return
			}
			if len(resp.Questions) != 1 || resp.Questions[0].Name != name {
				errs[i] = fmt.Errorf("response for %q answered question %v", name, resp.Questions)
			}
		}(i, name)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("query %d (%s): %v", i, names[i], err)
		}
	}
}

// TestDoTSessionResumption proves the handshake amortization claim: a
// replacement connection dialed after the first one dies resumes the
// TLS session from the shared cache instead of re-handshaking from
// scratch.
func TestDoTSessionResumption(t *testing.T) {
	srv, domains := startStoreServer(t, 4)
	dotAddr, dohAddr := enableEncrypted(t, srv)
	c := clientForTransport(t, TransportDoT, srv.Addr(), dotAddr, dohAddr)
	c.PoolSize = 1

	// First query establishes the connection; reading its response also
	// drains the server's post-handshake session tickets into the cache.
	if res := c.ProbeContext(context.Background(), domains[1]); res.Err != nil {
		t.Fatal(res.Err)
	}
	c.mu.Lock()
	p := c.dot
	c.mu.Unlock()
	p.mu.Lock()
	if len(p.conns) != 1 {
		p.mu.Unlock()
		t.Fatalf("pool holds %d connections, want 1", len(p.conns))
	}
	first := p.conns[0]
	p.mu.Unlock()
	if first.nc.(*tls.Conn).ConnectionState().DidResume {
		t.Fatal("very first connection claims resumption")
	}

	// Kill the connection; the next probe must re-dial — and resume.
	first.fail(io.ErrUnexpectedEOF)
	if res := c.ProbeContext(context.Background(), domains[1]); res.Err != nil {
		t.Fatal(res.Err)
	}
	p.mu.Lock()
	second := p.conns[0]
	p.mu.Unlock()
	if second == first {
		t.Fatal("dead connection was not replaced")
	}
	if !second.nc.(*tls.Conn).ConnectionState().DidResume {
		t.Error("re-dialed DoT connection did not resume the TLS session")
	}
}

// TestDoHQueryIDMismatch pins the satellite's ErrIDMismatch contract:
// on the one transport with no demux table (the HTTP exchange itself
// rules out reordering), a response carrying the wrong ID is a
// protocol error — reported as ErrIDMismatch, never waited past.
func TestDoHQueryIDMismatch(t *testing.T) {
	ts := httptest.NewTLSServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return
		}
		q := new(dnswire.Message)
		if err := q.Unpack(body); err != nil {
			return
		}
		resp := dnswire.NewResponse(q, dnswire.RCodeSuccess)
		resp.Header.ID ^= 0x5a5a // corrupt the echoed ID
		out, _ := resp.Pack(nil)
		w.Header().Set("Content-Type", "application/dns-message")
		w.Write(out)
	}))
	defer ts.Close()

	c := New(strings.TrimPrefix(ts.URL, "https://"))
	c.Transport = TransportDoH
	c.Retries = 0
	defer c.Close()
	_, err := c.Query("mismatch.com.", dnswire.TypeA)
	if !errors.Is(err, ErrIDMismatch) {
		t.Fatalf("got %v, want ErrIDMismatch", err)
	}
}
