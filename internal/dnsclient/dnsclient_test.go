package dnsclient

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnsserver"
	"repro/internal/dnswire"
	"repro/internal/resilience"
)

// flakyServer is a UDP-only DNS responder with programmable faults.
type flakyServer struct {
	conn *net.UDPConn
	// dropFirst drops this many requests before answering.
	dropFirst atomic.Int32
	// wrongIDFirst answers this many requests with a corrupted ID
	// before behaving (tests RFC 5452 ID filtering).
	wrongIDFirst atomic.Int32
	// garbageFirst sends undecodable bytes before the real answer.
	garbageFirst atomic.Int32
	// truncate sets the TC bit on every answer.
	truncate atomic.Bool
	requests atomic.Int32

	mu     sync.Mutex
	stamps []time.Time
}

// requestTimes returns the arrival time of every request seen so far.
func (s *flakyServer) requestTimes() []time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Time(nil), s.stamps...)
}

func newFlakyServer(t *testing.T) *flakyServer {
	t.Helper()
	addr, err := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s := &flakyServer{conn: conn}
	t.Cleanup(func() { conn.Close() })
	go s.serve()
	return s
}

func (s *flakyServer) addr() string { return s.conn.LocalAddr().String() }

func (s *flakyServer) serve() {
	buf := make([]byte, 64*1024)
	for {
		n, raddr, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		s.requests.Add(1)
		s.mu.Lock()
		s.stamps = append(s.stamps, time.Now())
		s.mu.Unlock()
		var query dnswire.Message
		if err := query.Unpack(buf[:n]); err != nil {
			continue
		}
		if s.dropFirst.Load() > 0 {
			s.dropFirst.Add(-1)
			continue
		}
		if s.garbageFirst.Load() > 0 {
			s.garbageFirst.Add(-1)
			s.conn.WriteToUDP([]byte{0xde, 0xad}, raddr)
			// Fall through: also send the real answer so the client
			// can succeed within the same attempt.
		}
		resp := dnswire.NewResponse(&query, dnswire.RCodeSuccess)
		resp.Header.Authoritative = true
		resp.Answers = append(resp.Answers, dnswire.Record{
			Name: query.Questions[0].Name, Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.7")},
		})
		if s.truncate.Load() {
			resp.Header.Truncated = true
			resp.Answers = nil
		}
		if s.wrongIDFirst.Load() > 0 {
			s.wrongIDFirst.Add(-1)
			resp.Header.ID ^= 0xFFFF
		}
		out, err := resp.Pack(nil)
		if err != nil {
			continue
		}
		s.conn.WriteToUDP(out, raddr)
	}
}

func TestRetryAfterDrops(t *testing.T) {
	s := newFlakyServer(t)
	s.dropFirst.Store(2)
	c := New(s.addr())
	c.Timeout = 200 * time.Millisecond
	c.Retries = 3
	resp, err := c.Query("example.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("query failed despite retries: %v", err)
	}
	if len(resp.Answers) != 1 {
		t.Errorf("answers = %v", resp.Answers)
	}
	if got := s.requests.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3", got)
	}
}

// TestRetryBackoffSpacing is the regression test for the back-to-back
// retransmit bug: retries used to fire with zero delay, hammering a
// server that had just dropped the previous datagram. Equal jitter
// guarantees at least half the deterministic delay between attempts,
// so the inter-arrival floor is provable, not probabilistic.
func TestRetryBackoffSpacing(t *testing.T) {
	s := newFlakyServer(t)
	s.dropFirst.Store(2)
	c := New(s.addr())
	c.Timeout = 50 * time.Millisecond
	c.Retries = 2
	c.Backoff = resilience.Backoff{Base: 200 * time.Millisecond, Max: time.Second, Jitter: resilience.JitterEqual}
	if _, err := c.Query("example.com.", dnswire.TypeA); err != nil {
		t.Fatalf("query failed despite retries: %v", err)
	}
	stamps := s.requestTimes()
	if len(stamps) != 3 {
		t.Fatalf("server saw %d requests, want 3", len(stamps))
	}
	// Attempt k retransmits after Base·2^k jittered in [d/2, d]; the
	// attempt timeout only adds to the gap.
	if g := stamps[1].Sub(stamps[0]); g < 100*time.Millisecond {
		t.Errorf("retry 1 fired %v after attempt 0, want ≥ 100ms", g)
	}
	if g := stamps[2].Sub(stamps[1]); g < 200*time.Millisecond {
		t.Errorf("retry 2 fired %v after retry 1, want ≥ 200ms", g)
	}
}

func TestRetriesExhausted(t *testing.T) {
	s := newFlakyServer(t)
	s.dropFirst.Store(100)
	c := New(s.addr())
	c.Timeout = 100 * time.Millisecond
	c.Retries = 1
	if _, err := c.Query("example.com.", dnswire.TypeA); err == nil {
		t.Fatal("query succeeded with every packet dropped")
	}
	if got := s.requests.Load(); got != 2 {
		t.Errorf("server saw %d requests, want 2 (1 + 1 retry)", got)
	}
}

func TestIgnoresWrongID(t *testing.T) {
	s := newFlakyServer(t)
	s.wrongIDFirst.Store(1)
	c := New(s.addr())
	c.Timeout = 300 * time.Millisecond
	c.Retries = 2
	resp, err := c.Query("example.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("query failed: %v", err)
	}
	if len(resp.Answers) != 1 {
		t.Errorf("answers = %v", resp.Answers)
	}
}

func TestIgnoresGarbageDatagram(t *testing.T) {
	s := newFlakyServer(t)
	s.garbageFirst.Store(1)
	c := New(s.addr())
	c.Timeout = 300 * time.Millisecond
	resp, err := c.Query("example.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("query failed: %v", err)
	}
	if len(resp.Answers) != 1 {
		t.Errorf("answers = %v", resp.Answers)
	}
}

func TestTruncationWithoutTCPFails(t *testing.T) {
	// The flaky server is UDP-only; a TC answer forces the client to
	// try TCP, which must fail cleanly (connection refused).
	s := newFlakyServer(t)
	s.truncate.Store(true)
	c := New(s.addr())
	c.Timeout = 200 * time.Millisecond
	if _, err := c.Query("example.com.", dnswire.TypeA); err == nil {
		t.Fatal("TC fallback succeeded with no TCP listener")
	}
}

func TestProbePropagatesErrors(t *testing.T) {
	c := New("127.0.0.1:1") // nothing listening
	c.Timeout = 50 * time.Millisecond
	c.Retries = 0
	results := probeAll(c, []string{"a.com.", "b.com."}, 2)
	for _, r := range results {
		if r.Err == nil {
			t.Errorf("%s: expected transport error", r.Name)
		}
	}
}

func TestQueryIDsDiffer(t *testing.T) {
	s := newFlakyServer(t)
	c := New(s.addr())
	c.Timeout = 300 * time.Millisecond
	r1, err := c.Query("a.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Query("b.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Header.ID == r2.Header.ID {
		t.Error("consecutive queries reused the same ID")
	}
}

// --- concurrent probing over one client ---

// probeAll fans domains across at most workers concurrent ProbeContext
// calls on one client and returns the results in input order — the
// shape of a pipeline's DNS stage, kept test-local so the client's
// shared pools are exercised under real concurrency.
func probeAll(c *Client, domains []string, workers int) []ProbeResult {
	results := make([]ProbeResult, len(domains))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, d := range domains {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			results[i] = c.ProbeContext(context.Background(), d)
		}()
	}
	wg.Wait()
	return results
}

// startStoreServer runs the real authoritative server over a
// programmatically built store: domains d000..dNNN where every 3rd
// has no A record, every 5th no MX, and every 7th is absent entirely
// (NXDOMAIN) — enough outcome diversity that an ordering bug cannot
// cancel out.
func startStoreServer(t testing.TB, n int) (*dnsserver.Server, []string) {
	t.Helper()
	store := dnsserver.NewStore()
	store.AddApex("com.")
	domains := make([]string, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("d%03d.com", i)
		domains[i] = name
		if i%7 == 0 {
			continue // NXDOMAIN
		}
		store.Add(dnswire.Record{Name: name + ".", Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.NS{Host: "ns1." + name + "."}})
		if i%3 != 0 {
			store.Add(dnswire.Record{Name: name + ".", Class: dnswire.ClassIN, TTL: 60,
				Data: dnswire.A{Addr: netip.MustParseAddr("127.0.0.1")}})
		}
		if i%5 != 0 {
			store.Add(dnswire.Record{Name: name + ".", Class: dnswire.ClassIN, TTL: 60,
				Data: dnswire.MX{Preference: 10, Host: "mail." + name + "."}})
		}
	}
	srv := dnsserver.NewServer(store)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, domains
}

func TestProbeOrderAcrossWorkerCounts(t *testing.T) {
	srv, domains := startStoreServer(t, 60)
	var baseline []ProbeResult
	for _, workers := range []int{1, 4, 32} {
		c := New(srv.Addr())
		c.Timeout = 2 * time.Second
		defer c.Close()
		results := probeAll(c, domains, workers)
		if len(results) != len(domains) {
			t.Fatalf("workers=%d: %d results for %d domains", workers, len(results), len(domains))
		}
		for i, res := range results {
			if res.Name != domains[i] {
				t.Fatalf("workers=%d: position %d = %s, want %s", workers, i, res.Name, domains[i])
			}
			if res.Err != nil {
				t.Fatalf("workers=%d: %s: %v", workers, res.Name, res.Err)
			}
			wantNS := i%7 != 0
			wantA := wantNS && i%3 != 0
			wantMX := wantNS && i%5 != 0
			if res.HasNS != wantNS || res.HasA != wantA || res.HasMX != wantMX {
				t.Fatalf("workers=%d: %s = %+v, want NS=%v A=%v MX=%v", workers, res.Name, res, wantNS, wantA, wantMX)
			}
			if wantNS && (len(res.NSHosts) != 1 || res.NSHosts[0] != "ns1."+res.Name) {
				t.Fatalf("workers=%d: %s NSHosts = %v", workers, res.Name, res.NSHosts)
			}
		}
		if baseline == nil {
			baseline = results
		} else if !reflect.DeepEqual(results, baseline) {
			t.Fatalf("workers=%d results differ from workers=1 baseline", workers)
		}
	}
}

func TestProbeTimeoutDrainsWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// Black hole: reads queries, never answers. Every probe times out;
	// the pool must still drain completely.
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
	c.Timeout = 100 * time.Millisecond
	c.Retries = 0
	domains := make([]string, 48)
	for i := range domains {
		domains[i] = fmt.Sprintf("t%02d.com", i)
	}
	results := probeAll(c, domains, 32)
	for i, res := range results {
		if res.Err == nil {
			t.Fatalf("probe %d unexpectedly succeeded", i)
		}
	}
	// Close tears down the pooled sockets and their readers; after it,
	// only the test's own blackhole goroutine may remain.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("worker goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}
