package dnsserver

import (
	"context"
	"net/netip"
	"strings"
	"sync"
	"testing"

	"repro/internal/dnsclient"
	"repro/internal/dnswire"
	"repro/internal/zonefile"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	zone := `
$ORIGIN com.
$TTL 300
@	IN SOA ns.registry.com. admin.registry.com. 1 2 3 4 5
example	IN NS ns1.example.com.
ns1.example	IN A 127.0.0.1
example	IN A 127.0.0.1
example	IN MX 10 mail.example.com.
www.example IN CNAME example
parked	IN NS ns.parking.net.
`
	z, err := zonefile.Parse(strings.NewReader(zone), "")
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore()
	st.AddZone(z)
	return st
}

func startServer(t *testing.T, st *Store) *Server {
	t.Helper()
	srv := NewServer(st)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestStoreLookup(t *testing.T) {
	st := testStore(t)
	recs, exists := st.Lookup("example.com.", dnswire.TypeA)
	if !exists || len(recs) != 1 {
		t.Fatalf("A lookup: exists=%t recs=%v", exists, recs)
	}
	if _, exists = st.Lookup("nonexistent.com.", dnswire.TypeA); exists {
		t.Error("nonexistent name reported as existing")
	}
	// NODATA: name exists, type absent.
	recs, exists = st.Lookup("parked.com.", dnswire.TypeA)
	if !exists || len(recs) != 0 {
		t.Errorf("NODATA lookup: exists=%t recs=%v", exists, recs)
	}
}

func TestStoreCNAMEChase(t *testing.T) {
	st := testStore(t)
	recs, exists := st.Lookup("www.example.com.", dnswire.TypeA)
	if !exists || len(recs) != 2 {
		t.Fatalf("CNAME chase: exists=%t recs=%v", exists, recs)
	}
	if recs[0].Data.Type() != dnswire.TypeCNAME || recs[1].Data.Type() != dnswire.TypeA {
		t.Errorf("CNAME chase order: %v", recs)
	}
}

func TestStoreAuthoritative(t *testing.T) {
	st := testStore(t)
	if !st.Authoritative("anything.com.") {
		t.Error("not authoritative for .com name")
	}
	if st.Authoritative("example.net.") {
		t.Error("authoritative for .net name")
	}
}

func TestStoreRemove(t *testing.T) {
	st := testStore(t)
	st.Remove("example.com.", dnswire.TypeMX)
	if recs, _ := st.Lookup("example.com.", dnswire.TypeMX); len(recs) != 0 {
		t.Errorf("MX survived removal: %v", recs)
	}
	if recs, _ := st.Lookup("example.com.", dnswire.TypeA); len(recs) != 1 {
		t.Error("A removed collaterally")
	}
	st.Remove("example.com.", dnswire.TypeANY)
	if _, exists := st.Lookup("example.com.", dnswire.TypeA); exists {
		t.Error("name survived ANY removal")
	}
}

func TestServerUDPQuery(t *testing.T) {
	srv := startServer(t, testStore(t))
	c := dnsclient.New(srv.Addr())
	resp, err := c.Query("example.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.Authoritative {
		t.Error("AA bit not set")
	}
	a := resp.Answers[0].Data.(dnswire.A)
	if a.Addr != netip.MustParseAddr("127.0.0.1") {
		t.Errorf("A = %v", a.Addr)
	}
}

func TestServerNXDOMAIN(t *testing.T) {
	srv := startServer(t, testStore(t))
	c := dnsclient.New(srv.Addr())
	resp, err := c.Query("missing.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeNameError {
		t.Errorf("rcode = %v", resp.Header.RCode)
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Data.Type() != dnswire.TypeSOA {
		t.Errorf("authority = %v", resp.Authority)
	}
}

func TestServerRefusesOffZone(t *testing.T) {
	srv := startServer(t, testStore(t))
	c := dnsclient.New(srv.Addr())
	_, err := c.Query("example.org.", dnswire.TypeA)
	if err != dnsclient.ErrRefused {
		t.Errorf("err = %v, want ErrRefused", err)
	}
}

func TestServerTruncationAndTCPFallback(t *testing.T) {
	st := testStore(t)
	// Enough TXT records at one name to exceed 512 octets over UDP.
	for i := 0; i < 20; i++ {
		st.Add(dnswire.Record{
			Name: "big.com.", Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.TXT{Strings: []string{strings.Repeat("x", 80)}},
		})
	}
	srv := startServer(t, st)
	c := dnsclient.New(srv.Addr())
	resp, err := c.Query("big.com.", dnswire.TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	// The client must have fallen back to TCP and received the full set.
	if len(resp.Answers) != 20 {
		t.Errorf("answers = %d, want 20 (TC fallback failed?)", len(resp.Answers))
	}
	if resp.Header.Truncated {
		t.Error("final response still truncated")
	}
}

func TestServerConcurrentClients(t *testing.T) {
	srv := startServer(t, testStore(t))
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := dnsclient.New(srv.Addr())
			if _, err := c.Query("example.com.", dnswire.TypeNS); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if srv.Queries() < 50 {
		t.Errorf("query counter = %d", srv.Queries())
	}
}

func TestServerOnQueryHook(t *testing.T) {
	st := testStore(t)
	srv := NewServer(st)
	var mu sync.Mutex
	var seen []string
	srv.OnQuery = func(q dnswire.Question) {
		mu.Lock()
		seen = append(seen, q.Name)
		mu.Unlock()
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dnsclient.New(srv.Addr())
	if _, err := c.Query("example.com.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0] != "example.com." {
		t.Errorf("hook saw %v", seen)
	}
}

func TestClientHas(t *testing.T) {
	srv := startServer(t, testStore(t))
	c := dnsclient.New(srv.Addr())
	cases := []struct {
		name string
		typ  dnswire.Type
		want bool
	}{
		{"example.com.", dnswire.TypeNS, true},
		{"example.com.", dnswire.TypeMX, true},
		{"parked.com.", dnswire.TypeA, false},
		{"missing.com.", dnswire.TypeNS, false},
	}
	for _, tc := range cases {
		resp, err := c.Query(tc.name, tc.typ)
		if err != nil {
			t.Errorf("Query(%s, %s): %v", tc.name, tc.typ, err)
			continue
		}
		got := false
		for _, rr := range resp.Answers {
			got = got || rr.Data.Type() == tc.typ
		}
		if got != tc.want {
			t.Errorf("Query(%s, %s) answered %t, want %t", tc.name, tc.typ, got, tc.want)
		}
	}
}

func TestProbeContext(t *testing.T) {
	srv := startServer(t, testStore(t))
	c := dnsclient.New(srv.Addr())
	domains := []string{"example.com.", "parked.com.", "missing.com."}
	results := make([]dnsclient.ProbeResult, len(domains))
	for i, d := range domains {
		results[i] = c.ProbeContext(context.Background(), d)
	}
	if !results[0].HasNS || !results[0].HasA || !results[0].HasMX {
		t.Errorf("example.com = %+v", results[0])
	}
	if !results[1].HasNS || results[1].HasA {
		t.Errorf("parked.com = %+v", results[1])
	}
	if results[2].HasNS {
		t.Errorf("missing.com = %+v", results[2])
	}
}

func TestClientTimeoutAgainstDeadServer(t *testing.T) {
	c := dnsclient.New("127.0.0.1:1") // nothing listens there
	c.Timeout = 50 * 1e6              // 50ms
	c.Retries = 1
	if _, err := c.Query("example.com.", dnswire.TypeA); err == nil {
		t.Error("query against dead server succeeded")
	}
}

func TestServerDoubleStartAndClose(t *testing.T) {
	srv := startServer(t, testStore(t))
	if err := srv.ListenAndServe("127.0.0.1:0"); err == nil {
		t.Error("second ListenAndServe succeeded")
	}
	if err := srv.Close(); err != nil {
		t.Error(err)
	}
	if err := srv.Close(); err != nil {
		t.Error("second Close errored:", err)
	}
}
