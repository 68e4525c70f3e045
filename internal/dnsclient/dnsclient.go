// Package dnsclient implements a transport-pluggable stub resolver
// for probing the simulated (or any) authoritative DNS server at
// survey scale — the paper's Section 6.1 NS/A/MX sweep over every
// detected homograph. Four transports share one probing engine, and
// all of them multiplex queries over persistent pooled connections
// instead of paying a dial (and, encrypted, a handshake) per query:
//
//   - udp: a small pool of long-lived connected sockets shared by all
//     workers, responses demultiplexed to waiters by query ID, with
//     the standard TCP retry on truncated answers;
//   - tcp: a keep-alive pool speaking RFC 7766-style pipelining with
//     out-of-order response matching;
//   - dot: DNS over TLS (RFC 7858) on the pooled stream path, with a
//     shared session cache so resumed handshakes amortize to nothing;
//   - doh: DNS wire format over HTTP/2 POST (RFC 8484) with one
//     multiplexed http.Client per server.
//
// ProbeContext issues one domain's three questions concurrently over
// the shared connections; callers that probe many domains (the triage
// pipeline) bring their own bounded worker pool.
package dnsclient

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dnswire"
	"repro/internal/resilience"
)

// Client errors.
var (
	ErrTimeout      = errors.New("dnsclient: query timed out")
	ErrIDMismatch   = errors.New("dnsclient: response ID mismatch")
	ErrServerFailed = errors.New("dnsclient: SERVFAIL")
	ErrRefused      = errors.New("dnsclient: REFUSED")
	ErrClosed       = errors.New("dnsclient: client closed")
)

// Transport selects the wire protocol a Client probes over.
type Transport string

// Supported transports.
const (
	TransportUDP Transport = "udp"
	TransportTCP Transport = "tcp"
	TransportDoT Transport = "dot"
	TransportDoH Transport = "doh"
)

// Transports lists every supported transport, in the order the docs
// and benchmarks present them.
func Transports() []Transport {
	return []Transport{TransportUDP, TransportTCP, TransportDoT, TransportDoH}
}

// ParseTransport maps a CLI or API spelling onto a Transport. The
// empty string means udp, the classic default.
func ParseTransport(s string) (Transport, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "udp":
		return TransportUDP, nil
	case "tcp":
		return TransportTCP, nil
	case "dot", "tls", "dns-over-tls":
		return TransportDoT, nil
	case "doh", "https", "dns-over-https":
		return TransportDoH, nil
	}
	return "", fmt.Errorf("dnsclient: unknown transport %q (want udp, tcp, dot or doh)", s)
}

// Client is a stub resolver pointed at one server address. Its pools
// are created lazily on first use; call Close when done to tear down
// the pooled connections and their reader goroutines.
type Client struct {
	// Server is the "host:port" of the DNS server. For doh it is the
	// HTTPS endpoint: queries POST to https://Server/dns-query.
	Server string
	// Transport selects the wire protocol: udp (the default), tcp,
	// dot or doh.
	Transport Transport
	// Timeout bounds each attempt. Zero means 2 seconds.
	Timeout time.Duration
	// Retries is the number of additional attempts after the first
	// fails (New sets 2; the zero value means none).
	Retries int
	// Backoff spaces the retransmits. A retry fires because the
	// server (or path) dropped the first datagram — resending in the
	// same microsecond just lands in the same congested queue, so
	// attempts back off exponentially with equal jitter: randomized to
	// decorrelate a prober fleet, but never below half the deterministic
	// delay, so attempts are provably spaced. The zero value means
	// 100ms base, 2s cap.
	Backoff resilience.Backoff
	// PoolSize is how many persistent connections each transport's
	// pool keeps to the server. Zero means 4.
	PoolSize int
	// TLSConfig overrides the dot/doh TLS client configuration. Nil
	// accepts any certificate — the prober talks to survey targets and
	// simulators, not parties it can pre-trust, the same stance the
	// web-survey crawler takes. DoT connections share a session cache
	// unless the override carries its own.
	TLSConfig *tls.Config

	nextID atomic.Uint32

	mu            sync.Mutex
	closed        bool
	udp, tcp, dot *pool
	doh           *http.Client
	dohURL        string
	dohU          *url.URL
	sessions      tls.ClientSessionCache
}

// New returns a client for the given server address.
func New(server string) *Client {
	c := &Client{Server: server, Timeout: 2 * time.Second, Retries: 2, Backoff: defaultBackoff()}
	c.nextID.Store(1)
	return c
}

func defaultBackoff() resilience.Backoff {
	return resilience.Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second, Jitter: resilience.JitterEqual}
}

func (c *Client) timeout() time.Duration {
	if c.Timeout == 0 {
		return 2 * time.Second
	}
	return c.Timeout
}

func (c *Client) poolSize() int {
	if c.PoolSize <= 0 {
		return 4
	}
	return c.PoolSize
}

func (c *Client) transport() (Transport, error) {
	switch c.Transport {
	case "", TransportUDP:
		return TransportUDP, nil
	case TransportTCP, TransportDoT, TransportDoH:
		return c.Transport, nil
	}
	return "", fmt.Errorf("dnsclient: unknown transport %q (want udp, tcp, dot or doh)", c.Transport)
}

// Close tears down every pooled connection and waits for their reader
// goroutines to exit; in-flight queries fail cleanly with a
// connection-failed error. The client is unusable afterwards. Safe to
// call more than once.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	pools := []*pool{c.udp, c.tcp, c.dot}
	doh := c.doh
	c.mu.Unlock()
	for _, p := range pools {
		if p != nil {
			p.close()
		}
	}
	if doh != nil {
		doh.CloseIdleConnections()
	}
	return nil
}

// Query sends one question and returns the server's response message.
// QueryContext is the cancellable form.
func (c *Client) Query(name string, typ dnswire.Type) (*dnswire.Message, error) {
	return c.QueryContext(context.Background(), name, typ)
}

// QueryContext sends one question over the configured transport and
// returns the server's response message. Cancelling ctx is honored
// between and during attempts — a cancelled query stops
// retransmitting, stops backing off, and releases its in-flight slot
// immediately. On UDP a truncated response triggers the standard TCP
// retry over the pooled stream path.
func (c *Client) QueryContext(ctx context.Context, name string, typ dnswire.Type) (*dnswire.Message, error) {
	tr, err := c.transport()
	if err != nil {
		return nil, err
	}
	// Pack once with a placeholder ID and the RFC 1035 §4.2.2 length
	// prefix; each attempt patches its freshly allocated ID into bytes
	// 2–3 and stream transports send the whole frame.
	query := dnswire.NewQuery(0, name, typ)
	framed, err := query.Pack(make([]byte, 2, 128))
	if err != nil {
		return nil, fmt.Errorf("dnsclient: packing query for %q: %w", name, err)
	}
	wireLen := len(framed) - 2
	framed[0], framed[1] = byte(wireLen>>8), byte(wireLen)

	backoff := c.Backoff
	if backoff.Base == 0 {
		backoff = defaultBackoff()
	}
	attempts := c.Retries + 1
	var lastErr error = ErrTimeout
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if err := backoff.Sleep(ctx, i-1); err != nil {
				return nil, err
			}
		}
		resp, err := c.exchange(ctx, tr, framed)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			continue
		}
		if tr == TransportUDP && resp.Header.Truncated {
			resp, err = c.exchange(ctx, TransportTCP, framed)
			if err != nil {
				return nil, fmt.Errorf("dnsclient: %q %s tcp fallback: %w", name, typ, err)
			}
		}
		return checkRCode(resp)
	}
	return nil, fmt.Errorf("dnsclient: %q %s after %d attempts: %w", name, typ, attempts, lastErr)
}

// exchange performs one attempt on one transport: pick a pooled
// connection, allocate a collision-free ID, patch it into the packed
// query, write, and wait for the demultiplexed response, the
// per-attempt timeout, or cancellation.
func (c *Client) exchange(ctx context.Context, tr Transport, framed []byte) (*dnswire.Message, error) {
	if tr == TransportDoH {
		return c.dohExchange(ctx, framed[2:])
	}
	p, err := c.poolFor(tr)
	if err != nil {
		return nil, err
	}
	pc, err := p.conn()
	if err != nil {
		return nil, err
	}
	id, ch, err := pc.register(&c.nextID)
	if err != nil {
		return nil, err
	}
	framed[2], framed[3] = byte(id>>8), byte(id)
	out := framed
	if !pc.framed {
		out = framed[2:]
	}
	if err := pc.write(out); err != nil {
		pc.deregister(id)
		pc.fail(err)
		return nil, fmt.Errorf("dnsclient: %s write: %w", tr, err)
	}
	timer := time.NewTimer(c.timeout())
	defer timer.Stop()
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, pc.lastErr()
		}
		return resp, nil
	case <-timer.C:
		pc.deregister(id)
		return nil, ErrTimeout
	case <-ctx.Done():
		pc.deregister(id)
		return nil, ctx.Err()
	}
}

// poolFor lazily builds the pool for a connection-oriented transport.
func (c *Client) poolFor(tr Transport) (*pool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	switch tr {
	case TransportUDP:
		if c.udp == nil {
			c.udp = c.newPool("udp", nil)
		}
		return c.udp, nil
	case TransportTCP:
		if c.tcp == nil {
			c.tcp = c.newPool("tcp", nil)
		}
		return c.tcp, nil
	case TransportDoT:
		if c.dot == nil {
			c.dot = c.newPool("tcp", c.tlsConfigLocked(true))
		}
		return c.dot, nil
	}
	return nil, fmt.Errorf("dnsclient: no pool for transport %q", tr)
}

func (c *Client) newPool(network string, tlsCfg *tls.Config) *pool {
	server, timeout := c.Server, c.timeout()
	dial := func() (net.Conn, error) {
		nc, err := net.DialTimeout(network, server, timeout)
		if err != nil {
			return nil, fmt.Errorf("dnsclient: dial %s: %w", network, err)
		}
		if tlsCfg == nil {
			return nc, nil
		}
		tc := tls.Client(nc, tlsCfg)
		tc.SetDeadline(time.Now().Add(timeout))
		if err := tc.Handshake(); err != nil {
			nc.Close()
			return nil, fmt.Errorf("dnsclient: dot handshake: %w", err)
		}
		tc.SetDeadline(time.Time{})
		return tc, nil
	}
	return &pool{dial: dial, framed: network == "tcp", size: c.poolSize(), wtimeout: timeout}
}

// tlsConfigLocked builds the TLS client config for dot or doh. DoT
// advertises its RFC 7858 ALPN token and shares one session cache
// across the pool, so re-dials resume instead of re-handshaking.
func (c *Client) tlsConfigLocked(dot bool) *tls.Config {
	cfg := c.TLSConfig
	if cfg == nil {
		cfg = &tls.Config{InsecureSkipVerify: true}
	}
	cfg = cfg.Clone()
	if dot {
		cfg.NextProtos = []string{"dot"}
		if cfg.ClientSessionCache == nil {
			if c.sessions == nil {
				c.sessions = tls.NewLRUClientSessionCache(16)
			}
			cfg.ClientSessionCache = c.sessions
		}
	}
	return cfg
}

func checkRCode(resp *dnswire.Message) (*dnswire.Message, error) {
	switch resp.Header.RCode {
	case dnswire.RCodeServerFailure:
		return resp, ErrServerFailed
	case dnswire.RCodeRefused:
		return resp, ErrRefused
	default:
		return resp, nil
	}
}

func hasAnswer(resp *dnswire.Message, typ dnswire.Type) bool {
	for _, rr := range resp.Answers {
		if rr.Data.Type() == typ {
			return true
		}
	}
	return false
}

// ProbeResult is the outcome of probing one domain.
type ProbeResult struct {
	Name  string
	HasNS bool
	HasA  bool
	HasMX bool
	// NSHosts are the delegation targets (trailing root dot stripped)
	// from the NS answer — the input to parked-by-delegation
	// classification, captured here so downstream stages need no second
	// NS round trip.
	NSHosts []string
	Err     error
}

// ProbeContext probes one domain's NS, A and MX concurrently — three
// questions pipelined over the pooled connections instead of three
// sequential dial-query-close round trips. The result keeps the
// staged semantics of the sequential prober: a domain without NS
// records reports no A/MX (the paper's §6.1 funnel), and errors
// surface with NS → A → MX precedence.
func (c *Client) ProbeContext(ctx context.Context, domain string) ProbeResult {
	res := ProbeResult{Name: domain}
	var (
		wg                    sync.WaitGroup
		nsResp, aResp, mxResp *dnswire.Message
		nsErr, aErr, mxErr    error
	)
	wg.Add(3)
	go func() { defer wg.Done(); nsResp, nsErr = c.QueryContext(ctx, domain, dnswire.TypeNS) }()
	go func() { defer wg.Done(); aResp, aErr = c.QueryContext(ctx, domain, dnswire.TypeA) }()
	go func() { defer wg.Done(); mxResp, mxErr = c.QueryContext(ctx, domain, dnswire.TypeMX) }()
	wg.Wait()
	if nsErr != nil {
		res.Err = nsErr
		return res
	}
	for _, rr := range nsResp.Answers {
		if ns, ok := rr.Data.(dnswire.NS); ok {
			res.NSHosts = append(res.NSHosts, strings.TrimSuffix(ns.Host, "."))
		}
	}
	res.HasNS = len(res.NSHosts) > 0
	if !res.HasNS {
		return res
	}
	if aErr != nil {
		res.Err = aErr
		return res
	}
	res.HasA = hasAnswer(aResp, dnswire.TypeA)
	if mxErr != nil {
		res.Err = mxErr
		return res
	}
	res.HasMX = hasAnswer(mxResp, dnswire.TypeMX)
	return res
}
