package fabric

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httputil"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Wire headers of the forwarding protocol.
const (
	// ForwardedHeader is the single-hop loop fence: a member answering a
	// request that carries it always serves locally, never re-forwards —
	// so a stale or disagreeing member list can cost one extra hop's
	// latency but can never form a forwarding cycle. Owners also skip
	// per-tenant quota charging under the fence (the edge that accepted
	// the client request already charged it). Its value is the edge's
	// model fingerprint (appendFence); the owner serves only when its own
	// model under the label has that fingerprint. Any other value, such
	// as the bare "1", is a fence without a model check.
	ForwardedHeader = "X-Hetpart-Forwarded"
	// TierHeader is set by the owner on forwarded single requests so the
	// forwarding edge can count remote cache hits without parsing the
	// response body it relays verbatim.
	TierHeader = "X-Hetpart-Tier"
)

const (
	// maxForwardBody bounds a relayed response (matches the request-side
	// body bound in rpc).
	maxForwardBody = 64 << 20
	// maxHeaderBytes bounds a relayed response head; the owner's is about
	// 150 bytes.
	maxHeaderBytes = 64 << 10
	// maxIdlePerMember caps the keep-alive connections parked per member.
	maxIdlePerMember = 16
	// maxKeptRequest is the largest request buffer a parked connection
	// keeps; an outlier batch does not pin its buffer forever.
	maxKeptRequest = 64 << 10
	// fenceLen is the width of a fingerprint fence value.
	fenceLen = 16
)

var (
	bareFence = []byte("1")
	errClosed = errors.New("fabric: relay closed")
)

// appendFence appends the fence value carrying model fingerprint fp:
// exactly 16 lowercase hex digits, so no fingerprint reads as the bare
// fence.
func appendFence(dst []byte, fp uint64) []byte {
	const hex = "0123456789abcdef"
	for s := 60; s >= 0; s -= 4 {
		dst = append(dst, hex[fp>>s&15])
	}
	return dst
}

// FenceFingerprint parses a fence header value. ok is false for a fence
// without a fingerprint: any value other than 16 lowercase hex digits.
func FenceFingerprint(v string) (fp uint64, ok bool) {
	if len(v) != fenceLen {
		return 0, false
	}
	for i := 0; i < len(v); i++ {
		switch c := v[i]; {
		case '0' <= c && c <= '9':
			fp = fp<<4 | uint64(c-'0')
		case 'a' <= c && c <= 'f':
			fp = fp<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return fp, true
}

// peer is the relay's state for one member: where to dial, the request
// head up to the fence value, and a LIFO free list of idle keep-alive
// connections. The list is explicit rather than a sync.Pool, which would
// drop open connections at a GC without closing them.
type peer struct {
	addr string
	head []byte

	mu     sync.Mutex
	idle   []*conn
	closed bool
}

// conn is one keep-alive connection to a member with its read buffer and
// its request buffer.
type conn struct {
	nc  net.Conn
	br  *bufio.Reader
	req []byte
}

// reply is one parsed response.
type reply struct {
	status int
	hit    bool // X-Hetpart-Tier: hit
	keep   bool // the connection may carry another exchange
	body   []byte
}

func newPeer(base string) (*peer, error) {
	u, err := url.Parse(base)
	if err != nil || u.Scheme != "http" || u.Host == "" || u.RawQuery != "" || u.Fragment != "" {
		return nil, fmt.Errorf("fabric: member %q is not an http:// base URL", base)
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	head := "POST " + strings.TrimSuffix(u.EscapedPath(), "/") + "/v1/partition HTTP/1.1\r\n" +
		"Host: " + u.Host + "\r\n" +
		"Content-Type: application/json\r\n" +
		ForwardedHeader + ": "
	return &peer{addr: addr, head: []byte(head)}, nil
}

// get pops the most recently parked connection, or dials a new one.
func (p *peer) get(deadline time.Time) (c *conn, reused bool, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, errClosed
	}
	if n := len(p.idle); n > 0 {
		c = p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, true, nil
	}
	p.mu.Unlock()
	c, err = p.dial(deadline)
	return c, false, err
}

func (p *peer) dial(deadline time.Time) (*conn, error) {
	nc, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", p.addr)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReader(nc)}, nil
}

// put parks c for reuse, or closes it when the list is full or the
// relay is closed.
func (p *peer) put(c *conn) {
	if cap(c.req) > maxKeptRequest {
		c.req = nil
	}
	p.mu.Lock()
	if !p.closed && len(p.idle) < maxIdlePerMember {
		p.idle = append(p.idle, c)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	c.nc.Close()
}

func (p *peer) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, c := range idle {
		c.nc.Close()
	}
}

// relay runs one forward on the calling goroutine: one request write,
// one response read into dst, all under one deadline of the fabric
// timeout. A reused connection that fails before the first response byte
// (the owner restarted or dropped it while idle) is retried once on a
// fresh dial: /v1/partition is idempotent.
func (f *Fabric) relay(owner int, fence, body, dst []byte) (status int, hit bool, resp []byte, err error) {
	p := f.peers[owner]
	deadline := time.Now().Add(f.timeout)
	c, reused, err := p.get(deadline)
	if err != nil {
		return 0, false, dst, err
	}
	r, started, err := c.exchange(p.head, fence, body, dst, deadline)
	if err != nil && reused && !started && !isTimeout(err) {
		c.nc.Close()
		if c, err = p.dial(deadline); err != nil {
			return 0, false, dst, err
		}
		r, _, err = c.exchange(p.head, fence, body, dst, deadline)
	}
	if err != nil {
		c.nc.Close()
		return 0, false, r.body, err
	}
	if r.keep {
		p.put(c)
	} else {
		c.nc.Close()
	}
	return r.status, r.hit, r.body, nil
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// exchange writes one request and reads its response. started reports
// whether any response byte arrived.
func (c *conn) exchange(head, fence, body, dst []byte, deadline time.Time) (r reply, started bool, err error) {
	r.body = dst
	if err = c.nc.SetDeadline(deadline); err != nil {
		return r, false, err
	}
	b := append(c.req[:0], head...)
	b = append(b, fence...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	c.req = b
	if _, err = c.nc.Write(b); err != nil {
		return r, false, err
	}
	if _, err = c.br.Peek(1); err != nil {
		return r, false, err
	}
	r, err = readResponse(c.br, dst)
	if err == nil && c.br.Buffered() > 0 {
		r.keep = false // bytes past the response: never reuse the stream
	}
	return r, true, err
}

// readResponse parses the HTTP/1.1 response subset the owner speaks —
// a status line, Content-Length or chunked framing, Connection: close
// and X-Hetpart-Tier — and appends the body to dst. It is stricter than
// net/http, never looser: anything it refuses, the edge computes
// locally.
func readResponse(br *bufio.Reader, dst []byte) (r reply, err error) {
	r.body = dst
	line, err := readLine(br)
	if err != nil {
		return r, err
	}
	if len(line) < 12 || string(line[:9]) != "HTTP/1.1 " || (len(line) > 12 && line[12] != ' ') {
		return r, fmt.Errorf("fabric: malformed status line %q", line)
	}
	for _, c := range line[9:12] {
		if c < '0' || c > '9' {
			return r, fmt.Errorf("fabric: malformed status line %q", line)
		}
		r.status = r.status*10 + int(c-'0')
	}
	if r.status < 200 {
		return r, fmt.Errorf("fabric: unexpected status %d", r.status)
	}

	r.keep = true
	length, chunked, sawTier := int64(-1), false, false
	for total := 0; ; {
		line, err := readLine(br)
		if err != nil {
			return r, err
		}
		if len(line) == 0 {
			break
		}
		if total += len(line); total > maxHeaderBytes {
			return r, errors.New("fabric: response head too large")
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok || !validName(name) {
			return r, fmt.Errorf("fabric: malformed header line %q", line)
		}
		value = bytes.Trim(value, " \t")
		for _, c := range value {
			if c < ' ' && c != '\t' || c == 0x7f {
				return r, fmt.Errorf("fabric: malformed header line %q", line)
			}
		}
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length >= 0 {
				return r, errors.New("fabric: repeated Content-Length")
			}
			if length, err = parseLength(value); err != nil {
				return r, err
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			if chunked || !bytes.EqualFold(value, []byte("chunked")) {
				return r, fmt.Errorf("fabric: unsupported Transfer-Encoding %q", value)
			}
			chunked = true
		case bytes.EqualFold(name, []byte("Connection")):
			if hasToken(value, "close") {
				r.keep = false
			}
		case bytes.EqualFold(name, []byte(TierHeader)):
			if !sawTier {
				sawTier, r.hit = true, string(value) == "hit"
			}
		case bytes.EqualFold(name, []byte("Trailer")):
			return r, errors.New("fabric: trailers not supported")
		}
	}

	switch {
	case r.status == 204 || r.status == 304:
		r.keep = false // bodiless by definition; a stray body stays unread
	case chunked:
		r.body, err = readChunked(br, dst)
	case length >= 0:
		r.body, err = readLength(br, dst, length)
	default:
		err = errors.New("fabric: response has neither Content-Length nor chunked framing")
	}
	return r, err
}

// readLine reads one CRLF- or LF-terminated line; the line must fit the
// reader's buffer.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// validName reports whether name is a non-empty RFC 7230 token.
func validName(name []byte) bool {
	if len(name) == 0 {
		return false
	}
	for _, c := range name {
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0:
		default:
			return false
		}
	}
	return true
}

func parseLength(v []byte) (int64, error) {
	if len(v) == 0 {
		return 0, errors.New("fabric: empty Content-Length")
	}
	var n int64
	for _, c := range v {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("fabric: bad Content-Length %q", v)
		}
		if n = n*10 + int64(c-'0'); n > maxForwardBody {
			return 0, fmt.Errorf("fabric: response exceeds %d bytes", maxForwardBody)
		}
	}
	return n, nil
}

// hasToken reports whether the comma-separated header value v lists tok
// (case-insensitively).
func hasToken(v []byte, tok string) bool {
	for len(v) > 0 {
		var t []byte
		t, v, _ = bytes.Cut(v, []byte(","))
		if bytes.EqualFold(bytes.Trim(t, " \t"), []byte(tok)) {
			return true
		}
	}
	return false
}

// readLength reads an n-byte body. The buffer grows as bytes arrive, not
// by the declared length up front, so a lying Content-Length costs no
// more memory than the bytes actually sent.
func readLength(br *bufio.Reader, dst []byte, n int64) ([]byte, error) {
	start := len(dst)
	end := start + int(n)
	for len(dst) < end {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, min(end-len(dst), 64<<10))
		}
		m, err := br.Read(dst[len(dst):min(cap(dst), end)])
		dst = dst[:len(dst)+m]
		if err != nil && len(dst) < end {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return dst, err
		}
	}
	return dst, nil
}

// readChunked decodes a chunked body (the owner streams batch responses
// past 64 KiB this way). The owner sends no trailers, so the terminating
// CRLF must follow the last chunk directly.
func readChunked(br *bufio.Reader, dst []byte) ([]byte, error) {
	start := len(dst)
	cr := httputil.NewChunkedReader(br)
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, 4096)
		}
		n, err := cr.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if len(dst)-start > maxForwardBody {
			return dst, fmt.Errorf("fabric: response exceeds %d bytes", maxForwardBody)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return dst, err
		}
	}
	if end, err := br.Peek(2); err != nil || end[0] != '\r' || end[1] != '\n' {
		return dst, errors.New("fabric: malformed chunked body end")
	}
	br.Discard(2)
	return dst, nil
}
