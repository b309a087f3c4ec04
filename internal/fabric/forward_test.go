package fabric

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeOwner is a scripted member over real loopback TCP: it reads each
// request with net/http's parser and answers with whatever respond
// returns, hanging up afterwards when asked to.
type fakeOwner struct {
	ln      net.Listener
	url     string
	accepts atomic.Int32
	respond func(req *http.Request, body []byte) (resp []byte, hangUp bool)
	wg      sync.WaitGroup
}

func startFakeOwner(t testing.TB, respond func(req *http.Request, body []byte) ([]byte, bool)) *fakeOwner {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o := &fakeOwner{ln: ln, url: "http://" + ln.Addr().String(), respond: respond}
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			o.accepts.Add(1)
			o.wg.Add(1)
			go func() {
				defer o.wg.Done()
				o.serve(nc)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		o.wg.Wait()
	})
	return o
}

func (o *fakeOwner) serve(nc net.Conn) {
	defer nc.Close()
	br := bufio.NewReader(nc)
	for {
		req, err := http.ReadRequest(br)
		if err != nil {
			return
		}
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return
		}
		resp, hangUp := o.respond(req, body)
		if _, err := nc.Write(resp); err != nil || hangUp {
			return
		}
	}
}

// relayTo builds a fabric whose only peer is base and returns it with
// base's member index.
func relayTo(t testing.TB, base string, timeout time.Duration) (*Fabric, int) {
	t.Helper()
	f, err := New("http://self.invalid", []string{base}, timeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	for i, m := range f.Members() {
		if m == base {
			return f, i
		}
	}
	t.Fatalf("%s not a member", base)
	return nil, 0
}

func okResponse(body string, extra string) []byte {
	return []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n%sContent-Length: %d\r\n\r\n%s", extra, len(body), body))
}

func TestFenceRoundTrip(t *testing.T) {
	for _, fp := range []uint64{0, 1, 0xdeadbeef, 1<<64 - 1} {
		v := appendFence(nil, fp)
		if len(v) != fenceLen {
			t.Fatalf("fence %q for %#x: want %d digits", v, fp, fenceLen)
		}
		got, ok := FenceFingerprint(string(v))
		if !ok || got != fp {
			t.Fatalf("FenceFingerprint(%q) = %#x, %v; want %#x", v, got, ok, fp)
		}
	}
	for _, v := range []string{"1", "", "00000000000000001", "000000000000000G", "ABCDEF0123456789"} {
		if _, ok := FenceFingerprint(v); ok {
			t.Fatalf("FenceFingerprint(%q) accepted a bare fence", v)
		}
	}
}

// The relay's request: one POST to /v1/partition with the fence carrying
// the fingerprint, the body byte-exact, and keep-alive reuse of one
// connection across forwards.
func TestRelayRequestAndReuse(t *testing.T) {
	var gotFence, gotType, gotPath string
	var gotBody []byte
	owner := startFakeOwner(t, func(req *http.Request, body []byte) ([]byte, bool) {
		gotFence, gotType, gotPath = req.Header.Get(ForwardedHeader), req.Header.Get("Content-Type"), req.URL.Path
		gotBody = body
		return okResponse(`{"ok":true}`+"\n", "X-Hetpart-Tier: hit\r\n"), false
	})
	f, idx := relayTo(t, owner.url, time.Second)
	body := []byte(`{"model":"m","n":12345}`)
	for i := 0; i < 3; i++ {
		status, hit, resp, err := f.ForwardModel(idx, 0xfeed, body, nil)
		if err != nil || status != 200 || !hit || string(resp) != `{"ok":true}`+"\n" {
			t.Fatalf("forward %d: %d %v %q %v", i, status, hit, resp, err)
		}
	}
	if gotFence != "000000000000feed" || gotType != "application/json" || gotPath != "/v1/partition" || !bytes.Equal(gotBody, body) {
		t.Fatalf("owner saw fence %q type %q path %q body %q", gotFence, gotType, gotPath, gotBody)
	}
	if n := owner.accepts.Load(); n != 1 {
		t.Fatalf("%d connections for 3 keep-alive forwards, want 1", n)
	}
	// Forward is the same relay under the bare fence.
	if status, _, _, err := f.Forward(idx, body); err != nil || status != 200 || gotFence != "1" {
		t.Fatalf("Forward: %d %v, fence %q", status, err, gotFence)
	}
}

func TestRelayTable(t *testing.T) {
	big := strings.Repeat(`{"alloc":[1,2,3],"slope":0.5},`, 4000) // > 64 KiB
	cases := []struct {
		name    string
		respond func(req *http.Request, body []byte) ([]byte, bool)
		timeout time.Duration
		check   func(t *testing.T, f *Fabric, idx int, o *fakeOwner)
	}{
		{
			name: "connection close is not reused",
			respond: func(*http.Request, []byte) ([]byte, bool) {
				return okResponse("{}", "Connection: close\r\n"), true
			},
			check: func(t *testing.T, f *Fabric, idx int, o *fakeOwner) {
				for i := 0; i < 2; i++ {
					if status, _, _, err := f.Forward(idx, []byte("{}")); err != nil || status != 200 {
						t.Fatalf("forward %d: %d %v", i, status, err)
					}
				}
				if n := o.accepts.Load(); n != 2 {
					t.Fatalf("%d connections, want 2: a Connection: close stream was reused", n)
				}
			},
		},
		{
			name: "stalled owner times out",
			respond: func(*http.Request, []byte) ([]byte, bool) {
				time.Sleep(time.Second)
				return nil, true
			},
			timeout: 100 * time.Millisecond,
			check: func(t *testing.T, f *Fabric, idx int, o *fakeOwner) {
				start := time.Now()
				_, _, _, err := f.Forward(idx, []byte("{}"))
				if took := time.Since(start); err == nil || !isTimeout(err) || took < 100*time.Millisecond || took > 900*time.Millisecond {
					t.Fatalf("stalled owner: err %v after %v, want a timeout at 100ms", err, took)
				}
			},
		},
		{
			name: "oversized response rejected",
			respond: func(*http.Request, []byte) ([]byte, bool) {
				return []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n{}", maxForwardBody+1)), true
			},
			check: func(t *testing.T, f *Fabric, idx int, o *fakeOwner) {
				if _, _, _, err := f.Forward(idx, []byte("{}")); err == nil || !strings.Contains(err.Error(), "exceeds") {
					t.Fatalf("oversized response: err %v", err)
				}
			},
		},
		{
			name: "non-http member answer is an error",
			respond: func(*http.Request, []byte) ([]byte, bool) {
				return []byte("SSH-2.0-OpenSSH\r\n"), true
			},
			check: func(t *testing.T, f *Fabric, idx int, o *fakeOwner) {
				if _, _, _, err := f.Forward(idx, []byte("{}")); err == nil {
					t.Fatal("garbage accepted as a response")
				}
			},
		},
		{
			name: "chunked batch over 64 KiB byte-exact",
			respond: func(*http.Request, []byte) ([]byte, bool) {
				var b bytes.Buffer
				b.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n")
				for rest := big; len(rest) > 0; {
					n := min(len(rest), 7001)
					fmt.Fprintf(&b, "%x;ext=1\r\n%s\r\n", n, rest[:n])
					rest = rest[n:]
				}
				b.WriteString("0\r\n\r\n")
				return b.Bytes(), false
			},
			check: func(t *testing.T, f *Fabric, idx int, o *fakeOwner) {
				for i := 0; i < 2; i++ {
					status, _, resp, err := f.ForwardModel(idx, 7, []byte("{}"), make([]byte, 0, 16))
					if err != nil || status != 200 || string(resp) != big {
						t.Fatalf("chunked forward %d: %d %v, %d bytes (want %d)", i, status, err, len(resp), len(big))
					}
				}
				if n := o.accepts.Load(); n != 1 {
					t.Fatalf("%d connections: a cleanly ended chunked stream must be reused", n)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := startFakeOwner(t, c.respond)
			timeout := c.timeout
			if timeout == 0 {
				timeout = 2 * time.Second
			}
			f, idx := relayTo(t, o.url, timeout)
			c.check(t, f, idx, o)
		})
	}
}

// An owner restart leaves the relay holding a dead idle connection: the
// next forward must retry once on a fresh dial and succeed, never fail.
func TestRelayOwnerRestartRetriesStaleConn(t *testing.T) {
	var served atomic.Int32
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Header().Set(TierHeader, "miss")
		io.WriteString(w, `{"ok":1}`)
	})
	srv := httptest.NewServer(handler)
	addr := srv.Listener.Addr().String()
	f, idx := relayTo(t, srv.URL, 2*time.Second)
	if status, _, _, err := f.Forward(idx, []byte("{}")); err != nil || status != 200 {
		t.Fatalf("first forward: %d %v", status, err)
	}
	srv.Close() // closes the relay's parked connection from the owner side

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	srv = httptest.NewUnstartedServer(handler)
	srv.Listener.Close()
	srv.Listener = ln
	srv.Start()
	defer srv.Close()

	status, hit, resp, err := f.Forward(idx, []byte("{}"))
	if err != nil || status != 200 || hit || string(resp) != `{"ok":1}` {
		t.Fatalf("forward after restart: %d %v %q %v", status, hit, resp, err)
	}
	if n := served.Load(); n != 2 {
		t.Fatalf("owner served %d requests, want 2", n)
	}
}

// Close closes the parked connections (the owner sees EOF) and refuses
// later forwards.
func TestRelayClose(t *testing.T) {
	closed := make(chan struct{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		req, err := http.ReadRequest(br)
		if err != nil {
			return
		}
		io.Copy(io.Discard, req.Body)
		nc.Write(okResponse("{}", ""))
		if _, err := br.ReadByte(); err == io.EOF {
			close(closed)
		}
	}()
	f, idx := relayTo(t, "http://"+ln.Addr().String(), 2*time.Second)
	if status, _, _, err := f.Forward(idx, []byte("{}")); err != nil || status != 200 {
		t.Fatalf("forward: %d %v", status, err)
	}
	f.Close()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("owner never saw the parked connection close")
	}
	if _, _, _, err := f.Forward(idx, []byte("{}")); !errors.Is(err, errClosed) {
		t.Fatalf("forward after Close: %v, want errClosed", err)
	}
}

func TestNewRejectsNonHTTPMember(t *testing.T) {
	for _, m := range []string{"https://10.0.0.2:7411", "10.0.0.2:7411", "http://", "http://h/?q=1"} {
		if _, err := New("http://a", []string{m}, 0); err == nil {
			t.Errorf("member %q accepted", m)
		}
	}
}

// FuzzForwardResponse is a differential check of the relay's response
// parser against net/http: a fake owner writes the fuzzed bytes and hangs
// up. Whenever the relay accepts a response, net/http must accept it too,
// with the same status, tier and body. The relay may refuse more (the
// edge then computes locally), and must never panic.
func FuzzForwardResponse(f *testing.F) {
	f.Add(okResponse(`{"alloc":[1,2]}`, "X-Hetpart-Tier: hit\r\n"))
	var cur atomic.Pointer[[]byte]
	owner := startFakeOwner(f, func(*http.Request, []byte) ([]byte, bool) {
		return *cur.Load(), true
	})
	f.Fuzz(func(t *testing.T, raw []byte) {
		owned := bytes.Clone(raw) // the engine reuses raw once the target returns
		cur.Store(&owned)
		fab, err := New("http://self.invalid", []string{owner.url}, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer fab.Close()
		idx := 0
		if fab.URL(0) != owner.url {
			idx = 1
		}
		status, hit, body, err := fab.Forward(idx, []byte("{}"))

		res, refErr := http.ReadResponse(bufio.NewReader(bytes.NewReader(raw)), &http.Request{Method: http.MethodPost})
		var refBody []byte
		if refErr == nil {
			refBody, refErr = io.ReadAll(res.Body)
		}
		if err != nil {
			return // stricter than net/http is allowed
		}
		if refErr != nil {
			t.Fatalf("relay accepted what net/http rejects (%v): %q", refErr, raw)
		}
		if status != res.StatusCode || hit != (res.Header.Get(TierHeader) == "hit") || !bytes.Equal(body, refBody) {
			t.Fatalf("relay (%d, hit=%v, %q) != net/http (%d, %q, %q) for %q",
				status, hit, body, res.StatusCode, res.Header.Get(TierHeader), refBody, raw)
		}
	})
}
