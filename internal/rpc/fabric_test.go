package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"heteropart/internal/fabric"
)

// startFabricCluster boots k independent daemons (own store each, no
// replication) and joins them into one fabric, the way a production
// fleet would come up with -fabric-self + -peers.
func startFabricCluster(t *testing.T, k int, cfg Config) ([]*Daemon, []string) {
	t.Helper()
	daemons := make([]*Daemon, k)
	bases := make([]string, k)
	for i := 0; i < k; i++ {
		c := cfg
		c.Dir = t.TempDir()
		daemons[i], bases[i] = startDaemon(t, c)
	}
	for i, d := range daemons {
		var peers []string
		for j, b := range bases {
			if j != i {
				peers = append(peers, b)
			}
		}
		d.SetPeers(peers)
		if err := d.EnableFabric(bases[i]); err != nil {
			t.Fatal(err)
		}
	}
	return daemons, bases
}

// postRaw posts a body and returns the raw response bytes — the
// bit-identity checks compare bytes, not parsed values.
func postRawHdr(t *testing.T, url string, body []byte, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

// ownedN scans for a problem size whose plan family the fabric assigns to
// the member at wantBase.
func ownedN(t *testing.T, f *fabric.Fabric, model string, wantBase string, from int64) int64 {
	t.Helper()
	tenant, family := fabric.TenantSpan([]byte(model))
	for n := from; n < from+1_000_000; n += 1000 {
		if f.URL(f.OwnerIndex(tenant, family, n)) == wantBase {
			return n
		}
	}
	t.Fatalf("no n in [%d, %d) owned by %s", from, from+1_000_000, wantBase)
	return 0
}

// warmHit posts the body until the daemon answers it from the warm cache
// (the doorkeeper admits on the second miss), returning the warm bytes.
func warmHit(t *testing.T, base string, body []byte) []byte {
	t.Helper()
	for i := 0; i < 6; i++ {
		code, data, _ := postRawHdr(t, base+"/v1/partition", body, nil)
		if code != 200 {
			t.Fatalf("warming %s with %s: HTTP %d: %s", base, body, code, data)
		}
		if bytes.Contains(data, []byte(`"tier":"hit"`)) {
			return data
		}
	}
	t.Fatalf("no warm hit on %s after 6 asks of %s", base, body)
	return nil
}

// TestFabricForwardBitIdentity is the fabric's core contract: a request
// served through a forwarding edge returns byte-for-byte what the owner
// serves locally — the edge relays, it never re-encodes.
func TestFabricForwardBitIdentity(t *testing.T) {
	doc := testClusterDoc(t, 7, 11)
	daemons, bases := startFabricCluster(t, 3, Config{})
	for _, b := range bases {
		if code := postJSON(t, b+"/v1/models?label=lab", doc, nil); code != 200 {
			t.Fatalf("upload to %s: HTTP %d", b, code)
		}
	}
	// An n owned by daemon 0, asked through daemon 1.
	owner, edge := 0, 1
	n := ownedN(t, daemons[edge].Fabric(), "lab", bases[owner], 300_000)
	body := []byte(fmt.Sprintf(`{"model":"lab","n":%d}`, n))

	local := warmHit(t, bases[owner], body)

	code, viaEdge, hdr := postRawHdr(t, bases[edge]+"/v1/partition", body, nil)
	if code != 200 {
		t.Fatalf("forwarded ask: HTTP %d: %s", code, viaEdge)
	}
	if !bytes.Equal(viaEdge, local) {
		t.Fatalf("forwarded response differs from owner-local:\nowner: %s\nedge:  %s", local, viaEdge)
	}
	if got := hdr.Get("Content-Type"); got != "application/json" {
		t.Fatalf("forwarded Content-Type %q", got)
	}
	ef := daemons[edge].Fabric()
	if ef.Forwarded.Load() == 0 {
		t.Fatal("edge did not count the forward")
	}
	if ef.RemoteHits.Load() == 0 {
		t.Fatal("edge did not count the remote warm hit")
	}
	if daemons[owner].Fabric().ForwardedIn.Load() == 0 {
		t.Fatal("owner did not count the inbound forward")
	}
	// The tenant ledger on the edge attributes the forward to default.
	var stats statsReply
	if code := getJSON(t, bases[edge]+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: HTTP %d", code)
	}
	ten, ok := stats.Tenants["default"]
	if !ok || ten.Forwarded == 0 || ten.RemoteHits == 0 {
		t.Fatalf("edge tenant stats: %+v", stats.Tenants)
	}

	// A batch whose elements all live in one remote family forwards whole
	// and stays bit-identical too.
	batch := []byte(fmt.Sprintf(`{"requests":[{"model":"lab","n":%d},{"model":"lab","n":%d}]}`, n, n))
	localBatch := warmHit(t, bases[owner], batch)
	code, edgeBatch, _ := postRawHdr(t, bases[edge]+"/v1/partition", batch, nil)
	if code != 200 || !bytes.Equal(edgeBatch, localBatch) {
		t.Fatalf("forwarded batch differs (HTTP %d):\nowner: %s\nedge:  %s", code, localBatch, edgeBatch)
	}
}

// TestFabricOwnerDownFallback: when the owner dies, edges must serve its
// families locally — zero dropped requests, warmth is the only casualty.
func TestFabricOwnerDownFallback(t *testing.T) {
	doc := testClusterDoc(t, 6, 5)
	daemons, bases := startFabricCluster(t, 3, Config{FabricTimeout: 500 * time.Millisecond})
	for _, b := range bases {
		if code := postJSON(t, b+"/v1/models?label=lab", doc, nil); code != 200 {
			t.Fatalf("upload to %s: HTTP %d", b, code)
		}
	}
	owner, edge := 2, 0
	n := ownedN(t, daemons[edge].Fabric(), "lab", bases[owner], 200_000)
	body := []byte(fmt.Sprintf(`{"model":"lab","n":%d}`, n))

	// Healthy path forwards.
	if code, _, _ := postRawHdr(t, bases[edge]+"/v1/partition", body, nil); code != 200 {
		t.Fatalf("pre-kill ask: HTTP %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	daemons[owner].Shutdown(ctx)

	const asks = 20
	for i := 0; i < asks; i++ {
		code, data, _ := postRawHdr(t, bases[edge]+"/v1/partition", body, nil)
		if code != 200 {
			t.Fatalf("ask %d after owner death: HTTP %d: %s — a dead owner must not drop requests", i, code, data)
		}
	}
	ef := daemons[edge].Fabric()
	if ef.FallbackLocal.Load() == 0 || ef.ForwardErrors.Load() == 0 {
		t.Fatalf("edge counters after owner death: %+v", ef.Status())
	}
}

// TestFabricForwardFence: a request already carrying the fence header is
// served locally no matter who owns it — one hop, never a cycle.
func TestFabricForwardFence(t *testing.T) {
	doc := testClusterDoc(t, 5, 17)
	daemons, bases := startFabricCluster(t, 2, Config{})
	for _, b := range bases {
		if code := postJSON(t, b+"/v1/models?label=lab", doc, nil); code != 200 {
			t.Fatalf("upload to %s: HTTP %d", b, code)
		}
	}
	// n owned by daemon 1, posted to daemon 0 WITH the fence: daemon 0
	// must answer itself.
	n := ownedN(t, daemons[0].Fabric(), "lab", bases[1], 100_000)
	body := []byte(fmt.Sprintf(`{"model":"lab","n":%d}`, n))
	fence := map[string]string{fabric.ForwardedHeader: "1"}

	code, _, hdr := postRawHdr(t, bases[0]+"/v1/partition", body, fence)
	if code != 200 {
		t.Fatalf("fenced ask: HTTP %d", code)
	}
	if got := hdr.Get(fabric.TierHeader); got == "" {
		t.Fatal("owner-side response missing the tier header")
	}
	f0 := daemons[0].Fabric()
	if f0.Forwarded.Load() != 0 {
		t.Fatal("fenced request was re-forwarded")
	}
	if f0.ForwardedIn.Load() == 0 {
		t.Fatal("fenced request not counted as inbound")
	}
	if daemons[1].Fabric().ForwardedIn.Load() != 0 {
		t.Fatal("fence leaked to the owner")
	}
}

// TestTenantQuotaNoisyNeighbor: tenant a exhausting its bucket answers
// 429 + Retry-After while tenant b's warm hit rate is untouched.
func TestTenantQuotaNoisyNeighbor(t *testing.T) {
	_, base := startDaemon(t, Config{Dir: t.TempDir(), TenantQPS: 5, TenantBurst: 20})
	if code := postJSON(t, base+"/v1/models?label=a/m", testClusterDoc(t, 5, 3), nil); code != 200 {
		t.Fatalf("upload a/m: HTTP %d", code)
	}
	if code := postJSON(t, base+"/v1/models?label=b/m", testClusterDoc(t, 5, 4), nil); code != 200 {
		t.Fatalf("upload b/m: HTTP %d", code)
	}
	bBody := []byte(`{"model":"b/m","n":500000}`)
	warmHit(t, base, bBody)

	// Tenant a burns far past its burst.
	aBody := []byte(`{"model":"a/m","n":500000}`)
	rejected := 0
	for i := 0; i < 60; i++ {
		code, _, hdr := postRawHdr(t, base+"/v1/partition", aBody, nil)
		switch code {
		case 200:
		case 429:
			rejected++
			if hdr.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("tenant a ask %d: HTTP %d", i, code)
		}
	}
	if rejected == 0 {
		t.Fatal("tenant a was never throttled past its burst")
	}

	// Tenant b is a well-behaved neighbor: every ask admitted, every ask
	// still a warm hit.
	for i := 0; i < 10; i++ {
		code, data, _ := postRawHdr(t, base+"/v1/partition", bBody, nil)
		if code != 200 {
			t.Fatalf("tenant b ask %d: HTTP %d — a's throttling must not leak", i, code)
		}
		if !bytes.Contains(data, []byte(`"tier":"hit"`)) {
			t.Fatalf("tenant b ask %d lost its warm hit: %s", i, data)
		}
	}

	var stats statsReply
	if code := getJSON(t, base+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: HTTP %d", code)
	}
	if stats.Tenants["a"].Rejected == 0 {
		t.Fatalf("tenant a shows no rejections: %+v", stats.Tenants)
	}
	if b := stats.Tenants["b"]; b.Rejected != 0 || b.Hits < 11 {
		t.Fatalf("tenant b was affected: %+v", b)
	}
}

// TestPartitionBatchStreaming: a batch large enough to cross the
// streaming threshold parses as one well-formed document with every
// element answered, and matches the non-streamed encoding byte-for-byte
// element-wise.
func TestPartitionBatchStreaming(t *testing.T) {
	_, base := startDaemon(t, Config{Dir: t.TempDir()})
	if code := postJSON(t, base+"/v1/models?label=m", testClusterDoc(t, 5, 8), nil); code != 200 {
		t.Fatalf("upload: HTTP %d", code)
	}
	// A handful of distinct problem sizes repeated 3000 times: the
	// response is far past batchFlushBytes while the engine serves almost
	// everything from cache.
	const k = 3000
	var sb strings.Builder
	sb.WriteString(`{"requests":[`)
	for i := 0; i < k; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"model":"m","n":%d}`, 100_000+(i%8)*50_000)
	}
	sb.WriteString(`]}`)
	body := []byte(sb.String())

	code, data, _ := postRawHdr(t, base+"/v1/partition", body, nil)
	if code != 200 {
		t.Fatalf("batch: HTTP %d", code)
	}
	if len(data) < batchFlushBytes {
		t.Fatalf("response only %d bytes — does not exercise streaming (threshold %d)", len(data), batchFlushBytes)
	}
	var parsed struct {
		Responses []partitionReply `json:"responses"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("streamed batch is not valid JSON: %v", err)
	}
	if len(parsed.Responses) != k {
		t.Fatalf("%d responses, want %d", len(parsed.Responses), k)
	}
	for i, pr := range parsed.Responses {
		if pr.Error != "" || len(pr.Alloc) != 5 {
			t.Fatalf("element %d: %+v", i, pr)
		}
	}
	// Once every plan is cached (the doorkeeper admits on the second
	// miss), consecutive asks are all warm hits and the stream must be
	// byte-stable.
	_, warm1, _ := postRawHdr(t, base+"/v1/partition", body, nil)
	for i := 0; i < 3 && bytes.Contains(warm1, []byte(`"tier":"miss"`)); i++ {
		_, warm1, _ = postRawHdr(t, base+"/v1/partition", body, nil)
	}
	code2, warm2, _ := postRawHdr(t, base+"/v1/partition", body, nil)
	if code2 != 200 || !bytes.Equal(warm1, warm2) {
		t.Fatalf("consecutive warm asks of the streamed batch differ (HTTP %d)", code2)
	}
}

// TestValidatePeers covers the -peers startup validation: duplicates and
// self-references are configuration errors, not runtime surprises.
func TestValidatePeers(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"duplicate", Config{Dir: dir, Peers: []string{"http://10.0.0.2:7411", "http://10.0.0.2:7411"}}},
		{"empty entry", Config{Dir: dir, Peers: []string{""}}},
		{"own id", Config{Dir: dir, ID: "node-a", Peers: []string{"node-a"}}},
		{"own address", Config{Dir: dir, Addr: "127.0.0.1:7411", Peers: []string{"http://127.0.0.1:7411"}}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: config accepted, want error", c.name)
		}
	}
	// A clean list still boots.
	d, err := New(Config{Dir: t.TempDir(), Addr: "127.0.0.1:0", Peers: []string{"http://10.0.0.2:7411"}})
	if err != nil {
		t.Fatalf("valid peers rejected: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	d.Shutdown(ctx)
}

// decodeAllocs decodes the allocations of a single or batch reply.
func decodeAllocs(t *testing.T, data []byte) [][]int64 {
	t.Helper()
	var batch struct {
		Responses []partitionReply `json:"responses"`
	}
	if err := json.Unmarshal(data, &batch); err == nil && batch.Responses != nil {
		out := make([][]int64, len(batch.Responses))
		for i, r := range batch.Responses {
			out[i] = r.Alloc
		}
		return out
	}
	var one partitionReply
	if err := json.Unmarshal(data, &one); err != nil {
		t.Fatalf("undecodable reply %s: %v", data, err)
	}
	return [][]int64{one.Alloc}
}

// TestFabricForwardModelMismatch: an answer must come from the model of
// the member the client asked. The edge forwards its model fingerprint in
// the fence; an owner holding another model under the label, or none,
// answers 421 and the edge computes locally. An edge that lacks the model
// answers its own 400 without forwarding.
func TestFabricForwardModelMismatch(t *testing.T) {
	docA, docB := testClusterDoc(t, 6, 21), testClusterDoc(t, 6, 22)
	cases := []struct {
		name          string
		edge, owner   []byte // model uploaded under "lab" (nil: none)
		wantUnknown   bool   // the edge's own unknown-model error
		wantMismatch  bool
		wantForwarded bool
	}{
		{"owner holds another model", docA, docB, false, true, false},
		{"only the edge holds the model", docA, nil, false, true, false},
		{"only the owner holds the model", nil, docA, true, false, false},
		{"same model", docA, docA, false, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			daemons, bases := startFabricCluster(t, 2, Config{})
			edge, owner := 0, 1
			for i, doc := range [][]byte{c.edge, c.owner} {
				if doc == nil {
					continue
				}
				if code := postJSON(t, bases[i]+"/v1/models?label=lab", doc, nil); code != 200 {
					t.Fatalf("upload to %s: HTTP %d", bases[i], code)
				}
			}
			n := ownedN(t, daemons[edge].Fabric(), "lab", bases[owner], 400_000)
			single := []byte(fmt.Sprintf(`{"model":"lab","n":%d}`, n))
			batch := []byte(fmt.Sprintf(`{"requests":[{"model":"lab","n":%d},{"model":"lab","n":%d}]}`, n, n))
			bare := map[string]string{fabric.ForwardedHeader: "1"}
			for _, body := range [][]byte{single, batch} {
				code, data, _ := postRawHdr(t, bases[edge]+"/v1/partition", body, nil)
				if c.wantUnknown {
					// A single answers 400; a batch answers 200 with the
					// error in each element.
					wantCode := http.StatusBadRequest
					if bytes.HasPrefix(body, []byte(`{"requests"`)) {
						wantCode = http.StatusOK
					}
					if code != wantCode || !bytes.Contains(data, []byte("unknown model")) || bytes.Contains(data, []byte(`"alloc"`)) {
						t.Fatalf("%s: HTTP %d %s, want the edge's own unknown-model error", body, code, data)
					}
					continue
				}
				if code != 200 {
					t.Fatalf("%s: HTTP %d: %s", body, code, data)
				}
				_, own, _ := postRawHdr(t, bases[edge]+"/v1/partition", body, bare)
				got, want := decodeAllocs(t, data), decodeAllocs(t, own)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: answer %v differs from the edge's own model %v", body, got, want)
				}
			}
			st := daemons[edge].Fabric().Status()
			if (st.ModelMismatch > 0) != c.wantMismatch || (st.Forwarded > 0) != c.wantForwarded {
				t.Fatalf("edge fabric counters %+v", st)
			}
			if c.wantMismatch && (st.ModelMismatch != 2 || st.FallbackLocal != 0) {
				t.Fatalf("want 2 mismatches (single + batch) and no owner-down fallbacks: %+v", st)
			}
		})
	}
}

// TestFabricForwardShutdownClosesRelay: the relay's keep-alive connections
// to a member that stays up close when the edge shuts down, and when
// EnableFabric replaces the fabric they were opened by.
func TestFabricForwardShutdownClosesRelay(t *testing.T) {
	var open atomic.Int32
	owner := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"alloc":[1],"slope":1,"tier":"hit","stats":{}}`+"\n")
	}))
	owner.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			open.Add(1)
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	owner.Start()
	defer owner.Close()

	d, base := startDaemon(t, Config{Dir: t.TempDir()})
	if code := postJSON(t, base+"/v1/models?label=lab", testClusterDoc(t, 5, 9), nil); code != 200 {
		t.Fatalf("upload: HTTP %d", code)
	}
	d.SetPeers([]string{owner.URL})
	if err := d.EnableFabric(base); err != nil {
		t.Fatal(err)
	}
	body := []byte(fmt.Sprintf(`{"model":"lab","n":%d}`, ownedN(t, d.Fabric(), "lab", owner.URL, 100_000)))
	forward := func() {
		t.Helper()
		if code, data, _ := postRawHdr(t, base+"/v1/partition", body, nil); code != 200 {
			t.Fatalf("forwarded ask: HTTP %d: %s", code, data)
		}
		if open.Load() == 0 {
			t.Fatal("the owner saw no connection from the edge")
		}
	}
	waitClosed := func(when string) {
		t.Helper()
		for end := time.Now().Add(3 * time.Second); open.Load() != 0; {
			if time.Now().After(end) {
				t.Fatalf("%s: %d relay connection(s) to the owner still open", when, open.Load())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	forward()
	if err := d.EnableFabric(base); err != nil {
		t.Fatal(err)
	}
	waitClosed("after EnableFabric replaced the fabric")
	forward()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	waitClosed("after Shutdown")
}
