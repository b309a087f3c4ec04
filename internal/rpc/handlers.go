package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"heteropart/internal/clusterio"
	"heteropart/internal/core"
	"heteropart/internal/fabric"
	"heteropart/internal/geometry"
	"heteropart/internal/plancache"
	"heteropart/internal/replica"
	"heteropart/internal/serve"
	"heteropart/internal/speed"
	"heteropart/internal/store"
	"heteropart/internal/watch"
)

// maxBodyBytes bounds every request body.
const maxBodyBytes = 8 << 20

func (d *Daemon) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", d.handleHealth)
	mux.HandleFunc("/readyz", d.handleReady)
	mux.HandleFunc("/v1/stats", d.booting(d.handleStats))
	mux.HandleFunc("/v1/models", d.booting(d.handleModels))
	mux.HandleFunc("/v1/models/", d.booting(d.handleModelSub))
	mux.HandleFunc("/v1/partition", d.booting(d.handlePartition))
	mux.HandleFunc("/v1/replication/promote", d.booting(d.handlePromote))
	mux.HandleFunc("/v1/replication/demote", d.booting(d.handleDemote))
	mux.HandleFunc("/v1/replication/peer", d.booting(d.handlePeer))
	mux.Handle("/v1/replication/", http.StripPrefix("/v1/replication",
		http.HandlerFunc(d.booting(d.handleReplication))))
	return mux
}

// booting guards a data route for the window where Run is listening but
// the store is still replaying: nothing behind the route exists yet.
func (d *Daemon) booting(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !d.booted.Load() {
			writeStatic(w, http.StatusServiceUnavailable, bodyBooting, true)
			return
		}
		h(w, r)
	}
}

// handleReplication forwards to the shipper's snapshot/wal/status feed.
func (d *Daemon) handleReplication(w http.ResponseWriter, r *http.Request) {
	d.shipper.Handler().ServeHTTP(w, r)
}

// handlePromote turns a replica into the primary (POST, no body).
func (d *Daemon) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	epoch, err := d.Promote()
	if err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, map[string]any{"promoted": true, "epoch": epoch, "role": d.role()})
}

// handlePeer serves this member's election credentials: the document the
// failure detectors rank in an election, and the position a demoting
// primary polls while its successor drains.
func (d *Daemon) handlePeer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, d.peerInfo())
}

// demoteRequest is the planned-handover ask.
type demoteRequest struct {
	// Successor is the base URL of the follower to promote.
	Successor string `json:"successor"`
	// TimeoutMs bounds the drain wait (Config.HandoverTimeout when 0).
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// handleDemote runs the planned handover: seal, wait for the successor to
// drain, promote it, re-follow it. 409 when this daemon is not primary,
// 504 when the successor never reached the sealed position (rolled back,
// writes resumed here), 502 when it refused promotion (also rolled back).
func (d *Daemon) handleDemote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var req demoteRequest
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if req.Successor == "" {
		httpError(w, http.StatusBadRequest, "missing successor")
		return
	}
	epoch, err := d.Demote(req.Successor, time.Duration(req.TimeoutMs)*time.Millisecond)
	switch {
	case err == nil:
	case errors.Is(err, ErrNotPrimary):
		httpError(w, http.StatusConflict, "%v", err)
		return
	case errors.Is(err, ErrHandoverTimeout):
		httpError(w, http.StatusGatewayTimeout, "%v", err)
		return
	case errors.Is(err, ErrHandoverPromote):
		httpError(w, http.StatusBadGateway, "%v", err)
		return
	default:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, map[string]any{
		"demoted": true, "epoch": epoch, "role": d.role(), "primary": req.Successor,
	})
}

// httpError answers a JSON error body, encoded into a pooled buffer (the
// shape is identical to what the old map[string]string + json.Encoder
// produced, without their per-call allocations).
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	msg := format
	if len(args) > 0 {
		msg = fmt.Sprintf(format, args...)
	}
	sc := getWire()
	sc.out = appendErrorBody(sc.out[:0], msg)
	writeBody(w, code, sc.out)
	releaseWire(sc)
}

// httpUnavailable answers 503 with a Retry-After hint: every transient
// refusal (booting, syncing, fenced write, handover window) is one a
// well-behaved client should retry, and elections resolve in about a
// second — so say so instead of making clients guess a backoff.
func httpUnavailable(w http.ResponseWriter, format string, args ...any) {
	w.Header()["Retry-After"] = headerRetry1
	httpError(w, http.StatusServiceUnavailable, format, args...)
}

// writeFenced answers the write-path 503s and reports whether the request
// was fenced: during a handover's sealed window, and on any non-primary.
// The demoting check comes first — a demoting daemon still reads as
// primary until the point of no return.
func (d *Daemon) writeFenced(w http.ResponseWriter) bool {
	if d.demoting.Load() {
		httpUnavailable(w, "handover in progress; retry and the new primary will answer")
		return true
	}
	if !d.primary.Load() {
		if up := d.upstreamURL(); up != "" {
			httpUnavailable(w, "read-only replica of %s; write to the primary or promote", up)
		} else {
			httpUnavailable(w, "no primary: election in progress, retry shortly")
		}
		return true
	}
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// handleHealth is pure liveness: the process is up and serving HTTP. It
// answers 200 even while booting or syncing — restarting a daemon because
// it is still catching up would be self-inflicted unavailability. Routing
// decisions belong on /readyz.
func (d *Daemon) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"status": "ok",
		"uptime": time.Since(d.start).String(),
	})
}

// handleReady is readiness: 200 only when this daemon will answer
// partition requests — a primary once its store has replayed, a replica
// once it has caught up to its primary at least once. Until then 503 with
// the reason, so a load balancer keeps traffic off a daemon that would
// answer with errors or a cold cache.
func (d *Daemon) handleReady(w http.ResponseWriter, r *http.Request) {
	if !d.booted.Load() {
		httpUnavailable(w, "booting: store replaying")
		return
	}
	if !d.ready.Load() {
		reason := "not ready"
		if f := d.follower.Load(); f != nil {
			st := f.Status()
			reason = fmt.Sprintf("replica %s: lag %d bytes (%d frames) behind %s",
				st.State, st.LagBytes, st.LagFrames, st.Primary)
		}
		httpUnavailable(w, "%s", reason)
		return
	}
	writeJSON(w, map[string]any{
		"status": "ready",
		"role":   d.role(),
		"uptime": time.Since(d.start).String(),
	})
}

// statsReply is the /v1/stats document.
type statsReply struct {
	Uptime      string                           `json:"uptime"`
	Engine      engineStats                      `json:"engine"`
	Cache       plancache.Stats                  `json:"cache"`
	Store       store.Stats                      `json:"store"`
	Models      int                              `json:"models"`
	Replication replicationStats                 `json:"replication"`
	Tenants     map[string]fabric.TenantSnapshot `json:"tenants,omitempty"`
	Fabric      *fabric.Status                   `json:"fabric,omitempty"`
}

// replicationStats reports both sides of the log: this daemon's committed
// end (shipper — every daemon ships, so a promoted replica can seed the
// next follower), and, on a replica, the follower's confirmed position
// against its primary's, with the lag in frames and bytes that failover
// tuning needs.
type replicationStats struct {
	ID    string `json:"id"`
	Role  string `json:"role"`
	Ready bool   `json:"ready"`
	// Primary is the upstream this daemon follows ("" when it is primary).
	Primary string `json:"primary,omitempty"`
	// Handovers counts planned demotions completed by this daemon.
	Handovers int64                 `json:"handovers"`
	Shipper   replica.ShipperStatus `json:"shipper"`
	Follower  *replica.Status       `json:"follower,omitempty"`
	// Watch is the failure detector's view: suspicion count, last probe
	// RTT, elections won/lost. Present only while a detector is watching.
	Watch *watch.Status `json:"watch,omitempty"`
}

type engineStats struct {
	Requests     uint64                     `json:"requests"`
	Batches      uint64                     `json:"batches"`
	Coalesced    uint64                     `json:"coalesced"`
	MaxBatch     int                        `json:"maxBatch"`
	AvgBatch     float64                    `json:"avgBatch"`
	AvgLatencyUs float64                    `json:"avgLatencyUs"`
	ByAlgo       map[string]serve.AlgoTiers `json:"byAlgo"`
}

func (d *Daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	m := d.engine.Metrics()
	d.regMu.RLock()
	models := len(d.byFP)
	d.regMu.RUnlock()
	writeJSON(w, statsReply{
		Uptime: time.Since(d.start).String(),
		Engine: engineStats{
			Requests:     m.Requests,
			Batches:      m.Batches,
			Coalesced:    m.Coalesced,
			MaxBatch:     m.MaxBatch,
			AvgBatch:     m.AvgBatch,
			AvgLatencyUs: float64(m.AvgLatency.Nanoseconds()) / 1e3,
			ByAlgo:       m.ByAlgo,
		},
		Cache:  m.Cache,
		Store:  d.store.Stats(),
		Models: models,
		Replication: func() replicationStats {
			rs := replicationStats{
				ID:        d.id,
				Role:      d.role(),
				Ready:     d.ready.Load(),
				Primary:   d.upstreamURL(),
				Handovers: d.handovers.Load(),
				Shipper:   d.shipper.Status(),
			}
			if f := d.follower.Load(); f != nil && !d.primary.Load() {
				st := f.Status()
				rs.Follower = &st
			}
			if wt := d.watcher.Load(); wt != nil && !d.primary.Load() {
				ws := wt.Status()
				rs.Watch = &ws
			}
			return rs
		}(),
		Tenants: d.tenancy.Snapshot(),
		Fabric: func() *fabric.Status {
			f := d.fab.Load()
			if f == nil {
				return nil
			}
			s := f.Status()
			return &s
		}(),
	})
}

// modelReply describes one stored model on the wire; fingerprints travel
// as fixed-width hex.
type modelReply struct {
	Label       string `json:"label"`
	Fingerprint string `json:"fingerprint"`
	Processors  int    `json:"processors"`
	Replaced    bool   `json:"replaced,omitempty"`
	Invalidated int    `json:"invalidatedPlans,omitempty"`
}

func fpString(fp uint64) string { return fmt.Sprintf("%016x", fp) }

func (d *Daemon) handleModels(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		d.regMu.RLock()
		out := make([]modelReply, 0, len(d.byName))
		for label, fp := range d.byName {
			// byName also carries bare-name aliases for default-tenant
			// models (no '/'); list each model once, canonically.
			if _, _, ok := fabric.SplitLabel(label); !ok {
				continue
			}
			out = append(out, modelReply{Label: label, Fingerprint: fpString(fp), Processors: len(d.byFP[fp])})
		}
		d.regMu.RUnlock()
		// Stable order for scripts and tests.
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j].Label < out[j-1].Label; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		writeJSON(w, out)
	case http.MethodPost:
		d.handleModelUpload(w, r)
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// handleModelUpload ingests a clusterio document: expand, fingerprint,
// persist, and — when the label refreshes an existing model — invalidate
// the old model's plans in cache and store (the durable drift path).
func (d *Daemon) handleModelUpload(w http.ResponseWriter, r *http.Request) {
	// A replica's state arrives only over the replication stream; a local
	// write would diverge from the primary and be thrown away by the next
	// handoff. 503 (not 4xx): after promotion the same request succeeds.
	if d.writeFenced(w) {
		return
	}
	label := r.URL.Query().Get("label")
	if label == "" {
		httpError(w, http.StatusBadRequest, "missing ?label=")
		return
	}
	// The HTTP boundary enforces the tenant grammar strictly (the store's
	// replay path is looser by design: it must accept whatever an older
	// file recorded). From here on the canonical spelling is the identity.
	parsed, err := fabric.ParseLabel(label)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad label %q: %v", label, err)
		return
	}
	label = parsed.String()
	defaultMax := 1e9
	if s := r.URL.Query().Get("defaultMax"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || !(v > 0) {
			httpError(w, http.StatusBadRequest, "bad defaultMax %q", s)
			return
		}
		defaultMax = v
	}
	cluster, err := clusterio.Load(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fns, _, err := cluster.Functions(defaultMax)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	old, hadOld := d.store.ModelByLabel(label)
	fp, replaced, err := d.store.PutModel(label, fns)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	var invalidated int
	if replaced && hadOld {
		// Dropping the cache entries fires the invalidate tap, which logs
		// the drift to the WAL as well.
		invalidated = d.cache.InvalidateFingerprint(old)
	}
	d.regMu.Lock()
	if replaced && hadOld {
		delete(d.byFP, old)
	}
	d.byFP[fp] = fns
	d.regSetLocked(label, fp)
	d.regMu.Unlock()
	writeJSON(w, modelReply{
		Label: label, Fingerprint: fpString(fp), Processors: len(fns),
		Replaced: replaced, Invalidated: invalidated,
	})
}

// handleModelSub routes the per-model subresources under /v1/models/;
// today that is POST /v1/models/{label}/refresh.
func (d *Daemon) handleModelSub(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/models/")
	// Split at the LAST '/': labels may be tenant-qualified
	// ("acme/m/refresh" is label "acme/m", action "refresh").
	i := strings.LastIndexByte(rest, '/')
	if i <= 0 || rest[i+1:] != "refresh" {
		httpError(w, http.StatusNotFound, "unknown model route %q (want /v1/models/{label}/refresh)", r.URL.Path)
		return
	}
	d.handleModelRefresh(w, r, rest[:i])
}

// refreshRequest replaces one processor of a stored model.
type refreshRequest struct {
	// Proc is the processor index to replace (required — 0 is a valid
	// index, so absence is an error, not a default).
	Proc *int `json:"proc"`
	// Processor is the replacement in the clusterio schema.
	Processor clusterio.Processor `json:"processor"`
}

// refreshReply reports a delta refresh: the fingerprint move and how the
// cached plans fared (kept = re-keyed and still serving as exact hits,
// dropped = will recompute warm-started on next request).
type refreshReply struct {
	Label          string `json:"label"`
	Fingerprint    string `json:"fingerprint"`
	OldFingerprint string `json:"oldFingerprint"`
	Proc           int    `json:"proc"`
	Changed        bool   `json:"changed"`
	KeptPlans      int    `json:"keptPlans"`
	DroppedPlans   int    `json:"droppedPlans"`
}

// handleModelRefresh is the delta drift path: replace one processor's
// speed function in a stored model without re-uploading the cluster. The
// store appends a compact delta record (not the whole model), and the plan
// cache migrates instead of resetting — plans whose allocation provably
// cannot change survive under the new fingerprint.
func (d *Daemon) handleModelRefresh(w http.ResponseWriter, r *http.Request, label string) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if d.writeFenced(w) {
		return
	}
	defaultMax := 1e9
	if s := r.URL.Query().Get("defaultMax"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || !(v > 0) {
			httpError(w, http.StatusBadRequest, "bad defaultMax %q", s)
			return
		}
		defaultMax = v
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var req refreshRequest
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if req.Proc == nil {
		httpError(w, http.StatusBadRequest, "missing proc (the processor index to replace)")
		return
	}
	// Expand through a one-processor cluster so the replacement gets the
	// same validation and expansion as an upload.
	one := clusterio.Cluster{Processors: []clusterio.Processor{req.Processor}}
	if err := one.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fns1, _, err := one.Functions(defaultMax)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fn := fns1[0]

	oldFP, okLabel := d.store.ModelByLabel(label)
	if !okLabel {
		httpError(w, http.StatusNotFound, "unknown model %q (upload it via /v1/models)", label)
		return
	}
	d.regMu.RLock()
	oldFns := d.byFP[oldFP]
	d.regMu.RUnlock()
	proc := *req.Proc
	if proc < 0 || proc >= len(oldFns) {
		httpError(w, http.StatusBadRequest, "proc %d out of range for model %q with %d processors", proc, label, len(oldFns))
		return
	}
	oldFP, newFP, err := d.store.RefreshProcessor(label, proc, fn)
	if err != nil {
		// Label and index were validated above; what remains is an
		// encode/append failure.
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	reply := refreshReply{
		Label: label, Proc: proc,
		Fingerprint: fpString(newFP), OldFingerprint: fpString(oldFP),
		Changed: newFP != oldFP,
	}
	if reply.Changed {
		newFns := append([]speed.Function(nil), oldFns...)
		newFns[proc] = fn
		reply.KeptPlans, reply.DroppedPlans = d.cache.Refresh(oldFns, newFns)
		d.regMu.Lock()
		delete(d.byFP, oldFP)
		d.byFP[newFP] = newFns
		d.regSetLocked(fabric.CanonicalLabel(label), newFP)
		d.regMu.Unlock()
	}
	writeJSON(w, reply)
}

// partitionRequest is one partition ask on the wire.
type partitionRequest struct {
	// Model names the cluster: a stored label or a hex fingerprint.
	Model string `json:"model"`
	N     int64  `json:"n"`
	// Algo is "basic", "modified" or "combined" (the default).
	Algo    string          `json:"algo,omitempty"`
	Options *requestOptions `json:"options,omitempty"`
}

// requestOptions maps the result-affecting partitioner options onto JSON.
type requestOptions struct {
	FineTune   *bool   `json:"fineTune,omitempty"`   // default true
	MaxSteps   int     `json:"maxSteps,omitempty"`   // default 256
	Elasticity float64 `json:"elasticity,omitempty"` // Combined's threshold
	Bisection  string  `json:"bisection,omitempty"`  // "tangents" | "angles"
}

func (o *requestOptions) toOpts() ([]core.Option, error) {
	if o == nil {
		return nil, nil
	}
	var opts []core.Option
	if o.FineTune != nil && !*o.FineTune {
		opts = append(opts, core.WithoutFineTune())
	}
	if o.MaxSteps < 0 {
		return nil, fmt.Errorf("maxSteps must be positive")
	}
	if o.MaxSteps > 0 {
		opts = append(opts, core.WithMaxSteps(o.MaxSteps))
	}
	if o.Elasticity < 0 {
		return nil, fmt.Errorf("elasticity must be positive")
	}
	if o.Elasticity > 0 {
		opts = append(opts, core.WithElasticityThreshold(o.Elasticity))
	}
	switch o.Bisection {
	case "":
	case "tangents":
		opts = append(opts, core.WithBisection(geometry.BisectTangents))
	case "angles":
		opts = append(opts, core.WithBisection(geometry.BisectAngles))
	default:
		return nil, fmt.Errorf("unknown bisection %q (want tangents or angles)", o.Bisection)
	}
	return opts, nil
}

func parseAlgoName(name string) (core.Algorithm, error) {
	switch name {
	case "", "combined":
		return core.AlgoCombined, nil
	case "basic":
		return core.AlgoBasic, nil
	case "modified":
		return core.AlgoModified, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", name)
	}
}

func tierName(t plancache.Tier) string {
	switch t {
	case plancache.TierHit:
		return "hit"
	case plancache.TierShared:
		return "shared"
	default:
		return "miss"
	}
}

// partitionReply is one answered plan.
type partitionReply struct {
	Alloc []int64    `json:"alloc,omitempty"`
	Slope float64    `json:"slope,omitempty"`
	Tier  string     `json:"tier,omitempty"`
	Stats core.Stats `json:"stats"`
	Error string     `json:"error,omitempty"`
}

// partitionBatch wraps multiple requests in one POST.
type partitionBatch struct {
	Requests []partitionRequest `json:"requests"`
}

// resolveModel maps the wire model name onto speed functions.
func (d *Daemon) resolveModel(name string) ([]speed.Function, bool) {
	d.regMu.RLock()
	defer d.regMu.RUnlock()
	if fp, ok := d.byName[name]; ok {
		return d.byFP[fp], true
	}
	if fp, err := strconv.ParseUint(strings.TrimPrefix(name, "0x"), 16, 64); err == nil {
		if fns, ok := d.byFP[fp]; ok {
			return fns, true
		}
	}
	return nil, false
}

// toServeRequest validates one wire request.
func (d *Daemon) toServeRequest(pr partitionRequest) (serve.Request, error) {
	if pr.Model == "" {
		return serve.Request{}, fmt.Errorf("missing model")
	}
	if pr.N < 0 {
		return serve.Request{}, fmt.Errorf("negative n %d", pr.N)
	}
	fns, ok := d.resolveModel(pr.Model)
	if !ok {
		return serve.Request{}, fmt.Errorf("unknown model %q (upload it via /v1/models)", pr.Model)
	}
	algo, err := parseAlgoName(pr.Algo)
	if err != nil {
		return serve.Request{}, err
	}
	opts, err := pr.Options.toOpts()
	if err != nil {
		return serve.Request{}, err
	}
	return serve.Request{Algo: algo, N: pr.N, Fns: fns, Opts: opts}, nil
}

// handlePartition answers one request or a batch through the pooled wire
// codec (wire.go): the body is parsed in a single pass, batch vs single
// decided by the first key of the top-level object, exact cache hits are
// served synchronously past the dispatch queue, and the response is
// encoded by hand into a pooled buffer — the warm path allocates nothing.
//
// Two deliberate behavior changes from the old double-decode dispatch: a
// body whose first key is "requests" is always a batch (a malformed batch
// is one consistent 400 instead of being silently re-tried as a single
// request), and {"requests":[]} answers {"responses":[]} instead of
// "missing model".
func (d *Daemon) handlePartition(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeStatic(w, http.StatusMethodNotAllowed, bodyUsePOST, false)
		return
	}
	// A syncing replica would answer from a cold, half-mirrored cache —
	// not wrong, but not the warm bit-identical plans replication exists
	// to preserve. Stay 503 until caught up (readiness), then serve reads
	// for good.
	if !d.ready.Load() {
		writeStatic(w, http.StatusServiceUnavailable, bodySyncing, true)
		return
	}
	sc := getWire()
	defer releaseWire(sc)
	if err := sc.readBody(r); err != nil {
		if errors.Is(err, errBodyTooLarge) {
			writeStatic(w, http.StatusBadRequest, bodyTooLarge, false)
		} else {
			httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		}
		return
	}
	batch, err := sc.parsePartition()
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if batch {
		d.servePartitionBatch(w, r, sc)
		return
	}
	d.servePartitionSingle(w, r, sc)
}

// countTier charges one answered request to its tenant's tier counters.
func countTier(ts *fabric.TenantStats, tier plancache.Tier) {
	switch tier {
	case plancache.TierHit:
		ts.Hits.Add(1)
	case plancache.TierShared:
		ts.Shared.Add(1)
	default:
		ts.Misses.Add(1)
	}
}

// tierHeaderValue maps a tier onto its prebuilt X-Hetpart-Tier value.
func tierHeaderValue(tier plancache.Tier) []string {
	switch tier {
	case plancache.TierHit:
		return headerTierHit
	case plancache.TierShared:
		return headerTierShared
	default:
		return headerTierMiss
	}
}

// writeQuotaError answers a token-bucket refusal: 429 with the seconds
// until a token is available, the same retry contract the transient 503s
// use.
func writeQuotaError(w http.ResponseWriter, retry int) {
	if retry <= 1 {
		w.Header()["Retry-After"] = headerRetry1
	} else {
		w.Header()["Retry-After"] = []string{strconv.Itoa(retry)}
	}
	httpError(w, http.StatusTooManyRequests, "tenant over quota; retry after %ds", retry)
}

// forwardPartition relays the raw request body to the owning member under
// a fence carrying fp, the edge's fingerprint for the requested model, and
// the response back verbatim. The response is read into sc.out. It
// returns ok=false when the caller must serve locally instead (every
// member can compute every plan; an owner outage costs cache warmth, not
// availability): the owner is unreachable or answers 5xx, or it answers
// 421 because it holds a different model under the label, or none. Other
// 2xx-4xx relay as-is: a 400 is the same 400 this member would produce.
func (d *Daemon) forwardPartition(w http.ResponseWriter, fab *fabric.Fabric, owner int, fp uint64, sc *wireScratch) (hit, ok bool) {
	status, hit, resp, err := fab.ForwardModel(owner, fp, sc.body, sc.out[:0])
	sc.out = resp[:0]
	switch {
	case err != nil || status >= 500:
		fab.ForwardErrors.Add(1)
		fab.FallbackLocal.Add(1)
		return false, false
	case status == http.StatusMisdirectedRequest:
		fab.ModelMismatch.Add(1)
		return false, false
	}
	fab.Forwarded.Add(1)
	if hit {
		fab.RemoteHits.Add(1)
	}
	writeBody(w, status, resp)
	return hit, true
}

// requestModel resolves every element of the parsed request (one for a
// single) and reports the one model fingerprint they share; ok is false
// when an element's model is unknown here or the elements name different
// models.
func (d *Daemon) requestModel(sc *wireScratch) (fp uint64, ok bool) {
	for i := range sc.reqs {
		_, efp, found := d.resolveModelBytes(sc.spanBytes(sc.reqs[i].model))
		if !found || (i > 0 && efp != fp) {
			return 0, false
		}
		fp = efp
	}
	return fp, true
}

// misdirected reports whether a forwarded request's fence carries a model
// fingerprint other than the one its elements resolve to here (or they
// resolve to none). The bare fence serves unchecked.
func (d *Daemon) misdirected(r *http.Request, sc *wireScratch) bool {
	fp, ok := fabric.FenceFingerprint(r.Header[fabric.ForwardedHeader][0])
	if !ok {
		return false
	}
	own, ok := d.requestModel(sc)
	return !ok || own != fp
}

// wireToServe validates one parsed wire request, mirroring toServeRequest
// over spans instead of strings so the happy path allocates nothing.
func (d *Daemon) wireToServe(sc *wireScratch, wr *wireRequest) (serve.Request, error) {
	model := sc.spanBytes(wr.model)
	if len(model) == 0 {
		return serve.Request{}, fmt.Errorf("missing model")
	}
	if wr.n < 0 {
		return serve.Request{}, fmt.Errorf("negative n %d", wr.n)
	}
	fns, fp, ok := d.resolveModelBytes(model)
	if !ok {
		return serve.Request{}, fmt.Errorf("unknown model %q (upload it via /v1/models)", model)
	}
	var algo core.Algorithm
	switch string(sc.spanBytes(wr.algo)) {
	case "", "combined":
		algo = core.AlgoCombined
	case "basic":
		algo = core.AlgoBasic
	case "modified":
		algo = core.AlgoModified
	default:
		return serve.Request{}, fmt.Errorf("unknown algorithm %q", sc.spanBytes(wr.algo))
	}
	opts, err := wr.toOpts(sc)
	if err != nil {
		return serve.Request{}, err
	}
	return serve.Request{Algo: algo, N: wr.n, Fns: fns, Opts: opts, Model: fp}, nil
}

// toOpts converts the flattened wire options to core options, with the
// same validation (and error text) requestOptions.toOpts applies. The
// common no-options request returns nil without allocating.
func (wr *wireRequest) toOpts(sc *wireScratch) ([]core.Option, error) {
	bis := sc.spanBytes(wr.bisection)
	if !wr.hasFineTune && wr.maxSteps == 0 && wr.elasticity == 0 && len(bis) == 0 {
		return nil, nil
	}
	var opts []core.Option
	if wr.hasFineTune && !wr.fineTune {
		opts = append(opts, core.WithoutFineTune())
	}
	if wr.maxSteps < 0 {
		return nil, fmt.Errorf("maxSteps must be positive")
	}
	if wr.maxSteps > 0 {
		opts = append(opts, core.WithMaxSteps(wr.maxSteps))
	}
	if wr.elasticity < 0 {
		return nil, fmt.Errorf("elasticity must be positive")
	}
	if wr.elasticity > 0 {
		opts = append(opts, core.WithElasticityThreshold(wr.elasticity))
	}
	switch string(bis) {
	case "":
	case "tangents":
		opts = append(opts, core.WithBisection(geometry.BisectTangents))
	case "angles":
		opts = append(opts, core.WithBisection(geometry.BisectAngles))
	default:
		return nil, fmt.Errorf("unknown bisection %q (want tangents or angles)", bis)
	}
	return opts, nil
}

// resolveModelBytes is resolveModel for the parser's byte spans: the
// label lookup is a zero-copy map probe; the hex-fingerprint fallback is
// rare and may allocate. The returned fingerprint is canonical (the store
// re-hashes models on load and aliases legacy fingerprints), so callers
// can use it as the cache key without re-hashing fns per request.
func (d *Daemon) resolveModelBytes(name []byte) ([]speed.Function, uint64, bool) {
	d.regMu.RLock()
	if fp, ok := d.byName[string(name)]; ok {
		fns := d.byFP[fp]
		d.regMu.RUnlock()
		return fns, fp, true
	}
	d.regMu.RUnlock()
	if fp, err := strconv.ParseUint(strings.TrimPrefix(string(name), "0x"), 16, 64); err == nil {
		d.regMu.RLock()
		defer d.regMu.RUnlock()
		if fns, ok := d.byFP[fp]; ok {
			return fns, fp, true
		}
	}
	return nil, 0, false
}

// servePartitionSingle answers sc.reqs[0]: an exact cache hit is served
// synchronously (no queue round trip), a miss goes through the engine.
// Before the local path runs, the tenant layer gets its say — the request
// is attributed and quota-charged at the edge, and a request whose plan
// family another fabric member owns is relayed there verbatim. A request
// carrying the forwarding fence is always served locally (no re-forward,
// no second quota charge) and announces its tier in a response header so
// the relaying edge can count remote hits without parsing the body. The
// edge forwards only a model it holds itself, with its fingerprint in the
// fence; under such a fence the owner serves only the same model and
// answers 421 otherwise.
func (d *Daemon) servePartitionSingle(w http.ResponseWriter, r *http.Request, sc *wireScratch) {
	wr := &sc.reqs[0]
	tenant, family := fabric.TenantSpan(sc.spanBytes(wr.model))
	ts := d.tenancy.Stats(tenant)
	ts.Requests.Add(1)
	fab := d.fab.Load()
	forwarded := len(r.Header[fabric.ForwardedHeader]) > 0
	if forwarded {
		if fab != nil {
			fab.ForwardedIn.Add(1)
		}
		if d.misdirected(r, sc) {
			writeBody(w, http.StatusMisdirectedRequest, bodyModelMismatch)
			return
		}
	} else {
		if ok, retry := d.tenancy.Allow(tenant); !ok {
			ts.Rejected.Add(1)
			writeQuotaError(w, retry)
			return
		}
		if fab != nil && len(family) > 0 && wr.n >= 0 {
			if owner := fab.OwnerIndex(tenant, family, wr.n); !fab.IsSelf(owner) {
				if fp, found := d.requestModel(sc); found {
					if hit, ok := d.forwardPartition(w, fab, owner, fp, sc); ok {
						ts.Forwarded.Add(1)
						if hit {
							ts.RemoteHits.Add(1)
						}
						return
					}
				}
				// Unknown model here, owner down or holding another
				// model: fall through and answer locally.
			} else {
				fab.ServedLocal.Add(1)
			}
		}
	}
	req, err := d.wireToServe(sc, wr)
	if err != nil {
		ts.Errors.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sc.arena = sc.arena[:0]
	arena, resp, ok := d.engine.TryHit(req, sc.arena)
	sc.arena = arena
	if !ok {
		resp = <-d.engine.Submit(req)
		if resp.Err != nil {
			ts.Errors.Add(1)
			httpError(w, http.StatusUnprocessableEntity, "%v", resp.Err)
			return
		}
	}
	countTier(ts, resp.Tier)
	if forwarded {
		w.Header()[fabric.TierHeader] = tierHeaderValue(resp.Tier)
	}
	sc.out = appendReply(sc.out[:0], resp.Result.Alloc, resp.Result.Slope, tierName(resp.Tier), &resp.Result.Stats, "")
	sc.out = append(sc.out, '\n')
	writeBody(w, http.StatusOK, sc.out)
}

// servePartitionBatch answers sc.reqs as one response document. Hits are
// served synchronously into the scratch arena; every miss is submitted
// before any reply is awaited, so misses land in the same engine dispatch
// cycle and coalesce, exactly as before.
//
// The tenant layer runs as a separate admission pass first: each element
// is attributed and quota-charged, and when one remote member owns every
// element's plan family the whole body is relayed there verbatim (mixed
// owners serve locally — splitting a batch would break its coalescing).
// It is relayed only when every element resolves to one model here, whose
// fingerprint the fence carries; a fenced owner checks every element.
// The encode pass streams: past batchFlushBytes the buffer is flushed to
// the client and reused, so a 100k-element batch costs O(64 KiB) of
// response memory, not O(batch). The byte stream is identical either way.
func (d *Daemon) servePartitionBatch(w http.ResponseWriter, r *http.Request, sc *wireScratch) {
	k := len(sc.reqs)
	if cap(sc.items) < k {
		sc.items = make([]wireItem, k)
	} else {
		sc.items = sc.items[:k]
	}
	fab := d.fab.Load()
	forwarded := len(r.Header[fabric.ForwardedHeader]) > 0
	owner, uniform, rejected := -1, true, false
	for i := range sc.reqs {
		it := &sc.items[i]
		*it = wireItem{}
		wr := &sc.reqs[i]
		tenant, family := fabric.TenantSpan(sc.spanBytes(wr.model))
		it.ts = d.tenancy.Stats(tenant)
		it.ts.Requests.Add(1)
		if !forwarded {
			if ok, retry := d.tenancy.Allow(tenant); !ok {
				it.retry = retry
				it.ts.Rejected.Add(1)
				rejected = true
				continue
			}
		}
		if fab != nil && uniform && len(family) > 0 && wr.n >= 0 {
			switch o := fab.OwnerIndex(tenant, family, wr.n); {
			case owner == -1:
				owner = o
			case o != owner:
				uniform = false
			}
		}
	}
	switch {
	case forwarded:
		if fab != nil {
			fab.ForwardedIn.Add(1)
		}
		if d.misdirected(r, sc) {
			writeBody(w, http.StatusMisdirectedRequest, bodyModelMismatch)
			return
		}
	case fab != nil && uniform && owner >= 0 && !fab.IsSelf(owner) && !rejected:
		// One remote owner for the whole batch: relay it verbatim so its
		// elements coalesce in the owner's dispatch cycle and warm the
		// owner's cache, exactly as a local batch would.
		if fp, ok := d.requestModel(sc); ok {
			if _, ok := d.forwardPartition(w, fab, owner, fp, sc); ok {
				for i := range sc.items {
					sc.items[i].ts.Forwarded.Add(1)
				}
				return
			}
		}
	case fab != nil:
		fab.ServedLocal.Add(1)
	}
	sc.arena = sc.arena[:0]
	for i := range sc.reqs {
		it := &sc.items[i]
		if it.retry > 0 {
			continue
		}
		req, err := d.wireToServe(sc, &sc.reqs[i])
		if err != nil {
			it.err = err
			continue
		}
		start := len(sc.arena)
		arena, resp, ok := d.engine.TryHit(req, sc.arena)
		sc.arena = arena
		if ok {
			it.hit = true
			it.slope = resp.Result.Slope
			it.stats = resp.Result.Stats
			it.allocOff, it.allocLen = start, len(sc.arena)-start
			continue
		}
		it.wait = d.engine.Submit(req)
	}
	var zero core.Stats
	streaming := false
	out := append(sc.out[:0], `{"responses":[`...)
	for i := range sc.items {
		if i > 0 {
			out = append(out, ',')
		}
		it := &sc.items[i]
		switch {
		case it.retry > 0:
			out = appendReply(out, nil, 0, "", &zero, "tenant over quota; retry after "+strconv.Itoa(it.retry)+"s")
		case it.err != nil:
			it.ts.Errors.Add(1)
			out = appendReply(out, nil, 0, "", &zero, it.err.Error())
		case it.hit:
			it.ts.Hits.Add(1)
			out = appendReply(out, sc.arena[it.allocOff:it.allocOff+it.allocLen], it.slope, "hit", &it.stats, "")
		default:
			resp := <-it.wait
			if resp.Err != nil {
				it.ts.Errors.Add(1)
				out = appendReply(out, nil, 0, "", &zero, resp.Err.Error())
			} else {
				countTier(it.ts, resp.Tier)
				out = appendReply(out, resp.Result.Alloc, resp.Result.Slope, tierName(resp.Tier), &resp.Result.Stats, "")
			}
		}
		if len(out) >= batchFlushBytes {
			if !streaming {
				w.Header()["Content-Type"] = headerJSON
				w.WriteHeader(http.StatusOK)
				streaming = true
			}
			w.Write(out)
			out = out[:0]
		}
	}
	out = append(append(out, `]}`...), '\n')
	if streaming {
		w.Write(out)
		sc.out = out
		return
	}
	sc.out = out
	writeBody(w, http.StatusOK, sc.out)
}
