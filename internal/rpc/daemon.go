// Package rpc is the network face of the partition server: a long-running
// HTTP daemon (cmd/hetpartd) that keeps cluster models and served plans in
// a durable store (internal/store), serves partition requests through the
// batching engine (internal/serve), and survives being killed at any
// moment — on restart it replays the store and answers its first requests
// from a warm cache, bit-identical to the plans the previous process
// served.
//
// Endpoints:
//
//	POST /v1/models?label=L[&defaultMax=F]  upload/refresh a clusterio doc
//	GET  /v1/models                         list stored models
//	POST /v1/partition                      one request or {"requests":[…]}
//	GET  /v1/stats                          engine+cache+store+replication
//	GET  /healthz                           liveness (process is up)
//	GET  /readyz                            readiness (caught up, serving)
//	GET  /v1/replication/{snapshot,wal,status}  the log-shipping feed
//	POST /v1/replication/promote            promote a replica to primary
//	GET  /v1/replication/peer               this member's election credentials
//	POST /v1/replication/demote             planned handover to a successor
//
// Wiring: the plan cache's insert tap appends every admitted plan to the
// store's WAL before the response leaves the process, so any answered
// request is recoverable; the invalidate tap logs drift invalidations; the
// store's hint source pulls the cache's warm index into every snapshot.
// With -replica-of the daemon instead starts as a read-only follower of
// another hetpartd: it bootstraps from a snapshot handoff, streams the
// primary's WAL frames into its own store through the validated-replay
// path, mirrors them into its cache, answers reads once caught up, and
// rejects writes with 503 until promoted (see internal/replica and
// DESIGN §10). With -watch a follower additionally runs the failure
// detector (internal/watch): it probes the primary's /healthz, and when
// the primary dies the least-lagged caught-up follower self-promotes while
// the rest re-follow it — no operator POST (DESIGN §12). Graceful shutdown
// (SIGTERM/SIGINT) drains in-flight HTTP requests, closes the engine, and
// folds the WAL into a final snapshot.
package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"heteropart/internal/fabric"
	"heteropart/internal/plancache"
	"heteropart/internal/replica"
	"heteropart/internal/serve"
	"heteropart/internal/speed"
	"heteropart/internal/store"
	"heteropart/internal/watch"
)

// Config tunes a Daemon.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:7411").
	Addr string
	// Dir is the store directory. Required.
	Dir string
	// AddrFile, when set, receives the bound address once the listener is
	// up — how tests and scripts find a ":0" daemon.
	AddrFile string

	// CacheCapacity sizes the plan cache (0 = plancache default).
	CacheCapacity int
	// NoDoorkeeper disables the cache admission policy (admit on first
	// miss, as a private engine would). The daemon defaults to doorkeeper
	// admission: a network-facing cache sees one-shot scans that would
	// otherwise wash out the working set.
	NoDoorkeeper bool

	// MaxBatch and QueueDepth pass through to serve.Config.
	MaxBatch   int
	QueueDepth int

	// CompactAt and SyncEvery pass through to store.Options.
	CompactAt int64
	SyncEvery int

	// ReplicaOf, when set, starts the daemon as a read-only follower of
	// the primary at this base URL (e.g. "http://127.0.0.1:7411"): the
	// cache admits nothing locally, writes answer 503, and state arrives
	// only over the replication stream until promotion.
	ReplicaOf string
	// ReconnectBase seeds the follower's deterministic reconnect backoff
	// (default 100ms; see faults.JitterBackoff).
	ReconnectBase time.Duration
	// ReplicaWait is the follower's long-poll hold (default 2s).
	ReplicaWait time.Duration

	// ID is this member's stable identity in the cluster — the election
	// tiebreaker and the name shown in /v1/stats (default: Addr).
	ID string
	// Peers lists the OTHER cluster members' base URLs (not the primary):
	// the gossip set for elections. Mutable at runtime via SetPeers.
	Peers []string
	// Watch starts the failure detector on a follower: probe the primary,
	// and elect a successor without an operator when it dies.
	Watch bool
	// ProbeInterval is the detector's probe cadence (watch default 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (watch default: ProbeInterval).
	ProbeTimeout time.Duration
	// SuspectAfter is the consecutive-miss threshold (watch default 3).
	SuspectAfter int
	// HandoverTimeout bounds how long a planned demotion waits for the
	// successor to drain to the sealed position (default 10s).
	HandoverTimeout time.Duration

	// DrainTimeout bounds graceful shutdown (default 10s).
	DrainTimeout time.Duration

	// FabricSelf, when set, joins this daemon to the sharded serving
	// fabric as the member advertised at this base URL (e.g.
	// "http://10.0.0.1:7411"). Plan ownership is jump-hashed across
	// FabricSelf plus Peers; non-owned /v1/partition requests are
	// forwarded to their owner.
	FabricSelf string
	// FabricTimeout bounds one forwarded request (default 2s).
	FabricTimeout time.Duration

	// TenantQPS enables per-tenant token-bucket admission: each tenant
	// gets this many /v1/partition requests per second (plus TenantBurst
	// headroom) before the daemon answers 429 + Retry-After. 0 = no
	// quotas.
	TenantQPS float64
	// TenantBurst is the bucket capacity (default: one second of TenantQPS).
	TenantBurst int
}

// Daemon is the running server. Construct with New, start with Listen +
// Serve (or the Run convenience wrapper), stop with Shutdown.
type Daemon struct {
	cfg    Config
	store  *store.Store
	cache  *plancache.Cache
	engine *serve.Engine

	// shipper serves this daemon's replicated log; followers attach to it,
	// and it keeps serving after a replica's promotion so the pair can be
	// re-formed the other way around.
	shipper *replica.Shipper
	// follower is non-nil while the daemon follows a primary; it is
	// swapped atomically when an election or a demotion re-points it.
	follower atomic.Pointer[replica.Follower]
	// watcher is the failure detector (Watch on a follower, or installed
	// by a demotion); nil otherwise.
	watcher atomic.Pointer[watch.Detector]

	// roleMu serializes the role transitions — Promote, Follow, Demote —
	// so two triggers (an election and an operator POST, say) cannot
	// interleave their tap/read-only/follower rewiring.
	roleMu sync.Mutex

	// id is the member identity (Config.ID, default Addr).
	id string
	// peerMu guards peers, the other members' base URLs.
	peerMu sync.RWMutex
	peers  []string
	// upstream is the base URL of the primary this daemon follows ("" when
	// it is the primary itself).
	upstream atomic.Value // string
	// demoting is true during the sealed window of a planned handover.
	demoting  atomic.Bool
	handovers atomic.Int64

	// booted flips once the store is open and replayed; until then every
	// data route answers 503 (Run listens before booting so a long WAL
	// replay is observable on /readyz rather than a connection refusal).
	booted atomic.Bool
	// ready gates /readyz and the partition path: true for a primary once
	// booted, for a replica once caught up (sticky, like serving-reads).
	ready atomic.Bool
	// primary is true when this daemon accepts writes (born primary, or
	// promoted).
	primary atomic.Bool

	// registry mirrors the store's models for lock-cheap request-time
	// lookup by label or fingerprint. byName holds every model under its
	// canonical tenant-qualified label, plus a bare-name alias for
	// default-tenant models so pre-tenancy clients resolve without
	// allocating (aliases have no '/', so they cannot collide with a
	// canonical "tenant/model" key).
	regMu  sync.RWMutex
	byFP   map[uint64][]speed.Function
	byName map[string]uint64

	// tenancy is the per-tenant stats registry + optional quota
	// controller; always non-nil.
	tenancy *fabric.Tenancy
	// fab is this member's view of the sharded fabric; nil unless
	// FabricSelf was configured or EnableFabric was called.
	fab atomic.Pointer[fabric.Fabric]

	srv   *http.Server
	ln    net.Listener
	start time.Time

	closeOnce sync.Once
	closeErr  error
}

// New opens the store, seeds the cache from it, and wires the persistence
// taps (or, with ReplicaOf, the replication stream). The daemon is not
// listening yet.
func New(cfg Config) (*Daemon, error) {
	d, err := newShell(cfg)
	if err != nil {
		return nil, err
	}
	if err := d.boot(); err != nil {
		return nil, err
	}
	return d, nil
}

// newShell validates cfg and builds the HTTP surface without touching the
// store, so Run can bind and answer health probes while boot replays a
// large WAL.
func newShell(cfg Config) (*Daemon, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("rpc: Config.Dir is required")
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:7411"
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.HandoverTimeout <= 0 {
		cfg.HandoverTimeout = 10 * time.Second
	}
	if cfg.ID == "" {
		cfg.ID = cfg.Addr
	}
	if err := validatePeers(cfg.Peers, cfg.ID, cfg.Addr); err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:     cfg,
		id:      cfg.ID,
		byFP:    make(map[uint64][]speed.Function),
		byName:  make(map[string]uint64),
		tenancy: fabric.NewTenancy(cfg.TenantQPS, cfg.TenantBurst),
		start:   time.Now(),
	}
	d.upstream.Store("")
	d.SetPeers(cfg.Peers)
	if cfg.FabricSelf != "" {
		if err := d.EnableFabric(cfg.FabricSelf); err != nil {
			return nil, err
		}
	}
	d.srv = &http.Server{
		Handler:           d.routes(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return d, nil
}

// boot opens the store (replaying its WAL), seeds the cache, and wires
// either the primary persistence taps or the follower stream.
func (d *Daemon) boot() error {
	cfg := d.cfg
	st, err := store.Open(store.Options{
		Dir:       cfg.Dir,
		CompactAt: cfg.CompactAt,
		SyncEvery: cfg.SyncEvery,
	})
	if err != nil {
		return err
	}
	cache := plancache.NewWithConfig(plancache.Config{
		Capacity:   cfg.CacheCapacity,
		Doorkeeper: !cfg.NoDoorkeeper,
	})
	// Seed before installing the taps: imported plans are already in the
	// store and must not be re-logged.
	cache.Import(st.Plans(), st.Hints())

	d.store = st
	d.cache = cache
	d.engine = serve.New(serve.Config{Cache: cache, MaxBatch: cfg.MaxBatch, QueueDepth: cfg.QueueDepth})
	d.shipper = replica.NewShipper(st, 0)
	d.rebuildRegistry()

	if cfg.ReplicaOf == "" {
		d.installPrimaryTaps()
		d.primary.Store(true)
		d.ready.Store(true)
	} else {
		// A follower's cache changes only through the replication feed;
		// its own WAL is written by IngestChunk/ApplyHandoff, so the taps
		// stay out — they would double-log every streamed record.
		cache.SetReadOnly(true)
		f, err := d.newFollower(cfg.ReplicaOf)
		if err != nil {
			d.engine.Close()
			st.Close()
			return err
		}
		d.upstream.Store(cfg.ReplicaOf)
		d.follower.Store(f)
		f.Start()
		if cfg.Watch {
			wt, err := d.newWatcher(cfg.ReplicaOf)
			if err != nil {
				f.Close()
				d.engine.Close()
				st.Close()
				return err
			}
			d.watcher.Store(wt)
			wt.Start()
		}
	}
	d.booted.Store(true)
	return nil
}

// newFollower builds (but does not start) a follower streaming from the
// primary at the given base URL, wired to this daemon's store and mirror.
func (d *Daemon) newFollower(primary string) (*replica.Follower, error) {
	return replica.NewFollower(replica.Config{
		Primary:     primary,
		Store:       d.store,
		BackoffBase: d.cfg.ReconnectBase,
		Wait:        d.cfg.ReplicaWait,
		OnReset:     func(store.Replicated) { d.mirrorReset() },
		OnApply:     d.mirrorApply,
		OnState: func(s replica.State) {
			if s == replica.StateServingReads {
				d.ready.Store(true)
			}
		},
	})
}

// newWatcher builds (but does not start) a failure detector watching the
// given primary, wired to this daemon's election credentials and role
// transitions.
func (d *Daemon) newWatcher(primary string) (*watch.Detector, error) {
	return watch.New(watch.Config{
		ID:           d.id,
		Primary:      primary,
		Self:         d.peerInfo,
		Peers:        d.peerList,
		PromoteSelf:  func() error { _, err := d.Promote(); return err },
		Follow:       d.Follow,
		Interval:     d.cfg.ProbeInterval,
		ProbeTimeout: d.cfg.ProbeTimeout,
		SuspectAfter: d.cfg.SuspectAfter,
	})
}

// installPrimaryTaps wires the cache→store persistence path a writable
// daemon needs: admitted plans and drift invalidations reach the WAL
// before the response leaves, and snapshots fold the warm index in.
// Plan inserts go through a group-commit Committer so concurrent cache
// misses share one store lock acquisition and one kernel write.
func (d *Daemon) installPrimaryTaps() {
	st, cache := d.store, d.cache
	committer := store.NewCommitter(st)
	cache.SetInsertTap(func(r plancache.PlanRecord) { _ = committer.AppendPlan(r) })
	cache.SetInvalidateTap(func(model uint64) { _ = st.AppendInvalidate(model) })
	st.SetHintSource(func() []plancache.HintRecord {
		_, hints := cache.Export()
		return hints
	})
}

// rebuildRegistry reloads the label/fingerprint mirror from the store.
func (d *Daemon) rebuildRegistry() {
	d.regMu.Lock()
	defer d.regMu.Unlock()
	d.byFP = make(map[uint64][]speed.Function)
	d.byName = make(map[string]uint64)
	for _, mi := range d.store.Models() {
		if fns, ok := d.store.Model(mi.Fingerprint); ok {
			d.byFP[mi.Fingerprint] = fns
			d.regSetLocked(mi.Label, mi.Fingerprint)
		}
	}
}

// regSetLocked maps a canonical label to its fingerprint, and — for
// default-tenant models — also the bare model name, so untenanted request
// spellings resolve without a canonicalizing allocation on the hot path.
// Callers hold regMu.
func (d *Daemon) regSetLocked(label string, fp uint64) {
	d.byName[label] = fp
	if tenant, model, ok := fabric.SplitLabel(label); ok && tenant == fabric.DefaultTenant {
		d.byName[model] = fp
	}
}

// mirrorReset rebuilds the live mirror (registry + cache) from the store
// after a snapshot handoff replaced its state wholesale.
func (d *Daemon) mirrorReset() {
	d.rebuildRegistry()
	d.cache.Reset()
	d.cache.Import(d.store.Plans(), d.store.Hints())
}

// mirrorApply folds one ingested chunk into the live mirror: models join
// the registry, delta refreshes migrate it (and the cache) the same way
// the primary's did, plans and hints are imported (Import bypasses
// read-only admission — it IS the replication write path), invalidations
// drop the same entries the primary dropped.
//
// Replicated flattens a chunk by record type, so the interleaving of plans
// and deltas inside one chunk is lost here (the store replayed them in
// true order). When a chunk carries deltas, plans keyed under a
// fingerprint the deltas retired are skipped rather than imported under a
// dead model; a later request for such a plan misses and recomputes
// bit-identically, so this loses warmth, never correctness.
func (d *Daemon) mirrorApply(rep store.Replicated) {
	if len(rep.Models) > 0 {
		d.regMu.Lock()
		for _, m := range rep.Models {
			if old, ok := d.byName[m.Label]; ok && old != m.Fingerprint {
				delete(d.byFP, old)
			}
			d.byFP[m.Fingerprint] = m.Fns
			d.regSetLocked(m.Label, m.Fingerprint)
		}
		d.regMu.Unlock()
	}
	for _, del := range rep.Deltas {
		d.regMu.Lock()
		oldFns := d.byFP[del.OldFP]
		var newFns []speed.Function
		if del.Proc >= 0 && del.Proc < len(oldFns) {
			newFns = append([]speed.Function(nil), oldFns...)
			newFns[del.Proc] = del.Fn
			delete(d.byFP, del.OldFP)
			d.byFP[del.NewFP] = newFns
			for label, fp := range d.byName {
				if fp == del.OldFP {
					d.byName[label] = del.NewFP
				}
			}
		}
		d.regMu.Unlock()
		if newFns != nil {
			d.cache.Refresh(oldFns, newFns)
		} else {
			// The registry never saw this model (e.g. it predates a handoff
			// race); drop whatever the cache holds under it.
			d.cache.InvalidateFingerprint(del.OldFP)
		}
	}
	if len(rep.Plans) > 0 || len(rep.Hints) > 0 {
		plans, hints := rep.Plans, rep.Hints
		if len(rep.Deltas) > 0 {
			d.regMu.RLock()
			keep := plans[:0:0]
			for _, p := range plans {
				if _, ok := d.byFP[p.Model]; ok {
					keep = append(keep, p)
				}
			}
			keepH := hints[:0:0]
			for _, h := range hints {
				if _, ok := d.byFP[h.Model]; ok {
					keepH = append(keepH, h)
				}
			}
			d.regMu.RUnlock()
			plans, hints = keep, keepH
		}
		for _, p := range plans {
			hints = append(hints, plancache.HintRecord{Model: p.Model, N: p.N, Slope: p.Slope})
		}
		d.cache.Import(plans, hints)
	}
	for _, fp := range rep.Invalidated {
		d.cache.InvalidateFingerprint(fp)
	}
}

// Store exposes the daemon's store (tests and stats).
func (d *Daemon) Store() *store.Store { return d.store }

// Handler exposes the daemon's HTTP surface without a listener, so
// benchmarks can measure the handler path itself — parse, serve, encode —
// with net/http's connection machinery excluded.
func (d *Daemon) Handler() http.Handler { return d.srv.Handler }

// Engine exposes the daemon's serving engine.
func (d *Daemon) Engine() *serve.Engine { return d.engine }

// Follower exposes the replication follower (nil on a primary).
func (d *Daemon) Follower() *replica.Follower { return d.follower.Load() }

// Watcher exposes the failure detector (nil when -watch is off or after
// this daemon won an election).
func (d *Daemon) Watcher() *watch.Detector { return d.watcher.Load() }

// Ready reports whether the daemon would answer 200 on /readyz.
func (d *Daemon) Ready() bool { return d.ready.Load() }

// role names the daemon's current write role for stats and errors.
func (d *Daemon) role() string {
	if d.primary.Load() {
		return "primary"
	}
	return "replica"
}

// SetPeers replaces the set of other cluster members' base URLs — the
// gossip set elections poll. Safe at runtime; tests wire peers after the
// ":0" listeners publish their ports.
func (d *Daemon) SetPeers(peers []string) {
	d.peerMu.Lock()
	d.peers = append([]string(nil), peers...)
	d.peerMu.Unlock()
}

// peerList snapshots the peer set for the detector.
func (d *Daemon) peerList() []string {
	d.peerMu.RLock()
	defer d.peerMu.RUnlock()
	return append([]string(nil), d.peers...)
}

// validatePeers rejects a -peers list that would make the fabric or the
// watch detector talk to itself: duplicate entries, entries equal to this
// member's ID, and entries whose host:port is this member's own listen
// address.
func validatePeers(peers []string, id, addr string) error {
	seen := make(map[string]bool, len(peers))
	for _, p := range peers {
		if p == "" {
			return fmt.Errorf("rpc: empty entry in peers list")
		}
		if seen[p] {
			return fmt.Errorf("rpc: duplicate peer %q", p)
		}
		seen[p] = true
		if p == id {
			return fmt.Errorf("rpc: peer %q is this member's own ID", p)
		}
		if addr != "" && peerHost(p) == addr {
			return fmt.Errorf("rpc: peer %q is this member's own listen address %q", p, addr)
		}
	}
	return nil
}

// peerHost extracts the host:port from a peer base URL for self-reference
// checks ("http://127.0.0.1:7411" -> "127.0.0.1:7411").
func peerHost(p string) string {
	if u, err := url.Parse(p); err == nil && u.Host != "" {
		return u.Host
	}
	return strings.TrimPrefix(strings.TrimPrefix(p, "http://"), "https://")
}

// EnableFabric joins this daemon to the sharded serving fabric as the
// member advertised at self (a base URL the other members can reach).
// Ownership is hashed over self plus the current peer list; every member
// must be configured with the same total set. Tests call this after their
// ":0" listeners publish real ports; production configures FabricSelf.
func (d *Daemon) EnableFabric(self string) error {
	f, err := fabric.New(self, d.peerList(), d.cfg.FabricTimeout)
	if err != nil {
		return err
	}
	if old := d.fab.Swap(f); old != nil {
		old.Close()
	}
	return nil
}

// Fabric returns the fabric membership, nil when not joined.
func (d *Daemon) Fabric() *fabric.Fabric { return d.fab.Load() }

// Tenancy returns the per-tenant stats/quota registry (always non-nil).
func (d *Daemon) Tenancy() *fabric.Tenancy { return d.tenancy }

// upstreamURL is the primary this daemon follows ("" when it is primary).
func (d *Daemon) upstreamURL() string {
	s, _ := d.upstream.Load().(string)
	return s
}

// peerInfo reports this member's election credentials — the document
// served on /v1/replication/peer and fed to the local detector. On a
// follower the position is the confirmed offset in the *primary's* log
// (the quantity elections compare); on a primary it is its own committed
// end.
func (d *Daemon) peerInfo() watch.PeerInfo {
	pi := watch.PeerInfo{ID: d.id, Role: d.role()}
	if f := d.follower.Load(); f != nil && !d.primary.Load() {
		st := f.Status()
		pi.State = st.State
		pi.Primary = st.Primary
		pi.Epoch = st.Epoch
		pi.Gen = st.Gen
		pi.Offset = st.Confirmed
		pi.Frames = st.Frames
		pi.LagBytes = st.LagBytes
		pi.CaughtUp = st.State == replica.StateServingReads.String() || st.State == replica.StateCaughtUp.String()
		if w := d.watcher.Load(); w != nil {
			pi.SuspectsPrimary = w.Status().Suspected
		}
	} else {
		pos := d.store.ReplicationPos()
		pi.State = "primary"
		pi.Epoch = pos.Epoch
		pi.Gen = pos.Gen
		pi.Offset = pos.Offset
		pi.Frames = pos.Frames
		pi.CaughtUp = true
	}
	return pi
}

// Role-transition errors, mapped onto HTTP codes by the handlers.
var (
	// ErrNotReplica: Promote on a daemon that is already primary.
	ErrNotReplica = errors.New("rpc: not a replica")
	// ErrNotPrimary: Demote on a daemon that does not hold the write role.
	ErrNotPrimary = errors.New("rpc: not a primary")
	// ErrHandoverTimeout: the successor did not reach the sealed position
	// within the handover window; the demotion was rolled back.
	ErrHandoverTimeout = errors.New("rpc: handover timed out waiting for successor to drain")
	// ErrHandoverPromote: the successor refused promotion; rolled back.
	ErrHandoverPromote = errors.New("rpc: promoting successor failed")
)

// Promote turns a replica into the primary: the follower stops streaming,
// the store seals its WAL under a bumped fencing epoch (late frames from
// the dead primary are rejected from here on), and the write path —
// persistence taps, cache admission — is switched on. Returns the new
// epoch. Errors if the daemon is already a primary.
//
// Called by the operator (POST /v1/replication/promote), by the failure
// detector after winning an election, or by a demoting primary over HTTP.
// The detector is only signalled, not joined — PromoteSelf runs on the
// detector's own goroutine, which exits right after this returns.
func (d *Daemon) Promote() (uint64, error) {
	d.roleMu.Lock()
	defer d.roleMu.Unlock()
	f := d.follower.Load()
	if f == nil || d.primary.Load() {
		return 0, ErrNotReplica
	}
	// Signal-only: PromoteSelf runs on the detector's own goroutine, which
	// exits right after this returns; the handle stays stored so Shutdown
	// can join it.
	if w := d.watcher.Load(); w != nil {
		w.Stop()
	}
	epoch, err := f.Promote()
	if err != nil {
		return 0, err
	}
	d.installPrimaryTaps()
	d.cache.SetReadOnly(false)
	d.primary.Store(true)
	d.ready.Store(true)
	d.upstream.Store("")
	return epoch, nil
}

// Follow re-points a replica at a new primary: the old follower is closed
// (its goroutine joined), a fresh one streams from the winner, and
// readiness stays sticky — reads keep serving from the warm mirror while
// the new stream catches up. Called by the detector after losing an
// election, or by tests/operators re-forming a pair.
func (d *Daemon) Follow(primary string) error {
	d.roleMu.Lock()
	defer d.roleMu.Unlock()
	if d.primary.Load() {
		return fmt.Errorf("rpc: primary does not follow; demote it first")
	}
	f, err := d.newFollower(primary)
	if err != nil {
		return err
	}
	if old := d.follower.Load(); old != nil {
		old.Close()
	}
	d.follower.Store(f)
	d.upstream.Store(primary)
	f.Start()
	return nil
}

// Demote is the planned-handover path — the reverse of Promote, with zero
// restarts and reads serving throughout. The primary fences writes and
// seals its WAL at a frozen position, waits (bounded) for the successor to
// confirm that exact position, promotes it over HTTP, then re-wires itself
// as a read-only follower of the successor. Any failure before the
// successor's promotion rolls back cleanly: unseal, writes resume here.
func (d *Daemon) Demote(successor string, timeout time.Duration) (uint64, error) {
	d.roleMu.Lock()
	defer d.roleMu.Unlock()
	if !d.primary.Load() {
		return 0, ErrNotPrimary
	}
	if successor == "" {
		return 0, fmt.Errorf("rpc: successor URL required")
	}
	if timeout <= 0 {
		timeout = d.cfg.HandoverTimeout
	}

	d.demoting.Store(true)
	d.cache.SetReadOnly(true)
	sealed := d.store.Seal()
	rollback := func() {
		d.store.Unseal()
		d.cache.SetReadOnly(false)
		d.demoting.Store(false)
	}

	// The log is frozen; the successor's confirmed position is monotone, so
	// poll until it reaches the sealed end (a later generation also counts:
	// its snapshot contains everything this generation held).
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(timeout)
	caught := false
	for time.Now().Before(deadline) {
		pi, err := fetchPeerInfo(client, successor)
		if err == nil && pi.Role == "replica" &&
			(pi.Gen > sealed.Gen || (pi.Gen == sealed.Gen && pi.Offset >= sealed.Offset)) {
			caught = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !caught {
		rollback()
		return 0, fmt.Errorf("%w: sealed at (gen=%d, offset=%d)", ErrHandoverTimeout, sealed.Gen, sealed.Offset)
	}

	epoch, err := postPromote(client, successor)
	if err != nil {
		rollback()
		return 0, fmt.Errorf("%w: %v", ErrHandoverPromote, err)
	}

	// Point of no return: the successor holds a higher epoch, so this
	// store's frames would be fenced anyway. Flip to follower; the first
	// chunk ingested under the successor's epoch clears the seal.
	d.cache.SetInsertTap(nil)
	d.cache.SetInvalidateTap(nil)
	d.store.SetHintSource(nil)
	d.primary.Store(false)
	d.upstream.Store(successor)
	f, ferr := d.newFollower(successor)
	if ferr == nil {
		d.follower.Store(f)
		f.Start()
		if d.cfg.Watch {
			if wt, werr := d.newWatcher(successor); werr == nil {
				d.watcher.Store(wt)
				wt.Start()
			}
		}
	}
	d.handovers.Add(1)
	d.demoting.Store(false)
	return epoch, ferr
}

// fetchPeerInfo GETs a member's /v1/replication/peer document.
func fetchPeerInfo(client *http.Client, base string) (watch.PeerInfo, error) {
	resp, err := client.Get(base + "/v1/replication/peer")
	if err != nil {
		return watch.PeerInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return watch.PeerInfo{}, fmt.Errorf("rpc: peer %s: %s", base, resp.Status)
	}
	var pi watch.PeerInfo
	if err := json.NewDecoder(resp.Body).Decode(&pi); err != nil {
		return watch.PeerInfo{}, err
	}
	pi.URL = base
	return pi, nil
}

// postPromote POSTs /v1/replication/promote and returns the new epoch.
func postPromote(client *http.Client, base string) (uint64, error) {
	resp, err := client.Post(base+"/v1/replication/promote", "application/json", nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: %s", resp.Status, body)
	}
	var reply struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return 0, err
	}
	return reply.Epoch, nil
}

// Listen binds the configured address and, when AddrFile is set and the
// daemon is already booted, publishes the bound address there. (Run
// listens before booting and publishes afterwards, so an address file
// never points at a daemon that would answer 503 to its first request.)
func (d *Daemon) Listen() (net.Addr, error) {
	ln, err := net.Listen("tcp", d.cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: %w", err)
	}
	d.ln = ln
	if d.cfg.AddrFile != "" && d.booted.Load() {
		if err := d.publishAddr(); err != nil {
			ln.Close()
			return nil, err
		}
	}
	return ln.Addr(), nil
}

func (d *Daemon) publishAddr() error {
	if d.cfg.AddrFile == "" {
		return nil
	}
	if err := os.WriteFile(d.cfg.AddrFile, []byte(d.ln.Addr().String()), 0o644); err != nil {
		return fmt.Errorf("rpc: %w", err)
	}
	return nil
}

// Serve blocks serving HTTP until Shutdown. A graceful shutdown returns
// nil.
func (d *Daemon) Serve() error {
	if d.ln == nil {
		if _, err := d.Listen(); err != nil {
			return err
		}
	}
	err := d.srv.Serve(d.ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains in-flight HTTP requests, stops the follower, closes the
// engine, and folds the WAL into a final snapshot. Idempotent.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.closeOnce.Do(func() {
		var first error
		if err := d.srv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		// The handlers are drained: no forward is in flight, so closing
		// the relay closes every connection it holds to the members.
		if f := d.fab.Load(); f != nil {
			f.Close()
		}
		if wt := d.watcher.Load(); wt != nil {
			wt.Close()
		}
		if f := d.follower.Load(); f != nil {
			f.Close()
		}
		if d.engine != nil {
			d.engine.Close()
		}
		// The engine is drained: the cache fires no more taps, so the
		// final snapshot is complete.
		if d.store != nil {
			if err := d.store.Close(); err != nil && first == nil {
				first = err
			}
		}
		d.closeErr = first
	})
	return d.closeErr
}

// Run is the daemon main: listen, boot, serve, and drain on SIGTERM or
// SIGINT. The listener comes up before the store replays, so liveness and
// readiness are observable during a long boot; the address file is
// published only once the daemon is actually answering.
func Run(cfg Config) error {
	d, err := newShell(cfg)
	if err != nil {
		return err
	}
	addr, err := d.Listen()
	if err != nil {
		return err
	}

	errc := make(chan error, 1)
	go func() { errc <- d.Serve() }()

	if err := d.boot(); err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
		defer cancel()
		d.Shutdown(ctx)
		return err
	}
	if err := d.publishAddr(); err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
		defer cancel()
		d.Shutdown(ctx)
		return err
	}
	fmt.Fprintf(os.Stderr, "hetpartd: serving on %s as %s (store %s)\n", addr, d.role(), cfg.Dir)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)

	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "hetpartd: %v, draining\n", sig)
	case err := <-errc:
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), d.cfg.DrainTimeout)
	defer cancel()
	return d.Shutdown(ctx)
}
