package fabric

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Fabric is one member's view of the sharded serving fabric: the sorted
// member list, this member's position in it, the jump-hash ownership
// function, and the forwarding counters /v1/stats reports.
//
// Membership is static configuration (the -peers list plus this member's
// own advertised URL). Every member must be configured with the same
// total set — the member list is sorted before hashing, so the -peers
// orderings may differ, but a missing or extra member would send the
// same plan family to different owners from different edges. That costs
// warmth (both "owners" cache it), never correctness: every member can
// compute every plan.
type Fabric struct {
	members []string
	self    int
	peers   []*peer // relay state, index-aligned with members
	timeout time.Duration

	// Forwarded counts requests this member relayed to their owner;
	// RemoteHits the subset the owner answered from its warm cache.
	// ServedLocal counts requests this member owned and served itself;
	// FallbackLocal those it served locally because the owner was down
	// (ForwardErrors counts the failed attempts). ModelMismatch counts
	// requests served locally because the owner holds a different model
	// under the label, or none. ForwardedIn counts requests that arrived
	// carrying the forwarding fence header.
	Forwarded     atomic.Uint64
	ForwardErrors atomic.Uint64
	FallbackLocal atomic.Uint64
	ModelMismatch atomic.Uint64
	ServedLocal   atomic.Uint64
	RemoteHits    atomic.Uint64
	ForwardedIn   atomic.Uint64
}

// New builds a fabric member: self is this daemon's advertised base URL,
// peers the other members' (the -peers list), each an http:// base URL.
// Duplicates collapse; timeout bounds one forwarded request (default 2s).
func New(self string, peers []string, timeout time.Duration) (*Fabric, error) {
	if self == "" {
		return nil, fmt.Errorf("fabric: self URL is required")
	}
	seen := make(map[string]bool, len(peers)+1)
	members := make([]string, 0, len(peers)+1)
	for _, m := range append(append([]string(nil), peers...), self) {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		members = append(members, m)
	}
	sort.Strings(members)
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	f := &Fabric{members: members, self: -1, peers: make([]*peer, len(members)), timeout: timeout}
	for i, m := range members {
		if m == self {
			f.self = i
		}
		p, err := newPeer(m)
		if err != nil {
			return nil, err
		}
		f.peers[i] = p
	}
	return f, nil
}

// Members returns the sorted member list.
func (f *Fabric) Members() []string { return append([]string(nil), f.members...) }

// Self returns this member's advertised URL.
func (f *Fabric) Self() string { return f.members[f.self] }

// URL returns the base URL of the member at index i.
func (f *Fabric) URL(i int) string { return f.members[i] }

// IsSelf reports whether member index i is this member.
func (f *Fabric) IsSelf(i int) bool { return i == f.self }

// OwnerIndex assigns the (tenant, model family, n) plan family to a
// member. The family is the model name with any tenant prefix stripped
// (TenantSpan), so the bare and qualified spellings of a default-tenant
// model land on the same owner.
func (f *Fabric) OwnerIndex(tenant, family []byte, n int64) int {
	return jumpHash(ownerKey(tenant, family, n), len(f.members))
}

// ownerKey hashes the plan-family triple with FNV-1a, a NUL fence
// between parts so ("ab","c") and ("a","bc") cannot collide by
// concatenation.
func ownerKey(tenant, family []byte, n int64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range tenant {
		h = (h ^ uint64(b)) * prime64
	}
	h *= prime64 // h ^ 0x00
	for _, b := range family {
		h = (h ^ uint64(b)) * prime64
	}
	h *= prime64
	u := uint64(n)
	for i := 0; i < 8; i++ {
		h = (h ^ (u & 0xff)) * prime64
		u >>= 8
	}
	return h
}

// jumpHash is Lamping & Veach's jump consistent hash: O(ln buckets),
// no per-member state, and resizing the member list by one moves only
// 1/buckets of the keys. The float arithmetic is exact IEEE 754, so
// every member computes the same owner for the same key.
func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// ForwardModel relays a raw /v1/partition body to the member at owner
// under a fence carrying the edge's model fingerprint fp, and returns the
// owner's status, whether it answered from its warm cache (X-Hetpart-Tier:
// hit, set by owners on forwarded singles), and the response body
// verbatim, appended to dst. The body bytes pass through untouched in
// both directions: bit-identity of forwarded answers is a property of the
// relay, not a re-encoding.
func (f *Fabric) ForwardModel(owner int, fp uint64, body, dst []byte) (status int, hit bool, resp []byte, err error) {
	var fence [fenceLen]byte
	return f.relay(owner, appendFence(fence[:0], fp), body, dst)
}

// Forward is ForwardModel under the bare fence: the owner serves the
// body without a model check, into a fresh response buffer.
func (f *Fabric) Forward(owner int, body []byte) (status int, hit bool, resp []byte, err error) {
	return f.relay(owner, bareFence, body, nil)
}

// Close closes the relay's idle connections. Forwards in flight finish
// and close theirs; later forwards fail, and the edge computes locally.
func (f *Fabric) Close() {
	for _, p := range f.peers {
		p.close()
	}
}

// Status is the fabric block of /v1/stats.
type Status struct {
	Self          string   `json:"self"`
	Members       []string `json:"members"`
	Forwarded     uint64   `json:"forwarded"`
	ForwardErrors uint64   `json:"forwardErrors"`
	FallbackLocal uint64   `json:"fallbackLocal"`
	ModelMismatch uint64   `json:"modelMismatch"`
	ServedLocal   uint64   `json:"servedLocal"`
	RemoteHits    uint64   `json:"remoteHits"`
	ForwardedIn   uint64   `json:"forwardedIn"`
}

// Status snapshots the counters.
func (f *Fabric) Status() Status {
	return Status{
		Self:          f.Self(),
		Members:       f.Members(),
		Forwarded:     f.Forwarded.Load(),
		ForwardErrors: f.ForwardErrors.Load(),
		FallbackLocal: f.FallbackLocal.Load(),
		ModelMismatch: f.ModelMismatch.Load(),
		ServedLocal:   f.ServedLocal.Load(),
		RemoteHits:    f.RemoteHits.Load(),
		ForwardedIn:   f.ForwardedIn.Load(),
	}
}
