package replica

import (
	"testing"
	"time"

	"heteropart/internal/faults"
	"heteropart/internal/store"
)

// TestMultiFollowerFanOutLinkDown: two followers pull the same primary,
// each through its own link-severing proxy, with staggered outage windows
// driven by a faults plan while the primary keeps appending. Both must
// converge to the primary's exact plan set with zero corrupt frames and
// identical replication positions — the precondition for a meaningful
// lag-based election.
func TestMultiFollowerFanOutLinkDown(t *testing.T) {
	planA, err := faults.ParseSpecs([]string{"link@t=0.05s,for=0.1s", "link@t=0.3s,for=0.1s"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	planB, err := faults.ParseSpecs([]string{"link@t=0.15s,for=0.15s"}, nil)
	if err != nil {
		t.Fatal(err)
	}

	p := newPair(t, 5, "", Config{}) // primary + follower A's store
	proxyA := newFlakyProxy(t, p.srv.URL)
	proxyB := newFlakyProxy(t, p.srv.URL)

	fa, err := NewFollower(Config{
		Primary: proxyA.URL(), Store: p.fst,
		Wait: 50 * time.Millisecond, BackoffBase: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	bst := mustOpen(t, t.TempDir(), store.Options{})
	fb, err := NewFollower(Config{
		Primary: proxyB.URL(), Store: bst,
		Wait: 50 * time.Millisecond, BackoffBase: 7 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fa.Start()
	fb.Start()
	t.Cleanup(fa.Close)
	t.Cleanup(fb.Close)

	waitFor(t, "both followers serving", func() bool {
		return fa.State() == StateServingReads && fb.State() == StateServingReads
	})

	// Drive both outage schedules while the primary keeps writing: each
	// follower misses a different slice of the stream live and must fetch
	// it on reconnect.
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		at := func(sec float64) { time.Sleep(time.Until(start.Add(time.Duration(sec * float64(time.Second))))) }
		type edge struct {
			t     float64
			proxy *flakyProxy
			down  bool
		}
		var edges []edge
		for _, w := range planA.LinkDowns() {
			edges = append(edges, edge{w[0], proxyA, true}, edge{w[1], proxyA, false})
		}
		for _, w := range planB.LinkDowns() {
			edges = append(edges, edge{w[0], proxyB, true}, edge{w[1], proxyB, false})
		}
		for i := range edges { // insertion sort; the lists are tiny
			for j := i; j > 0 && edges[j].t < edges[j-1].t; j-- {
				edges[j], edges[j-1] = edges[j-1], edges[j]
			}
		}
		sizes := int64(10e6)
		for _, e := range edges {
			at(e.t)
			e.proxy.setDown(e.down)
			if e.down { // frames appended while at least one link is out
				appendPlans(t, p.prim, p.fp, p.fns, sizes, sizes+1e6)
				sizes += 2e6
			}
		}
	}()
	<-done

	primDigest := planDigest(p.prim.Plans())
	end := p.prim.ReplicationPos()
	// A follower's store shows an ingested chunk's plans before its
	// Status counts the chunk's bytes and frames, so wait for both.
	confirmedEnd := func(st Status) bool {
		return st.Gen == end.Gen && st.Confirmed == end.Offset && st.Frames == end.Frames
	}
	waitFor(t, "both followers converged", func() bool {
		return planDigest(p.fst.Plans()) == primDigest &&
			planDigest(bst.Plans()) == primDigest &&
			confirmedEnd(fa.Status()) && confirmedEnd(fb.Status())
	})

	sa, sb := fa.Status(), fb.Status()
	for name, st := range map[string]Status{"A": sa, "B": sb} {
		if st.Corrupt != 0 {
			t.Errorf("follower %s saw %d corrupt frames during clean link-downs", name, st.Corrupt)
		}
		if st.Reconnects == 0 {
			t.Errorf("follower %s never reconnected — its proxy never dropped?", name)
		}
	}
	// Identical replication positions: both followers confirmed exactly the
	// primary's committed end of the primary's current generation. (Local
	// store offsets differ when re-handoffs landed at different times; the
	// position that must agree is the one in the primary's log.)
	for name, st := range map[string]Status{"A": sa, "B": sb} {
		if st.Gen != end.Gen || st.Confirmed != end.Offset || st.Frames != end.Frames {
			t.Errorf("follower %s at (gen=%d, offset=%d, frames=%d), primary at (gen=%d, offset=%d, frames=%d)",
				name, st.Gen, st.Confirmed, st.Frames, end.Gen, end.Offset, end.Frames)
		}
	}
	if sa.Gen != sb.Gen || sa.Confirmed != sb.Confirmed || sa.Frames != sb.Frames {
		t.Errorf("followers disagree: A=(%d,%d,%d) B=(%d,%d,%d)",
			sa.Gen, sa.Confirmed, sa.Frames, sb.Gen, sb.Confirmed, sb.Frames)
	}
}
