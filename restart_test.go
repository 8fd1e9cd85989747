package wanamcast

import (
	"fmt"
	"testing"
	"time"

	"wanamcast/internal/storage"
)

// restartCluster builds a started, checked, durable (in-memory stores)
// cluster with fast timing for crash/restart tests.
//
// The root package's restart tests listen on 31000–31999, a block no
// other package's tests use: `go test ./...` runs packages in parallel,
// and the tcp package's tests own 21100–22099.
func restartCluster(t *testing.T, basePort int) (*LiveCluster, []storage.Store) {
	t.Helper()
	stores := make([]storage.Store, 6)
	for i := range stores {
		stores[i] = storage.NewMem()
	}
	cl := NewLiveCluster(LiveConfig{
		Groups:   2,
		PerGroup: 3,
		BasePort: basePort,
		WANDelay: 5 * time.Millisecond,
		Check:    true,
		MaxBatch: 64,
		Pipeline: 2,
		StoreFor: func(p ProcessID) storage.Store { return stores[p] },
	})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return cl, stores
}

// TestRestartRecoversAndCatchesUpA1 is the core recovery scenario on
// Algorithm A1: a replica crashes, the cluster keeps ordering without it,
// the replica restarts from its durable store, catches up the missed
// messages from live peers, and the §2.2 properties hold with the replica
// counted as CORRECT again. (A1 and A2 are exercised in separate tests:
// they are independent total orders, so one checked run must not mix
// them.)
func TestRestartRecoversAndCatchesUpA1(t *testing.T) {
	cl, _ := restartCluster(t, 31000)
	g01 := []GroupID{0, 1}

	for i := 0; i < 5; i++ {
		cl.Multicast(cl.Process(0, i%3), fmt.Sprintf("pre-%d", i), g01...)
	}
	if v := cl.WaitPropertiesClean(10 * time.Second); len(v) != 0 {
		t.Fatalf("pre-crash violations: %v", v)
	}

	victim := cl.Process(0, 1) // not g0's initial leader: ordering continues
	cl.Crash(victim)

	// Traffic the victim misses entirely.
	var missed []MessageID
	for i := 0; i < 8; i++ {
		missed = append(missed, cl.Multicast(cl.Process(0, 0), fmt.Sprintf("mid-%d", i), g01...))
	}
	// Every LIVE process delivers them (5 of 6).
	for _, id := range missed {
		if !cl.WaitDelivered(id, 5, 10*time.Second) {
			t.Fatalf("live cluster did not deliver %v while %v was down", id, victim)
		}
	}

	if err := cl.Restart(victim); err != nil {
		t.Fatalf("Restart(%v): %v", victim, err)
	}

	// The restarted replica catches up everything it missed...
	for _, id := range missed {
		if !cl.WaitDelivered(id, 6, 15*time.Second) {
			t.Fatalf("restarted %v never caught up on %v", victim, id)
		}
	}
	// ...participates in fresh traffic...
	post := cl.Multicast(cl.Process(1, 2), "post", g01...)
	if !cl.WaitDelivered(post, 6, 10*time.Second) {
		t.Fatalf("post-restart multicast not fully delivered")
	}
	// ...and the §2.2 properties hold with the victim treated as correct.
	if v := cl.WaitPropertiesClean(15 * time.Second); len(v) != 0 {
		t.Fatalf("post-restart violations: %v", v)
	}
}

// TestRestartRecoversAndCatchesUpA2 is the same scenario on Algorithm A2's
// round-based ordering: the restarted replica recovers its delivery round
// from disk and adopts the completed rounds it missed from peers.
func TestRestartRecoversAndCatchesUpA2(t *testing.T) {
	cl, _ := restartCluster(t, 31200)

	for i := 0; i < 5; i++ {
		cl.Broadcast(cl.Process(1, i%3), fmt.Sprintf("bpre-%d", i))
	}
	if v := cl.WaitPropertiesClean(10 * time.Second); len(v) != 0 {
		t.Fatalf("pre-crash violations: %v", v)
	}

	victim := cl.Process(0, 1)
	cl.Crash(victim)

	var missed []MessageID
	for i := 0; i < 8; i++ {
		missed = append(missed, cl.Broadcast(cl.Process(1, 0), fmt.Sprintf("bmid-%d", i)))
	}
	for _, id := range missed {
		if !cl.WaitDelivered(id, 5, 10*time.Second) {
			t.Fatalf("live cluster did not deliver %v while %v was down", id, victim)
		}
	}

	if err := cl.Restart(victim); err != nil {
		t.Fatalf("Restart(%v): %v", victim, err)
	}

	for _, id := range missed {
		if !cl.WaitDelivered(id, 6, 15*time.Second) {
			t.Fatalf("restarted %v never caught up on %v", victim, id)
		}
	}
	post := cl.Broadcast(cl.Process(0, 1), "bpost")
	if !cl.WaitDelivered(post, 6, 10*time.Second) {
		t.Fatalf("post-restart broadcast not fully delivered")
	}
	if v := cl.WaitPropertiesClean(15 * time.Second); len(v) != 0 {
		t.Fatalf("post-restart violations: %v", v)
	}
}

// TestFullGroupRestart pins the group-wide power-event case: EVERY member
// of a group crashes and restarts. While all members are syncing nobody
// can serve authoritative state, so the Busy tie-breaker must let them
// agree that nothing newer exists and resume — a politeness deadlock here
// would gate the group's delivery forever.
func TestFullGroupRestart(t *testing.T) {
	cl, _ := restartCluster(t, 31800)
	g01 := []GroupID{0, 1}

	for i := 0; i < 6; i++ {
		cl.Multicast(cl.Process(GroupID(i%2), i%3), fmt.Sprintf("pre-%d", i), g01...)
	}
	if v := cl.WaitPropertiesClean(10 * time.Second); len(v) != 0 {
		t.Fatalf("pre-crash violations: %v", v)
	}

	// The whole of group 0 goes down at once.
	for i := 0; i < 3; i++ {
		cl.Crash(cl.Process(0, i))
	}
	for i := 0; i < 3; i++ {
		if err := cl.Restart(cl.Process(0, i)); err != nil {
			t.Fatalf("Restart(%v): %v", cl.Process(0, i), err)
		}
	}

	// The revived group must order and deliver fresh traffic (this is
	// where a sync politeness deadlock would hang forever).
	post := cl.Multicast(cl.Process(1, 0), "post-full-restart", g01...)
	if !cl.WaitDelivered(post, 6, 20*time.Second) {
		t.Fatalf("group did not recover from a full-group restart")
	}
	own := cl.Multicast(cl.Process(0, 0), "from-revived-group", g01...)
	if !cl.WaitDelivered(own, 6, 20*time.Second) {
		t.Fatalf("revived group cannot originate multicasts")
	}
	if v := cl.WaitPropertiesClean(20 * time.Second); len(v) != 0 {
		t.Fatalf("post-restart violations: %v", v)
	}
}

// TestRestartRequiresDurableStore pins the error contract.
func TestRestartRequiresDurableStore(t *testing.T) {
	cl := NewLiveCluster(LiveConfig{
		Groups: 1, PerGroup: 2, BasePort: 31100, WANDelay: time.Millisecond,
	})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	p := cl.Process(0, 0)
	if err := cl.Restart(p); err == nil {
		t.Fatal("Restart of a non-crashed process must fail")
	}
	cl.Crash(p)
	if err := cl.Restart(p); err == nil {
		t.Fatal("Restart without a durable store must fail")
	}
}

// TestRestartCatchUpMultiChunkA1 pins the catch-up traffic of an A1
// replica that missed ten chunks' worth of deliveries. Each answer that
// applies a chunk asks for the next one; stale and duplicate answers from
// the other group peer must not ask again, or every chunk would double
// the requests (2 400 missed deliveries once cost ~2 570 A1 frames).
func TestRestartCatchUpMultiChunkA1(t *testing.T) {
	cl, _ := restartCluster(t, 31300)
	victim := cl.Process(0, 1)
	cl.Crash(victim)

	const missed = 2400
	ids := make([]MessageID, 0, missed)
	for i := 0; i < missed; i++ {
		ids = append(ids, cl.Multicast(cl.Process(0, 0), fmt.Sprintf("m-%d", i), 0))
	}
	for _, id := range ids {
		if !cl.WaitDelivered(id, 2, 30*time.Second) {
			t.Fatalf("live group members did not deliver %v", id)
		}
	}

	// No casts from here on: every A1-label frame is catch-up traffic.
	before := cl.Stats().PerProtocol["a1"].Total
	if err := cl.Restart(victim); err != nil {
		t.Fatalf("Restart(%v): %v", victim, err)
	}
	for _, id := range ids {
		if !cl.WaitDelivered(id, 3, 30*time.Second) {
			t.Fatalf("restarted %v never caught up on %v", victim, id)
		}
	}
	time.Sleep(300 * time.Millisecond) // answers still in flight
	frames := cl.Stats().PerProtocol["a1"].Total - before
	t.Logf("catching up %d deliveries took %d A1 frames", missed, frames)
	if frames > 100 {
		t.Fatalf("catching up %d deliveries took %d A1 frames, want <= 100", missed, frames)
	}
	if v := cl.WaitPropertiesClean(30 * time.Second); len(v) != 0 {
		t.Fatalf("post-restart violations: %v", v)
	}
}

// TestRestartCatchUpMultiChunkA2 is the A2 counterpart: the replica misses
// more than two chunks (128 rounds each) of completed rounds, adopts them
// all from its peers, and then completes fresh rounds with the group. The
// last step pins the engine horizon: a peer may have decided rounds that
// still wait for remote bundles, and a requester that skipped those
// instances stayed stuck at that round for good.
func TestRestartCatchUpMultiChunkA2(t *testing.T) {
	cl, _ := restartCluster(t, 31500)
	round := func(p ProcessID) (k uint64) {
		cl.rt.Run(p, func() { k = cl.a2[p].Round() })
		return k
	}
	victim := cl.Process(0, 1)
	from := round(victim)
	cl.Crash(victim)

	var ids []MessageID
	deadline := time.Now().Add(60 * time.Second)
	for round(cl.Process(0, 0)) < from+2*128+10 {
		if time.Now().After(deadline) {
			t.Fatalf("group completed only %d rounds past %d", round(cl.Process(0, 0))-from, from)
		}
		for i := 0; i < 4; i++ {
			ids = append(ids, cl.Broadcast(cl.Process(GroupID(i%2), 2), fmt.Sprintf("b-%d", len(ids))))
			time.Sleep(time.Millisecond)
		}
	}
	for _, id := range ids {
		if !cl.WaitDelivered(id, 5, 30*time.Second) {
			t.Fatalf("live processes did not deliver %v", id)
		}
	}
	t.Logf("%v missed rounds %d..%d", victim, from, round(cl.Process(0, 0)))

	if err := cl.Restart(victim); err != nil {
		t.Fatalf("Restart(%v): %v", victim, err)
	}
	for _, id := range ids {
		if !cl.WaitDelivered(id, 6, 30*time.Second) {
			t.Fatalf("restarted %v never caught up on %v", victim, id)
		}
	}
	post := cl.Broadcast(cl.Process(1, 0), "post")
	if !cl.WaitDelivered(post, 6, 10*time.Second) {
		t.Fatalf("post-restart broadcast not fully delivered")
	}
	if v := cl.WaitPropertiesClean(30 * time.Second); len(v) != 0 {
		t.Fatalf("post-restart violations: %v", v)
	}
}
