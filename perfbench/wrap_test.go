package main

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"wanamcast"
	"wanamcast/internal/harness"
	"wanamcast/internal/storage"
	"wanamcast/internal/svc"
	"wanamcast/internal/types"
)

func TestTimedStoreForwardsSyncStore(t *testing.T) {
	disk, err := storage.OpenDisk(t.TempDir(), storage.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spans := newSpanLog()
	var store storage.Store = &timedStore{SyncStore: disk, proc: 3, spans: spans}
	ss, ok := store.(storage.SyncStore)
	if !ok {
		t.Fatal("timedStore is not a storage.SyncStore: FsyncStats and group commit would not see the disk")
	}
	rec := storage.Record{Kind: storage.KindAdmit, Proto: "a1", Inst: 7}
	for _, step := range []func() error{
		func() error { return ss.Append(rec) },
		ss.Flush, ss.Sync, ss.Maintain,
		func() error { return ss.Append(rec) },
		ss.Commit,
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if ss.Fsyncs() != disk.Fsyncs() || disk.Fsyncs() != 2 {
		t.Fatalf("wrapper reports %d fsyncs, disk %d; want 2 each (Sync + Commit)", ss.Fsyncs(), disk.Fsyncs())
	}
	var replayed []storage.Record
	if err := ss.Replay(0, func(r storage.Record) error { replayed = append(replayed, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 2 || replayed[0].Inst != 7 {
		t.Fatalf("replayed %+v, want the two appended records", replayed)
	}
	if got := len(spans.named(spanStorageAppend)); got != 2 {
		t.Fatalf("%d append spans, want 2", got)
	}
	commits := spans.named(spanStorageCommit)
	if len(commits) != 1 || commits[0].key != procKey(3) {
		t.Fatalf("commit spans %+v, want one keyed by p3", commits)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFsyncStatsSeeThroughTimedStore(t *testing.T) {
	mems := []*storage.Mem{storage.NewMem(), storage.NewMem(), storage.NewMem()}
	l := wanamcast.NewLiveCluster(wanamcast.LiveConfig{
		Groups: 1, PerGroup: 3, BasePort: 1, // never started: no port is bound
		StoreFor: func(p wanamcast.ProcessID) storage.Store {
			return &timedStore{SyncStore: mems[p], proc: p}
		},
	})
	defer l.Stop()
	for _, m := range mems {
		if err := m.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.FsyncStats().Fsyncs; got != 3 {
		t.Fatalf("FsyncStats().Fsyncs = %d through the wrapper, want 3", got)
	}
}

// fakeCluster records what the svc.Cluster wrapper hands it. With
// deliverEarly, Multicast runs the origin's delivery hooks before
// returning, as a fast local ordering can.
type fakeCluster struct {
	from         types.ProcessID
	payload      any
	groups       []types.GroupID
	hooks        map[types.ProcessID][]func(types.MessageID, any)
	deliverEarly bool
}

func (f *fakeCluster) Multicast(from types.ProcessID, payload any, groups ...types.GroupID) types.MessageID {
	f.from, f.payload, f.groups = from, payload, groups
	id := types.MessageID{Origin: from, Seq: 9}
	if f.deliverEarly {
		f.deliver(from, id, payload)
	}
	return id
}

func (f *fakeCluster) OnDeliverAt(p types.ProcessID, fn func(types.MessageID, any)) {
	f.hooks[p] = append(f.hooks[p], fn)
}

func (f *fakeCluster) deliver(p types.ProcessID, id types.MessageID, payload any) {
	for _, h := range f.hooks[p] {
		h(id, payload)
	}
}

func TestTimedClusterForwardsUnchanged(t *testing.T) {
	for _, early := range []bool{false, true} {
		fake := &fakeCluster{hooks: make(map[types.ProcessID][]func(types.MessageID, any)), deliverEarly: early}
		spans := newSpanLog()
		tc := newTimedCluster(fake, 3, spans)
		type call struct {
			id      types.MessageID
			payload any
		}
		var got []call
		var appliedKey spanKey
		tc.OnDeliverAt(2, func(id types.MessageID, payload any) {
			got = append(got, call{id, payload})
			appliedKey = tc.applying[2]
		})
		if len(fake.hooks[2]) != 1 {
			t.Fatalf("early=%v: hook not installed on the inner cluster", early)
		}
		cmd := svc.Command{Session: 4, Seq: 5, Op: []byte{1, 2}}
		id := tc.Multicast(2, cmd, 0, 1)
		if want := (types.MessageID{Origin: 2, Seq: 9}); id != want {
			t.Fatalf("early=%v: Multicast returned %v, want the inner cluster's %v", early, id, want)
		}
		if fake.from != 2 || !reflect.DeepEqual(fake.payload, cmd) || !reflect.DeepEqual(fake.groups, []types.GroupID{0, 1}) {
			t.Fatalf("early=%v: inner cluster got (%v, %v, %v), want (2, %v, [0 1])", early, fake.from, fake.payload, fake.groups, cmd)
		}
		if !early {
			fake.deliver(2, id, cmd)
		}
		fake.deliver(2, types.MessageID{Origin: 1, Seq: 3}, "other traffic")
		want := []call{{id, cmd}, {types.MessageID{Origin: 1, Seq: 3}, "other traffic"}}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("early=%v: hook saw %v, want %v", early, got, want)
		}
		if appliedKey != (spanKey{}) || tc.applying[2] != (spanKey{}) {
			t.Fatalf("early=%v: applying key leaked past its delivery", early)
		}
		if n := len(spans.named(spanSvcSubmit)); n != 1 {
			t.Fatalf("early=%v: %d submit spans, want 1", early, n)
		}
		order := spans.named(spanSvcOrder)
		if len(order) != 1 || order[0].key != kvKey(4, 5) {
			t.Fatalf("early=%v: order spans %+v, want one keyed (4, 5)", early, order)
		}
	}
}

func TestTracedSimReproducesCounts(t *testing.T) {
	sp := simSpec{algo: harness.AlgoA1, proto: "a1", layer: "amcast", groups: 4, rate: 1000, casts: 400, crash: true}
	casts, fault := simSchedule(sp, types.NewTopology(sp.groups, 3), 5)
	plain := runSimRep(sp, casts, fault, 5, nil)
	spans := newSpanLog()
	traced := runSimRep(sp, casts, fault, 5, spans)
	if len(plain.violations) > 0 || len(traced.violations) > 0 {
		t.Fatalf("violations: %v / %v", plain.violations, traced.violations)
	}
	if plain.events != traced.events {
		t.Fatalf("events: untraced %d, traced %d", plain.events, traced.events)
	}
	if a, b := plain.stats.InterGroupMessages, traced.stats.InterGroupMessages; a != b {
		t.Fatalf("WAN messages: untraced %d, traced %d", a, b)
	}
	if a, b := plain.stats.ConsensusInstances, traced.stats.ConsensusInstances; a != b {
		t.Fatalf("learns: untraced %d, traced %d", a, b)
	}
	if !reflect.DeepEqual(plain.lat, traced.lat) {
		t.Fatal("virtual latencies differ between the untraced and the traced run")
	}
	if n := len(spans.named(spanSimCast)); n != len(casts) {
		t.Fatalf("%d cast spans, want %d", n, len(casts))
	}
}

func TestInflightCountsCompletions(t *testing.T) {
	f := &inflight{missing: make(map[types.MessageID]int), wake: make(chan struct{}, 1)}
	a, b := types.MessageID{Origin: 1, Seq: 1}, types.MessageID{Origin: 2, Seq: 1}
	f.delivered(a) // before Multicast returned
	f.track(a, 2)
	f.track(b, 3)
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(2)
		go func() { defer wg.Done(); f.delivered(b) }()
		go func() { defer wg.Done(); f.delivered(types.MessageID{Origin: 9, Seq: 9}) }() // untracked traffic
	}
	f.delivered(a)
	wg.Wait()
	for i := range 2 {
		if !f.take(time.Second) {
			t.Fatalf("completion %d not taken", i)
		}
	}
	if f.take(10 * time.Millisecond) {
		t.Fatal("took a third completion; two casts completed")
	}
	// A faulty run's duplicate deliveries must not block the deliverer.
	for range 100 {
		f.delivered(a)
	}
}
