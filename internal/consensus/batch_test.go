package consensus

import (
	"fmt"
	"testing"
	"time"

	"wanamcast/internal/trace"
	"wanamcast/internal/types"
)

// testItem is a minimal batch element.
type testItem struct {
	ID types.MessageID
	V  int
}

func (it testItem) ItemID() types.MessageID { return it.ID }

func mid(seq uint64) types.MessageID { return types.MessageID{Origin: 0, Seq: seq} }

// fakeAPI satisfies node.API without a runtime: sends are recorded, timers
// are captured (never fired), and the clock stands still. Enough for
// white-box Batcher tests that drive decisions by hand.
type fakeAPI struct {
	topo    *types.Topology
	self    types.ProcessID
	sends   []string
	timers  []func()
	batches []int
}

func (f *fakeAPI) Self() types.ProcessID { return f.self }
func (f *fakeAPI) Group() types.GroupID  { return f.topo.GroupOf(f.self) }
func (f *fakeAPI) Topo() *types.Topology { return f.topo }
func (f *fakeAPI) Now() time.Duration    { return 0 }
func (f *fakeAPI) Clock() int64          { return 0 }
func (f *fakeAPI) Crashed() bool         { return false }
func (f *fakeAPI) Send(to types.ProcessID, proto string, body any) {
	f.sends = append(f.sends, fmt.Sprintf("%v/%s/%T", to, proto, body))
}
func (f *fakeAPI) Multicast(tos []types.ProcessID, proto string, body any) {
	for _, q := range tos {
		f.Send(q, proto, body)
	}
}
func (f *fakeAPI) After(d time.Duration, fn func())          { f.timers = append(f.timers, fn) }
func (f *fakeAPI) RecordCast(types.MessageID)                {}
func (f *fakeAPI) RecordDeliver(types.MessageID)             {}
func (f *fakeAPI) RecordConsensus()                          {}
func (f *fakeAPI) RecordBatch(size int)                      { f.batches = append(f.batches, size) }
func (f *fakeAPI) Tracef(string, ...any)                     {}
func (f *fakeAPI) Trace(trace.Stage, types.MessageID, int64) {}
func (f *fakeAPI) Tracing() bool                             { return false }
func (f *fakeAPI) Debugging() bool                           { return false }

// fakeDet is an Ω stub whose leader never changes.
type fakeDet struct{ leader types.ProcessID }

func (d fakeDet) Leader(types.GroupID) types.ProcessID           { return d.leader }
func (d fakeDet) Subscribe(func(types.GroupID, types.ProcessID)) {}

// batchRig is one Batcher over a scripted queue of proposable items.
type batchRig struct {
	api     *fakeAPI
	b       *Batcher[testItem]
	queue   []testItem
	applied [][]testItem
	applyIn []uint64
	decided []uint64
}

func newBatchRig(maxBatch, pipeline int) *batchRig {
	r := &batchRig{api: &fakeAPI{topo: types.NewTopology(1, 3), self: 0}}
	r.b = NewBatcher(BatcherConfig[testItem]{
		API:      r.api,
		Detector: fakeDet{leader: 0},
		MaxBatch: maxBatch,
		Pipeline: pipeline,
		Fill: func(exclude func(types.MessageID) bool, limit int) []testItem {
			var out []testItem
			for _, it := range r.queue {
				if exclude(it.ID) {
					continue
				}
				out = append(out, it)
				if limit > 0 && len(out) == limit {
					break
				}
			}
			return out
		},
		OnDecide: func(inst uint64, batch []testItem) { r.decided = append(r.decided, inst) },
		OnApply: func(inst uint64, batch []testItem) {
			r.applyIn = append(r.applyIn, inst)
			r.applied = append(r.applied, batch)
			// Applied items leave the queue (the client's bookkeeping).
			keep := r.queue[:0]
			for _, it := range r.queue {
				inBatch := false
				for _, d := range batch {
					if d.ID == it.ID {
						inBatch = true
					}
				}
				if !inBatch {
					keep = append(keep, it)
				}
			}
			r.queue = keep
		},
	})
	return r
}

func (r *batchRig) enqueue(n int) {
	for i := 0; i < n; i++ {
		r.queue = append(r.queue, testItem{ID: mid(uint64(len(r.queue) + 1))})
	}
}

// TestBatcherWindowAndCap: with Pipeline=2 and MaxBatch=2, five items fill
// exactly two instances of two items; the fifth waits for the window.
func TestBatcherWindowAndCap(t *testing.T) {
	r := newBatchRig(2, 2)
	r.enqueue(5)
	r.b.Pump()
	if got := r.b.NextInstance(); got != 3 {
		t.Fatalf("NextInstance = %d, want 3 (two instances proposed)", got)
	}
	for i := 1; i <= 4; i++ {
		if !r.b.InFlight(mid(uint64(i))) {
			t.Errorf("item %d should be in flight", i)
		}
	}
	if r.b.InFlight(mid(5)) {
		t.Error("item 5 should wait for the window")
	}
	// Deciding instance 1 applies it, reopens the window, and proposes the
	// fifth item in instance 3.
	r.b.decided(1, []testItem{{ID: mid(1)}, {ID: mid(2)}})
	if got := r.b.NextInstance(); got != 4 {
		t.Fatalf("NextInstance = %d after apply, want 4", got)
	}
	if !r.b.InFlight(mid(5)) {
		t.Error("item 5 should now be in flight")
	}
}

// TestBatcherOutOfOrderApply: decisions arriving as 3,1,2 must fire
// OnDecide in that order but OnApply strictly as 1,2,3.
func TestBatcherOutOfOrderApply(t *testing.T) {
	r := newBatchRig(1, 3)
	r.enqueue(3)
	r.b.Pump()
	if got := r.b.NextInstance(); got != 4 {
		t.Fatalf("NextInstance = %d, want 4 (three in flight)", got)
	}
	r.b.decided(3, []testItem{{ID: mid(3)}})
	r.b.decided(1, []testItem{{ID: mid(1)}})
	r.b.decided(2, []testItem{{ID: mid(2)}})
	wantDec := []uint64{3, 1, 2}
	wantApp := []uint64{1, 2, 3}
	for i, w := range wantDec {
		if r.decided[i] != w {
			t.Fatalf("OnDecide order = %v, want %v", r.decided, wantDec)
		}
	}
	for i, w := range wantApp {
		if r.applyIn[i] != w {
			t.Fatalf("OnApply order = %v, want %v", r.applyIn, wantApp)
		}
	}
	if len(r.applied[0]) != 1 || r.applied[0][0].ID != mid(1) {
		t.Fatalf("instance 1 applied %v", r.applied[0])
	}
}

// TestBatcherDroppedItemsReproposed: when a rival proposal wins an
// instance, the loser's items leave in-flight at apply time and ride the
// next instance.
func TestBatcherDroppedItemsReproposed(t *testing.T) {
	r := newBatchRig(0, 1)
	r.enqueue(2)
	r.b.Pump() // proposes both items in instance 1
	if got := r.b.NextInstance(); got != 2 {
		t.Fatalf("NextInstance = %d, want 2", got)
	}
	rival := types.MessageID{Origin: 2, Seq: 9}
	r.b.decided(1, []testItem{{ID: rival}}) // rival won instance 1
	// Applying instance 1 released the dropped items and the engine's own
	// re-pump immediately proposed them again in instance 2.
	if got := r.b.NextInstance(); got != 3 {
		t.Fatalf("NextInstance = %d, want 3 (re-proposal happened)", got)
	}
	if !r.b.InFlight(mid(1)) || !r.b.InFlight(mid(2)) {
		t.Fatal("dropped items must be re-proposed")
	}
	// Winning instance 2 releases them for good.
	r.b.decided(2, []testItem{{ID: mid(1)}, {ID: mid(2)}})
	if r.b.InFlight(mid(1)) || r.b.InFlight(mid(2)) {
		t.Fatal("items stuck in flight after their instance applied")
	}
}

// TestBatcherNextSyncsPastAppliedInstances: a process that proposed
// nothing while rivals drove instances forward must not propose an
// already-decided instance (which would strand its items in flight).
func TestBatcherNextSyncsPastAppliedInstances(t *testing.T) {
	r := newBatchRig(0, 1)
	r.b.decided(1, []testItem{{ID: types.MessageID{Origin: 1, Seq: 1}}})
	r.b.decided(2, []testItem{{ID: types.MessageID{Origin: 1, Seq: 2}}})
	if got := r.b.AppliedInstances(); got != 2 {
		t.Fatalf("AppliedInstances = %d, want 2", got)
	}
	if got := r.b.NextInstance(); got != 3 {
		t.Fatalf("NextInstance = %d, want 3 (synced past applied)", got)
	}
	r.enqueue(1)
	r.b.Pump()
	if !r.b.InFlight(mid(1)) {
		t.Fatal("fresh item should be in flight in instance 3")
	}
	// Deciding instance 3 releases it.
	r.b.decided(3, []testItem{{ID: mid(1)}})
	if r.b.InFlight(mid(1)) {
		t.Fatal("item stuck in flight after its instance applied")
	}
}

// TestBatcherEmptyBatchesNeedAGate: with a nil Gate the engine never
// proposes an empty batch; with a permissive gate it does (A2's keepalive
// rounds rely on this).
func TestBatcherEmptyBatchesNeedAGate(t *testing.T) {
	r := newBatchRig(0, 1)
	r.b.Pump()
	if got := r.b.NextInstance(); got != 1 {
		t.Fatalf("NextInstance = %d, want 1 (nothing to propose)", got)
	}

	gated := &batchRig{api: &fakeAPI{topo: types.NewTopology(1, 3), self: 0}}
	gated.b = NewBatcher(BatcherConfig[testItem]{
		API:      gated.api,
		Detector: fakeDet{leader: 0},
		Fill:     func(func(types.MessageID) bool, int) []testItem { return nil },
		Gate:     func(inst uint64, batch []testItem) bool { return inst <= 2 },
		OnApply:  func(uint64, []testItem) {},
	})
	gated.b.Pump()
	if got := gated.b.NextInstance(); got != 2 {
		t.Fatalf("NextInstance = %d, want 2 (one empty instance gated in)", got)
	}
}

// TestBatcherRecordsBatchSizes: every decided instance reports its batch
// size to the metrics API.
func TestBatcherRecordsBatchSizes(t *testing.T) {
	r := newBatchRig(0, 2)
	r.enqueue(3)
	r.b.Pump()
	r.b.decided(1, []testItem{{ID: mid(1)}, {ID: mid(2)}, {ID: mid(3)}})
	r.b.decided(2, nil)
	if len(r.api.batches) != 2 || r.api.batches[0] != 3 || r.api.batches[1] != 0 {
		t.Fatalf("recorded batches = %v, want [3 0]", r.api.batches)
	}
}
