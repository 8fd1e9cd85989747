package catchup

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"wanamcast/internal/node"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// The engine is driven here by a fake host: an in-memory network whose
// delivery order, duplication and delay the test controls, and a virtual
// clock that only advances (firing retry timers) when nothing is in
// flight. Entries are ints, tails are strings.

const testChunk = 4

// entry is the group's i-th entry: every replica holds the same sequence.
func entry(i int) int { return 1000 + 7*i }

var testCodec = Codec[int, string]{
	AppendEntry: func(buf []byte, e int) []byte { return wire.AppendVarint(buf, int64(e)) },
	DecodeEntry: func(data []byte) (int, []byte, error) {
		v, rest, err := wire.Varint(data)
		return int(v), rest, err
	},
	AppendTail: wire.AppendString,
	DecodeTail: wire.String,
}

type envelope struct {
	from, to types.ProcessID
	body     any
}

type timer struct {
	at time.Duration
	fn func()
}

type fakeNet struct {
	t      *testing.T
	topo   *types.Topology
	rng    *rand.Rand
	now    time.Duration
	queue  []envelope // delivered in random order
	late   []envelope // delivered only once queue is empty
	timers []timer
	reps   map[types.ProcessID]*replica
	down   map[types.ProcessID]bool // messages to these are dropped
	// dupLate delivers every answer twice, each copy either in the
	// random-order queue or held back as a late straggler.
	dupLate bool
	reqs    map[types.ProcessID]int // Req frames sent to each process
}

func newNet(t *testing.T, groups, per int) *fakeNet {
	return &fakeNet{
		t:    t,
		topo: types.NewTopology(groups, per),
		rng:  rand.New(rand.NewSource(1)),
		reps: make(map[types.ProcessID]*replica),
		down: make(map[types.ProcessID]bool),
		reqs: make(map[types.ProcessID]int),
	}
}

func (n *fakeNet) send(from, to types.ProcessID, body any) {
	if _, ok := body.(Req); ok {
		n.reqs[to]++
	}
	copies := 1
	if _, ok := body.(Resp[int, string]); ok && n.dupLate {
		copies = 2
	}
	for i := 0; i < copies; i++ {
		env := envelope{from, to, body}
		if n.dupLate && copies == 2 && n.rng.Intn(2) == 0 {
			n.late = append(n.late, env)
		} else {
			n.queue = append(n.queue, env)
		}
	}
}

// step delivers one message, or else fires the earliest timer. It
// reports false when nothing is left to do.
func (n *fakeNet) step() bool {
	pick := func(s *[]envelope) envelope {
		i := n.rng.Intn(len(*s))
		env := (*s)[i]
		*s = append((*s)[:i], (*s)[i+1:]...)
		return env
	}
	var env envelope
	switch {
	case len(n.queue) > 0:
		env = pick(&n.queue)
	case len(n.late) > 0:
		env = pick(&n.late)
	case len(n.timers) > 0:
		first := 0
		for i, tm := range n.timers {
			if tm.at < n.timers[first].at {
				first = i
			}
		}
		tm := n.timers[first]
		n.timers = append(n.timers[:first], n.timers[first+1:]...)
		n.now = tm.at
		tm.fn()
		return true
	default:
		return false
	}
	if n.down[env.to] {
		return true
	}
	if !n.reps[env.to].eng.Receive(env.from, env.body) {
		n.t.Fatalf("engine rejected %T", env.body)
	}
	return true
}

// run steps until done holds or the virtual clock passes limit.
func (n *fakeNet) run(done func() bool, limit time.Duration) {
	for !done() && n.now <= limit && n.step() {
	}
}

// drain delivers every in-flight message without firing timers.
func (n *fakeNet) drain() {
	for len(n.queue)+len(n.late) > 0 {
		n.step()
	}
}

// host is the engine's view of the fake network. Methods the engine does
// not use panic through the nil embedded API.
type host struct {
	node.API
	net *fakeNet
	id  types.ProcessID
}

func (h host) Self() types.ProcessID                       { return h.id }
func (h host) Group() types.GroupID                        { return h.net.topo.GroupOf(h.id) }
func (h host) Topo() *types.Topology                       { return h.net.topo }
func (h host) Tracef(string, ...any)                       {}
func (h host) Send(to types.ProcessID, _ string, body any) { h.net.send(h.id, to, body) }
func (h host) Multicast(tos []types.ProcessID, _ string, body any) {
	for _, to := range tos {
		h.net.send(h.id, to, body)
	}
}
func (h host) After(d time.Duration, fn func()) {
	h.net.timers = append(h.net.timers, timer{at: h.net.now + d, fn: fn})
}

// replica is a fake protocol endpoint: its state is the applied prefix of
// the group's entry sequence.
type replica struct {
	net     *fakeNet
	id      types.ProcessID
	log     []int
	eng     *Engine[int, string]
	adopted []string
	resumed int
	synced  int
	failed  int
}

func (n *fakeNet) replica(id types.ProcessID, have, archive int) *replica {
	r := &replica{net: n, id: id}
	r.eng = New(Config[int, string]{
		API:      host{net: n, id: id},
		Label:    "t",
		Chunk:    testChunk,
		Archive:  archive,
		Codec:    testCodec,
		Position: func() uint64 { return uint64(len(r.log)) },
		Apply:    r.apply,
		Tail:     func() string { return fmt.Sprintf("tail of %v at %d", id, len(r.log)) },
		Adopt:    func(t string) { r.adopted = append(r.adopted, t) },
		Resume:   func() { r.resumed++ },
		OnSynced: func() { r.synced++ },
		OnFailed: func() { r.failed++ },
	})
	for i := 0; i < have; i++ {
		r.apply(entry(i))
	}
	n.reps[id] = r
	return r
}

func (r *replica) apply(e int) {
	if want := entry(len(r.log)); e != want {
		r.net.t.Fatalf("%v applied %d at position %d, want %d", r.id, e, len(r.log), want)
	}
	r.eng.Archive(e)
	r.log = append(r.log, e)
}

// TestCatchUpSurvivesDuplicateLateReorderedAnswers: a requester ten
// chunks behind catches up from two peers while every answer is
// duplicated, and the copies arrive late and in random order. Each entry
// is applied exactly once, in order, and only answers that applied
// something trigger a new request, so each peer sees at most chunks + 2
// requests (a storm would multiply them with every stale copy).
func TestCatchUpSurvivesDuplicateLateReorderedAnswers(t *testing.T) {
	const chunks = 10
	for seed := int64(1); seed <= 20; seed++ {
		n := newNet(t, 1, 3)
		n.rng = rand.New(rand.NewSource(seed))
		n.dupLate = true
		req := n.replica(0, 0, 0)
		n.replica(1, chunks*testChunk, 0)
		n.replica(2, chunks*testChunk, 0)

		req.eng.Start()
		n.run(func() bool { return !req.eng.Syncing() }, time.Minute)
		n.drain() // stale copies still in flight after the finish

		if len(req.log) != chunks*testChunk {
			t.Fatalf("seed %d: applied %d entries, want %d", seed, len(req.log), chunks*testChunk)
		}
		if req.eng.Syncing() || req.synced != 1 || req.resumed != 1 || len(req.adopted) != 1 {
			t.Fatalf("seed %d: syncing=%v synced=%d resumed=%d adopted=%v", seed,
				req.eng.Syncing(), req.synced, req.resumed, req.adopted)
		}
		for _, p := range []types.ProcessID{1, 2} {
			if n.reqs[p] > chunks+2 {
				t.Fatalf("seed %d: peer %v served %d requests for %d chunks", seed, p, n.reqs[p], chunks)
			}
		}
	}
}

// TestTooFarAbandonsOnce: peers whose archives were trimmed past the
// requester's position answer TooFar. OnSyncFailed fires exactly once
// though both peers answer, no request goes out after the next retry
// period, and the delivery gate stays closed.
func TestTooFarAbandonsOnce(t *testing.T) {
	n := newNet(t, 1, 3)
	req := n.replica(0, 0, 0)
	n.replica(1, 20, testChunk)
	n.replica(2, 20, testChunk)

	req.eng.Start()
	n.drain()
	if req.failed != 1 {
		t.Fatalf("OnSyncFailed fired %d times, want 1", req.failed)
	}
	before := n.reqs[1] + n.reqs[2]
	n.run(func() bool { return false }, 3*retryEvery)
	if after := n.reqs[1] + n.reqs[2]; after != before {
		t.Fatalf("%d requests sent after the transfer was abandoned", after-before)
	}
	if !req.eng.Syncing() || req.synced != 0 || req.resumed != 0 || len(req.log) != 0 {
		t.Fatalf("gate opened after TooFar: syncing=%v synced=%d resumed=%d applied=%d",
			req.eng.Syncing(), req.synced, req.resumed, len(req.log))
	}
}

// TestAllPeersBusyResumes pins the full-group restart: every peer is
// itself catching up and none is ahead, so nobody holds anything newer and
// the requester resumes without adopting a tail.
func TestAllPeersBusyResumes(t *testing.T) {
	n := newNet(t, 1, 3)
	req := n.replica(0, 5, 0)
	for _, p := range []types.ProcessID{1, 2} {
		n.replica(p, 5, 0).eng.Hold()
	}
	req.eng.Start()
	n.drain()
	if req.eng.Syncing() || req.synced != 1 || req.resumed != 1 {
		t.Fatalf("requester did not resume: syncing=%v synced=%d resumed=%d", req.eng.Syncing(), req.synced, req.resumed)
	}
	if len(req.adopted) != 0 {
		t.Fatalf("adopted a Busy peer's tail: %v", req.adopted)
	}
}

// TestBusyPeerAheadShipsEntriesNotTail: a Busy peer's archived entries are
// facts and get applied, but its in-flight tail is never adopted — not
// even one attached to a Busy answer — and while the other peer is silent
// the gate stays closed.
func TestBusyPeerAheadShipsEntriesNotTail(t *testing.T) {
	n := newNet(t, 1, 3)
	req := n.replica(0, 0, 0)
	n.replica(1, 3*testChunk, 0).eng.Hold()
	n.replica(2, 0, 0)
	n.down[2] = true

	// An answer to an earlier incarnation's request, arriving while the
	// gate is held but before Start, is ignored.
	req.eng.Hold()
	req.eng.Receive(1, Resp[int, string]{Base: 0, Entries: []int{entry(0)}, Next: 1, Busy: true})
	if len(req.log) != 0 || !req.eng.Syncing() {
		t.Fatalf("answer before Start applied=%d syncing=%v", len(req.log), req.eng.Syncing())
	}

	req.eng.Start()
	n.drain()
	if len(req.log) != 3*testChunk {
		t.Fatalf("applied %d entries from the Busy peer, want %d", len(req.log), 3*testChunk)
	}
	tail := "busy tail"
	req.eng.Receive(1, Resp[int, string]{Base: uint64(len(req.log)), Next: uint64(len(req.log)), Tail: &tail, Busy: true})
	if len(req.adopted) != 0 || !req.eng.Syncing() || req.synced != 0 {
		t.Fatalf("Busy peer's tail adopted or gate opened: adopted=%v syncing=%v synced=%d",
			req.adopted, req.eng.Syncing(), req.synced)
	}
}

// TestNoGroupPeersFinishesAtOnce: a process alone in its group has nobody
// to diverge from.
func TestNoGroupPeersFinishesAtOnce(t *testing.T) {
	n := newNet(t, 2, 1)
	req := n.replica(0, 3, 0)
	req.eng.Hold()
	if req.eng.Syncing() {
		t.Fatal("Hold closed the gate with no group peers")
	}
	req.eng.Start()
	if req.eng.Syncing() || req.synced != 1 || req.resumed != 1 {
		t.Fatalf("syncing=%v synced=%d resumed=%d", req.eng.Syncing(), req.synced, req.resumed)
	}
	if len(n.queue)+len(n.timers) != 0 {
		t.Fatalf("%d messages and %d timers for a peerless transfer", len(n.queue), len(n.timers))
	}
}

// TestCodecRoundTrips pins the answer and archive encodings, with and
// without a tail, and rejects unknown flag bits.
func TestCodecRoundTrips(t *testing.T) {
	tail := "t"
	for _, m := range []Resp[int, string]{
		{Base: 3, Entries: []int{1, -2, 3}, Next: 9, Tail: &tail},
		{Base: 7, Next: 2, TooFar: true, Busy: true},
	} {
		b := testCodec.AppendResp(nil, m)
		got, rest, err := testCodec.DecodeResp(b)
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip of %+v: got %+v rest=%d err=%v", m, got, len(rest), err)
		}
		noTail := m
		noTail.Tail = nil
		b[len(testCodec.AppendResp(nil, noTail))-1] |= 0x80 // the flags byte
		if _, _, err := testCodec.DecodeResp(b); !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("unknown flag bit accepted: %v", err)
		}
	}

	n := newNet(t, 1, 2)
	src := n.replica(0, 11, testChunk)
	dst := n.replica(1, 0, testChunk)
	snap := src.eng.AppendArchive(nil)
	if rest, err := dst.eng.RestoreArchive(snap); err != nil || len(rest) != 0 {
		t.Fatalf("restore: rest=%d err=%v", len(rest), err)
	}
	if got := dst.eng.AppendArchive(nil); !bytes.Equal(got, snap) || dst.eng.base != src.eng.base || dst.eng.base == 0 {
		t.Fatalf("archive does not round-trip (base %d vs %d)", dst.eng.base, src.eng.base)
	}
}
