// Package catchup is the restart state transfer shared by Algorithms A1
// and A2.
//
// The paper's algorithms assume crash-stop processes; this reproduction
// adds crash-recovery, and a restarted replica rejoins its group by
// fetching what the group ordered while it was down. Same-group members
// produce identical sequences of ordering entries (A1's A-Deliveries, A2's
// completed rounds), so catch-up is log shipping: every process keeps a
// bounded archive of its recent entries, and a restarted process asks its
// same-group peers for the entries from its own position onward, applies
// them in order, and finally adopts one peer's in-flight "tail" state.
//
// Engine owns everything the two protocols share: the archive and its
// snapshot encoding, the Req/Resp exchange and its codec, the requester's
// retry loop and completion rules, and the server side. A protocol
// supplies its position, how to apply one entry, how to build and adopt
// its tail, and what to do when delivery may resume.
//
// Answers may be lost, duplicated, late or reordered. The requester
// applies an entry only at its current position and asks again at once
// only when an answer applied something, so stale or duplicate answers
// cost one frame each and never multiply the traffic.
package catchup

import (
	"fmt"
	"time"

	"wanamcast/internal/node"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// retryEvery is the re-request period while a transfer is outstanding.
const retryEvery = 100 * time.Millisecond

// defaultArchive is the archive bound when Config.Archive is zero.
const defaultArchive = 4096

func init() {
	wire.Register(wire.KindSyncReq,
		func(buf []byte, m Req) []byte { return wire.AppendUvarint(buf, m.From) },
		func(data []byte) (m Req, rest []byte, err error) { m.From, rest, err = wire.Uvarint(data); return })
}

// Req asks a group peer for its archived entries from position From on.
type Req struct {
	From uint64
}

// Resp is one bounded answer: the responder's entries [Base,
// Base+len(Entries)), its position Next, and — only on an answer from a
// non-Busy responder that reaches Next — its in-flight tail state.
type Resp[E, T any] struct {
	Base    uint64
	Entries []E
	Next    uint64
	Tail    *T
	// TooFar marks a requester that predates the responder's archive: it
	// cannot catch up by log transfer.
	TooFar bool
	// Busy marks a responder that is itself catching up: its archived
	// entries are valid facts, but its tail must not be adopted. When
	// every group peer answers Busy with nothing newer, the whole group is
	// restarting together and the requester resumes.
	Busy bool
}

// Codec encodes a protocol's archive entries and tail state. Its methods
// encode Resp values and the archive section of a snapshot.
type Codec[E, T any] struct {
	AppendEntry func(buf []byte, e E) []byte
	DecodeEntry func(data []byte) (E, []byte, error)
	AppendTail  func(buf []byte, t T) []byte
	DecodeTail  func(data []byte) (T, []byte, error)
}

// Register registers Resp[E, T] under kind.
func (c Codec[E, T]) Register(kind wire.Kind) { wire.Register(kind, c.AppendResp, c.DecodeResp) }

// Resp flag bits.
const (
	flagTooFar = 1 << iota
	flagBusy
	flagTail
)

// AppendResp appends m's wire encoding.
func (c Codec[E, T]) AppendResp(buf []byte, m Resp[E, T]) []byte {
	buf = wire.AppendUvarint(buf, m.Base)
	buf = c.appendEntries(buf, m.Entries)
	buf = wire.AppendUvarint(buf, m.Next)
	flags := byte(0)
	if m.TooFar {
		flags |= flagTooFar
	}
	if m.Busy {
		flags |= flagBusy
	}
	if m.Tail == nil {
		return append(buf, flags)
	}
	return c.AppendTail(append(buf, flags|flagTail), *m.Tail)
}

// DecodeResp decodes a Resp and returns the remainder.
func (c Codec[E, T]) DecodeResp(data []byte) (m Resp[E, T], rest []byte, err error) {
	if m.Base, data, err = wire.Uvarint(data); err != nil {
		return m, nil, err
	}
	if m.Entries, data, err = c.decodeEntries(data); err != nil {
		return m, nil, err
	}
	if m.Next, data, err = wire.Uvarint(data); err != nil {
		return m, nil, err
	}
	if len(data) == 0 || data[0]&^(flagTooFar|flagBusy|flagTail) != 0 {
		return m, nil, fmt.Errorf("%w: catch-up response flags", wire.ErrCorrupt)
	}
	flags := data[0]
	data = data[1:]
	m.TooFar, m.Busy = flags&flagTooFar != 0, flags&flagBusy != 0
	if flags&flagTail != 0 {
		var t T
		if t, data, err = c.DecodeTail(data); err != nil {
			return m, nil, err
		}
		m.Tail = &t
	}
	return m, data, nil
}

func (c Codec[E, T]) appendEntries(buf []byte, es []E) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(es)))
	for _, e := range es {
		buf = c.AppendEntry(buf, e)
	}
	return buf
}

func (c Codec[E, T]) decodeEntries(data []byte) ([]E, []byte, error) {
	n, data, err := wire.SliceLen(data)
	if err != nil {
		return nil, nil, err
	}
	var es []E
	for i := 0; i < n; i++ {
		var e E
		if e, data, err = c.DecodeEntry(data); err != nil {
			return nil, nil, err
		}
		es = append(es, e)
	}
	return es, data, nil
}

// Config wires an Engine to its protocol endpoint.
type Config[E, T any] struct {
	// API is the hosting process; Label is the protocol's wire label,
	// under which requests and answers travel.
	API   node.API
	Label string
	// Chunk bounds the entries one answer carries.
	Chunk int
	// Archive bounds the entries retained to serve restarted peers (zero
	// means 4096). A peer farther behind gets TooFar.
	Archive int
	Codec   Codec[E, T]

	// Position is the protocol's count of applied entries; the next entry
	// it archives or applies has index Position().
	Position func() uint64
	// Apply applies the entry at Position(), advancing it (and archiving
	// the entry) unless the protocol already holds it.
	Apply func(e E)
	// Tail builds the in-flight state a caught-up requester adopts; Adopt
	// merges a peer's tail.
	Tail  func() T
	Adopt func(t T)
	// Resume runs when the transfer finishes: the protocol lifts its
	// delivery gate and pumps its ordering engine.
	Resume func()
	// OnSynced fires after Resume; OnFailed fires once when the transfer
	// is abandoned (TooFar). Either may be nil.
	OnSynced func()
	OnFailed func()
}

// Engine is one endpoint's catch-up state: the archive it serves from and,
// while the endpoint is restarting, the requester side.
type Engine[E, T any] struct {
	cfg     Config[E, T]
	archive []E    // entries [base, base+len(archive))
	base    uint64 // position of archive[0]

	syncing bool // the protocol's delivery gate is closed
	failed  bool // TooFar seen: retries stopped, gate stays closed
	heard   map[types.ProcessID]peerState
}

// peerState is the latest answer seen from one group peer.
type peerState struct {
	next uint64
	busy bool
}

// New builds an engine. The archive starts at the protocol's current
// position.
func New[E, T any](cfg Config[E, T]) *Engine[E, T] {
	if cfg.Archive <= 0 {
		cfg.Archive = defaultArchive
	}
	return &Engine[E, T]{cfg: cfg, base: cfg.Position()}
}

// Archive retains e, the entry at index Position() before the protocol
// advances past it. The archive keeps at least the newest Archive entries.
func (e *Engine[E, T]) Archive(en E) {
	var dropped int
	e.archive, dropped = storage.TrimTail(append(e.archive, en), e.cfg.Archive)
	e.base += uint64(dropped)
}

// AppendArchive appends the archive's snapshot encoding.
func (e *Engine[E, T]) AppendArchive(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, e.base)
	return e.cfg.Codec.appendEntries(buf, e.archive)
}

// RestoreArchive restores the archive from AppendArchive's encoding and
// returns the remainder.
func (e *Engine[E, T]) RestoreArchive(data []byte) (rest []byte, err error) {
	if e.base, data, err = wire.Uvarint(data); err != nil {
		return nil, err
	}
	e.archive, data, err = e.cfg.Codec.decodeEntries(data)
	return data, err
}

// Syncing reports whether the delivery gate is closed: a transfer is in
// progress, armed, or abandoned.
func (e *Engine[E, T]) Syncing() bool { return e.syncing }

// Hold closes the delivery gate without asking anyone yet; the transfer
// Start begins reopens it. A process with no group peers has nobody to
// diverge from and is not held.
func (e *Engine[E, T]) Hold() {
	if len(e.peers()) > 0 {
		e.syncing = true
	}
}

// Start begins catch-up from the same-group peers: the gate stays closed
// until a peer confirms this process holds every entry the group made.
// With no group peers the transfer finishes at once.
func (e *Engine[E, T]) Start() {
	if len(e.peers()) == 0 {
		e.finish()
		return
	}
	e.syncing = true
	e.failed = false
	e.heard = make(map[types.ProcessID]peerState)
	e.request()
	e.armRetry()
}

// Receive handles a catch-up message and reports whether body was one.
func (e *Engine[E, T]) Receive(from types.ProcessID, body any) bool {
	switch m := body.(type) {
	case Req:
		e.serve(from, m)
	case Resp[E, T]:
		e.onResp(from, m)
	default:
		return false
	}
	return true
}

func (e *Engine[E, T]) peers() []types.ProcessID {
	self := e.cfg.API.Self()
	var tos []types.ProcessID
	for _, q := range e.cfg.API.Topo().Members(e.cfg.API.Group()) {
		if q != self {
			tos = append(tos, q)
		}
	}
	return tos
}

func (e *Engine[E, T]) request() {
	e.cfg.API.Multicast(e.peers(), e.cfg.Label, Req{From: e.cfg.Position()})
}

func (e *Engine[E, T]) armRetry() {
	e.cfg.API.After(retryEvery, func() {
		if !e.syncing || e.failed {
			return
		}
		e.request()
		e.armRetry()
	})
}

// serve answers a restarted peer with the next chunk of the archive.
func (e *Engine[E, T]) serve(from types.ProcessID, m Req) {
	pos := e.cfg.Position()
	resp := Resp[E, T]{Base: m.From, Next: pos, Busy: e.syncing}
	if m.From < e.base {
		resp.TooFar = true
		e.cfg.API.Send(from, e.cfg.Label, resp)
		return
	}
	end := min(m.From+uint64(e.cfg.Chunk), pos)
	if m.From < end {
		// A copy: the archive is trimmed in place, and the answer may be
		// read after this handler returns.
		resp.Entries = append([]E(nil), e.archive[m.From-e.base:end-e.base]...)
	}
	if !resp.Busy && end == pos {
		t := e.cfg.Tail()
		resp.Tail = &t
	}
	e.cfg.API.Send(from, e.cfg.Label, resp)
}

// onResp consumes one answer.
func (e *Engine[E, T]) onResp(from types.ProcessID, m Resp[E, T]) {
	if e.heard == nil {
		// No transfer running: it finished, or the gate is only held and
		// this answers an earlier incarnation's request.
		return
	}
	if m.TooFar {
		// Terminal: the peers' archives will never again cover this
		// position. Stop asking but keep the gate closed — resuming with a
		// hole would diverge from the group's order. The remedy is a larger
		// archive (or fresh state); Syncing() stays true as the symptom.
		if !e.failed {
			e.failed = true
			if e.cfg.API.Debugging() {
				e.cfg.API.Tracef("%s: peer archive no longer covers position %d; cannot catch up by log transfer (sync abandoned)",
					e.cfg.Label, e.cfg.Position())
			}
			if e.cfg.OnFailed != nil {
				e.cfg.OnFailed()
			}
		}
		return
	}
	progressed := false
	idx := m.Base
	for _, en := range m.Entries {
		if idx == e.cfg.Position() {
			e.cfg.Apply(en)
			progressed = true
		}
		idx++
	}
	e.heard[from] = peerState{next: m.Next, busy: m.Busy}
	switch {
	case !m.Busy && m.Tail != nil && e.cfg.Position() >= m.Next:
		// Caught up with a serving peer: adopt its tail and resume.
		e.cfg.Adopt(*m.Tail)
		e.finish()
	case progressed:
		// More remains: ask for the next chunk now rather than at the
		// retry timer. Only an answer that applied something asks, so
		// duplicate and stale answers cannot multiply the requests.
		e.request()
	default:
		e.maybeGroupRestart()
	}
}

// maybeGroupRestart resumes when every group peer has answered Busy with
// nothing newer than this process holds: the whole group is restarting
// together, each member recovered from its own disk, and the archives have
// been cross-shipped — nobody holds more. No tail needs adopting (each
// member replayed its own); any instance gap between members heals through
// the consensus LearnMsg path.
func (e *Engine[E, T]) maybeGroupRestart() {
	pos := e.cfg.Position()
	for _, q := range e.peers() {
		info, ok := e.heard[q]
		if !ok || !info.busy || info.next > pos {
			return
		}
	}
	if e.cfg.API.Debugging() {
		e.cfg.API.Tracef("%s: whole group restarting, no peer ahead of position %d; resuming", e.cfg.Label, pos)
	}
	e.finish()
}

// finish opens the gate, lets the protocol resume, and tells the host (it
// typically snapshots the freshly synced state).
func (e *Engine[E, T]) finish() {
	e.syncing = false
	e.heard = nil
	e.cfg.Resume()
	if e.cfg.OnSynced != nil {
		e.cfg.OnSynced()
	}
}
