// Crash recovery and restart state transfer for Algorithm A1.
//
// Recovery is two-phase. Phase one is local: RestoreSnapshot rebuilds the
// endpoint (clock, PENDING, received proposals, delivered set, delivery
// archive, and the ordering engine) from the last snapshot, Recover
// re-fires the apply cascade for decisions the snapshot knew, and
// ReplayRecord replays the WAL tail — decisions, (TS, m) receipts, and
// previously adopted deliveries — through the very same code paths that
// produced them, so the reconstructed state is byte-identical to the
// pre-crash state the log covers.
//
// Phase two is remote, and runs on the shared catch-up engine
// (internal/catchup). Same-group members A-Deliver identical sequences, so
// an entry is one archived delivery (DeliverRec) and the position is the
// delivery count; once caught up, the requester adopts a peer's tail
// (SyncTail: its PENDING descriptors, received proposals, and group
// clock) and its engine horizon. Until the transfer completes, organic
// delivery is gated — missed messages must land first or the local
// sequence would diverge from the group's.
package amcast

import (
	"sort"

	"wanamcast/internal/catchup"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// syncChunk bounds the deliveries one catch-up answer carries; a
// farther-behind requester iterates.
const syncChunk = 256

// DeliverRec is one archived A-Delivery: what a peer needs to repeat it.
type DeliverRec struct {
	ID      types.MessageID
	Dest    types.GroupSet
	TS      uint64
	Payload any
}

// SyncTail is the in-flight state a caught-up requester adopts.
type SyncTail struct {
	K       uint64 // the responder's group clock
	Applied uint64 // the responder's applied consensus instances
	Pending []Descriptor
	Props   []PropEntry
}

// PropEntry is one received (TS, m) proposal: message, proposing group,
// proposed timestamp.
type PropEntry struct {
	ID    types.MessageID
	Group types.GroupID
	TS    uint64
}

// syncCodec encodes A1's catch-up entries and tail.
var syncCodec = catchup.Codec[DeliverRec, SyncTail]{
	AppendEntry: appendDeliverRec,
	DecodeEntry: decodeDeliverRec,
	AppendTail:  appendSyncTail,
	DecodeTail:  decodeSyncTail,
}

// --- snapshot ---------------------------------------------------------------

// AppendSnapshot encodes the endpoint's full replicated state (including
// its ordering engine) for the host's snapshot section.
func (a *Mcast) AppendSnapshot(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, a.k)
	buf = wire.AppendUvarint(buf, a.admitSeq)
	buf = wire.AppendUvarint(buf, a.castSeq)
	buf = wire.AppendUvarint(buf, a.delivered)
	// PENDING, in admission order.
	pends := make([]*pend, 0, len(a.pending))
	for _, p := range a.pending {
		pends = append(pends, p)
	}
	sort.Slice(pends, func(i, j int) bool { return pends[i].seq < pends[j].seq })
	buf = wire.AppendUvarint(buf, uint64(len(pends)))
	for _, p := range pends {
		d := Descriptor{ID: p.id, Dest: p.dest, Payload: p.payload, TS: p.ts, Stage: p.stage}
		buf = d.AppendTo(buf)
		buf = wire.AppendUvarint(buf, p.seq)
	}
	// ADELIVERED ids, received proposals, and the delivery archive.
	buf = storage.AppendIDSet(buf, a.adelivered)
	buf = appendProps(buf, a.propEntries())
	buf = a.sync.AppendArchive(buf)
	// The ordering engine, length-prefixed.
	return wire.AppendBytes(buf, a.engine.AppendSnapshot(nil))
}

// RestoreSnapshot rebuilds the endpoint from AppendSnapshot's encoding.
func (a *Mcast) RestoreSnapshot(data []byte) error {
	var err error
	if a.k, data, err = wire.Uvarint(data); err != nil {
		return err
	}
	if a.admitSeq, data, err = wire.Uvarint(data); err != nil {
		return err
	}
	if a.castSeq, data, err = wire.Uvarint(data); err != nil {
		return err
	}
	if a.delivered, data, err = wire.Uvarint(data); err != nil {
		return err
	}
	a.wm.Store(a.delivered)
	var n int
	if n, data, err = wire.SliceLen(data); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		var d Descriptor
		if data, err = d.DecodeFrom(data); err != nil {
			return err
		}
		var seq uint64
		if seq, data, err = wire.Uvarint(data); err != nil {
			return err
		}
		a.pending[d.ID] = &pend{id: d.ID, dest: d.Dest, payload: d.Payload, ts: d.TS, stage: d.Stage, seq: seq}
	}
	if data, err = storage.RestoreIDSet(data, a.adelivered); err != nil {
		return err
	}
	var props []PropEntry
	if props, data, err = decodeProps(data); err != nil {
		return err
	}
	a.mergeProps(props)
	if data, err = a.sync.RestoreArchive(data); err != nil {
		return err
	}
	var engineBlob []byte
	if engineBlob, _, err = wire.Bytes(data); err != nil {
		return err
	}
	return a.engine.RestoreSnapshot(engineBlob)
}

// Recover re-fires the apply cascade for decisions the restored snapshot
// knew about. Call after RestoreSnapshot and before WAL replay; the host
// must have the process in recovering mode (sends suppressed).
func (a *Mcast) Recover() {
	a.engine.BeginRecovery()
	a.engine.Recover()
}

// EndRecovery leaves replay mode once the WAL tail has been replayed. If
// the group has peers, organic delivery is gated from here on: the
// replayed state is a consistent cut of the pre-crash state, but the group
// may have delivered past that cut while the process was down, and an
// organic event (a frame arriving before the host gets around to
// StartSync) must not let the ADeliveryTest run ahead of the missed
// prefix. StartSync's completion (resume) lifts the gate.
func (a *Mcast) EndRecovery() {
	a.engine.EndRecovery()
	a.sync.Hold()
}

// ReplayRecord replays one WAL record belonging to this endpoint (its own
// label or its consensus engine's).
func (a *Mcast) ReplayRecord(rec storage.Record) error {
	if rec.Proto == a.engine.Label() {
		return a.engine.ReplayRecord(rec)
	}
	switch rec.Kind {
	case storage.KindAdmit:
		a.admit(rec.ID, rec.Dest, rec.Value)
	case storage.KindTSProp:
		if tm, ok := rec.Value.(TSMsg); ok {
			a.handleTS(types.GroupID(rec.Aux), tm.Desc, true)
		}
	case storage.KindDeliver:
		a.applySyncDeliver(DeliverRec{ID: rec.ID, Dest: rec.Dest, TS: rec.Inst, Payload: rec.Value}, true)
	default:
		a.api.Tracef("a1: ignoring unexpected WAL record kind %d", rec.Kind)
	}
	return nil
}

// --- state transfer ---------------------------------------------------------

// EngineLabel returns the ordering engine's wire label (the WAL namespace
// of the endpoint's consensus records).
func (a *Mcast) EngineLabel() string { return a.engine.Label() }

// Syncing reports whether organic delivery is gated: a state transfer is
// in progress, armed by EndRecovery, or abandoned.
func (a *Mcast) Syncing() bool { return a.sync.Syncing() }

// Delivered returns the process's total A-Delivery count. It runs on the
// event loop; off-loop readers use Watermark.
func (a *Mcast) Delivered() uint64 { return a.delivered }

// Watermark returns the endpoint's delivery watermark — the same count as
// Delivered, but readable lock-free from any goroutine (the read tier
// samples it to decide whether a replica can serve a session's read).
func (a *Mcast) Watermark() uint64 { return a.wm.Load() }

// StartSync begins catch-up from the same-group peers after a restart:
// organic delivery is gated until a peer confirms this process has seen
// every delivery the group made while it was down. With no group peers
// there is nobody to have diverged from, so sync completes immediately.
func (a *Mcast) StartSync() { a.sync.Start() }

// applySyncDeliver repeats one delivery the group made while this process
// was down (or, on replay, one it had already adopted before the crash).
func (a *Mcast) applySyncDeliver(dr DeliverRec, replay bool) {
	if a.adelivered[dr.ID] {
		return
	}
	if !replay {
		a.log.Append(storage.Record{Kind: storage.KindDeliver, Proto: a.label,
			Inst: dr.TS, ID: dr.ID, Dest: dr.Dest, Value: dr.Payload})
	}
	a.deliver(dr, true)
}

// syncTail is the in-flight state a caught-up peer adopts, in canonical
// order.
func (a *Mcast) syncTail() SyncTail {
	t := SyncTail{K: a.k, Applied: a.engine.AppliedInstances(), Props: a.propEntries()}
	for _, p := range a.pending {
		t.Pending = append(t.Pending,
			Descriptor{ID: p.id, Dest: p.dest, Payload: p.payload, TS: p.ts, Stage: p.stage})
	}
	sortDescriptors(t.Pending)
	return t
}

// propEntries lists the received proposals sorted by (id, group).
func (a *Mcast) propEntries() []PropEntry {
	var ps []PropEntry
	for id, props := range a.tsProps {
		for g, ts := range props {
			ps = append(ps, PropEntry{ID: id, Group: g, TS: ts})
		}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].ID != ps[j].ID {
			return ps[i].ID.Less(ps[j].ID)
		}
		return ps[i].Group < ps[j].Group
	})
	return ps
}

// mergeProps records received proposals this process lacks, skipping
// delivered messages.
func (a *Mcast) mergeProps(ps []PropEntry) {
	for _, pr := range ps {
		if a.adelivered[pr.ID] {
			continue
		}
		props := a.tsProps[pr.ID]
		if props == nil {
			props = make(map[types.GroupID]uint64)
			a.tsProps[pr.ID] = props
		}
		if _, seen := props[pr.Group]; !seen {
			props[pr.Group] = pr.TS
		}
	}
}

// adoptTail merges a caught-up peer's in-flight state: PENDING stages and
// timestamps, received proposals, the group clock, and the engine horizon.
// Entries this process has and the peer lacks are kept — they re-propose
// through the normal path.
func (a *Mcast) adoptTail(t SyncTail) {
	for _, d := range t.Pending {
		if a.adelivered[d.ID] {
			continue
		}
		p := a.pending[d.ID]
		if p == nil {
			a.admitSeq++
			p = &pend{id: d.ID, dest: d.Dest, payload: d.Payload, ts: d.TS, stage: d.Stage, seq: a.admitSeq}
			a.pending[d.ID] = p
		} else if d.Stage > p.stage {
			p.stage = d.Stage
			p.ts = d.TS
		} else if d.Stage == p.stage && d.TS > p.ts {
			p.ts = d.TS
		}
	}
	a.mergeProps(t.Props)
	if t.K > a.k {
		a.k = t.K
	}
	a.engine.SkipTo(t.Applied + 1)
	// Merged proposals may complete stage 1 for adopted messages.
	for id, p := range a.pending {
		if p.stage == Stage1 {
			a.checkStage1(id)
		}
	}
}

// resume runs when the transfer ends: delivery resumes and the engine
// pumps.
func (a *Mcast) resume() {
	a.adeliveryTest()
	a.engine.Pump()
}

// --- small helpers ----------------------------------------------------------

func appendDeliverRec(buf []byte, dr DeliverRec) []byte {
	buf = dr.ID.AppendTo(buf)
	buf = dr.Dest.AppendTo(buf)
	buf = wire.AppendUvarint(buf, dr.TS)
	return wire.AppendValue(buf, dr.Payload)
}

func decodeDeliverRec(data []byte) (dr DeliverRec, rest []byte, err error) {
	if dr.ID, data, err = types.DecodeMessageID(data); err != nil {
		return dr, nil, err
	}
	if dr.Dest, data, err = types.DecodeGroupSet(data); err != nil {
		return dr, nil, err
	}
	if dr.TS, data, err = wire.Uvarint(data); err != nil {
		return dr, nil, err
	}
	dr.Payload, data, err = wire.DecodeValue(data)
	return dr, data, err
}

func appendSyncTail(buf []byte, t SyncTail) []byte {
	buf = wire.AppendUvarint(buf, t.K)
	buf = wire.AppendUvarint(buf, t.Applied)
	buf = AppendDescriptors(buf, t.Pending)
	return appendProps(buf, t.Props)
}

func decodeSyncTail(data []byte) (t SyncTail, rest []byte, err error) {
	if t.K, data, err = wire.Uvarint(data); err != nil {
		return t, nil, err
	}
	if t.Applied, data, err = wire.Uvarint(data); err != nil {
		return t, nil, err
	}
	if t.Pending, data, err = DecodeDescriptors(data); err != nil {
		return t, nil, err
	}
	t.Props, data, err = decodeProps(data)
	return t, data, err
}

func appendProps(buf []byte, ps []PropEntry) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(ps)))
	for _, pr := range ps {
		buf = pr.ID.AppendTo(buf)
		buf = wire.AppendVarint(buf, int64(pr.Group))
		buf = wire.AppendUvarint(buf, pr.TS)
	}
	return buf
}

func decodeProps(data []byte) ([]PropEntry, []byte, error) {
	n, data, err := wire.SliceLen(data)
	if err != nil {
		return nil, nil, err
	}
	var ps []PropEntry
	for i := 0; i < n; i++ {
		var pr PropEntry
		if pr.ID, data, err = types.DecodeMessageID(data); err != nil {
			return nil, nil, err
		}
		var g int64
		if g, data, err = wire.Varint(data); err != nil {
			return nil, nil, err
		}
		pr.Group = types.GroupID(g)
		if pr.TS, data, err = wire.Uvarint(data); err != nil {
			return nil, nil, err
		}
		ps = append(ps, pr)
	}
	return ps, data, nil
}
