// Crash recovery and restart state transfer for Algorithm A2.
//
// Recovery mirrors amcast's: RestoreSnapshot rebuilds the endpoint (round,
// Barrier, the R-Delivered working set, received remote bundles, the
// completed-round archive, and the ordering engine), Recover re-fires the
// apply cascade for decisions the snapshot knew, and ReplayRecord replays
// the WAL tail — decisions, remote-bundle receipts, adopted rounds —
// through the same code paths that produced them.
//
// State transfer runs on the shared catch-up engine (internal/catchup).
// Every group member completes the same rounds with the same unions, so
// an entry is one completed round's delivered union and the position is
// the round K; once caught up, the requester adopts a peer's tail
// (SyncTail: its Barrier and in-flight remote bundles) and its engine
// horizon. Until then round completion is gated.
package abcast

import (
	"sort"

	"wanamcast/internal/catchup"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// syncChunk bounds the rounds one catch-up answer carries.
const syncChunk = 128

// SyncTail is the in-flight state a caught-up requester adopts.
type SyncTail struct {
	Barrier uint64
	Bundles []GroupBundle // remote bundles for uncompleted rounds
}

// GroupBundle is one received (still in-flight) remote bundle.
type GroupBundle struct {
	Round uint64
	Group types.GroupID
	Set   []Record
}

// syncCodec encodes A2's catch-up entries (round unions) and tail.
var syncCodec = catchup.Codec[[]Record, SyncTail]{
	AppendEntry: AppendRecords,
	DecodeEntry: DecodeRecords,
	AppendTail: func(buf []byte, t SyncTail) []byte {
		return appendGroupBundles(wire.AppendUvarint(buf, t.Barrier), t.Bundles)
	},
	DecodeTail: func(data []byte) (t SyncTail, rest []byte, err error) {
		if t.Barrier, data, err = wire.Uvarint(data); err != nil {
			return t, nil, err
		}
		t.Bundles, data, err = decodeGroupBundles(data)
		return t, data, err
	},
}

// --- snapshot ---------------------------------------------------------------

// AppendSnapshot encodes the endpoint's full replicated state (including
// its ordering engine) for the host's snapshot section.
func (b *Bcast) AppendSnapshot(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, b.k)
	buf = wire.AppendUvarint(buf, b.barrier)
	buf = wire.AppendUvarint(buf, b.castSeq)
	// R-Delivered working set, in R-Delivery order.
	buf = wire.AppendUvarint(buf, uint64(len(b.rdOrder)))
	for _, id := range b.rdOrder {
		buf = b.rdelivered[id].AppendTo(buf)
	}
	buf = storage.AppendIDSet(buf, b.adelivered)
	buf = storage.AppendIDSet(buf, b.inDecided)
	// Own decided bundles for uncompleted rounds.
	rounds := make([]uint64, 0, len(b.decided))
	for r := range b.decided {
		rounds = append(rounds, r)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	buf = wire.AppendUvarint(buf, uint64(len(rounds)))
	for _, r := range rounds {
		buf = wire.AppendUvarint(buf, r)
		buf = AppendRecords(buf, b.decided[r])
	}
	buf = appendGroupBundles(buf, b.remoteBundles())
	buf = b.sync.AppendArchive(buf)
	// The ordering engine, length-prefixed.
	return wire.AppendBytes(buf, b.engine.AppendSnapshot(nil))
}

// RestoreSnapshot rebuilds the endpoint from AppendSnapshot's encoding.
func (b *Bcast) RestoreSnapshot(data []byte) error {
	var err error
	if b.k, data, err = wire.Uvarint(data); err != nil {
		return err
	}
	if b.barrier, data, err = wire.Uvarint(data); err != nil {
		return err
	}
	if b.castSeq, data, err = wire.Uvarint(data); err != nil {
		return err
	}
	var n int
	if n, data, err = wire.SliceLen(data); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		var r Record
		if data, err = r.DecodeFrom(data); err != nil {
			return err
		}
		b.rdelivered[r.ID] = r
		b.rdOrder = append(b.rdOrder, r.ID)
	}
	if data, err = storage.RestoreIDSet(data, b.adelivered); err != nil {
		return err
	}
	if data, err = storage.RestoreIDSet(data, b.inDecided); err != nil {
		return err
	}
	if n, data, err = wire.SliceLen(data); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		var r uint64
		if r, data, err = wire.Uvarint(data); err != nil {
			return err
		}
		var set []Record
		if set, data, err = DecodeRecords(data); err != nil {
			return err
		}
		b.decided[r] = set
	}
	var gbs []GroupBundle
	if gbs, data, err = decodeGroupBundles(data); err != nil {
		return err
	}
	for _, gb := range gbs {
		perGroup := b.bundles[gb.Round]
		if perGroup == nil {
			perGroup = make(map[types.GroupID][]Record)
			b.bundles[gb.Round] = perGroup
		}
		perGroup[gb.Group] = gb.Set
	}
	if data, err = b.sync.RestoreArchive(data); err != nil {
		return err
	}
	var engineBlob []byte
	if engineBlob, _, err = wire.Bytes(data); err != nil {
		return err
	}
	return b.engine.RestoreSnapshot(engineBlob)
}

// Recover re-fires the apply cascade for decisions the restored snapshot
// knew about (see amcast.Recover).
func (b *Bcast) Recover() {
	b.engine.BeginRecovery()
	b.engine.Recover()
}

// EndRecovery leaves replay mode once the WAL tail has been replayed.
func (b *Bcast) EndRecovery() { b.engine.EndRecovery() }

// ReplayRecord replays one WAL record belonging to this endpoint.
func (b *Bcast) ReplayRecord(rec storage.Record) error {
	if rec.Proto == b.engine.Label() {
		return b.engine.ReplayRecord(rec)
	}
	switch rec.Kind {
	case storage.KindBundle:
		set, _ := rec.Value.([]Record)
		b.handleBundle(types.GroupID(rec.Aux), rec.Inst, set, true)
	case storage.KindRound:
		set, _ := rec.Value.([]Record)
		b.applySyncRound(rec.Inst, set, true)
	default:
		b.api.Tracef("a2: ignoring unexpected WAL record kind %d", rec.Kind)
	}
	return nil
}

// --- state transfer ---------------------------------------------------------

// EngineLabel returns the ordering engine's wire label (the WAL namespace
// of the endpoint's consensus records).
func (b *Bcast) EngineLabel() string { return b.engine.Label() }

// Syncing reports whether round completion is gated by a state transfer.
func (b *Bcast) Syncing() bool { return b.sync.Syncing() }

// Watermark returns how many messages this endpoint has A-Delivered,
// readable lock-free from any goroutine (the read tier's delivery
// watermark).
func (b *Bcast) Watermark() uint64 { return b.wm.Load() }

// StartSync begins catch-up from the same-group peers after a restart.
func (b *Bcast) StartSync() { b.sync.Start() }

// applySyncRound repeats one round the group completed while this process
// was down. replay marks WAL replay (no re-logging).
func (b *Bcast) applySyncRound(round uint64, union []Record, replay bool) {
	if round != b.k {
		return
	}
	if !replay {
		b.log.Append(storage.Record{Kind: storage.KindRound, Proto: b.label, Inst: round, Value: union})
	}
	b.completeRound(union, true)
}

// syncTail is the in-flight state a caught-up peer adopts.
func (b *Bcast) syncTail() SyncTail {
	return SyncTail{Barrier: b.barrier, Bundles: b.remoteBundles()}
}

// remoteBundles lists the received remote bundles of uncompleted rounds,
// sorted by (round, group).
func (b *Bcast) remoteBundles() []GroupBundle {
	var gbs []GroupBundle
	for r, perGroup := range b.bundles {
		for g, set := range perGroup {
			gbs = append(gbs, GroupBundle{Round: r, Group: g, Set: set})
		}
	}
	sort.Slice(gbs, func(i, j int) bool {
		if gbs[i].Round != gbs[j].Round {
			return gbs[i].Round < gbs[j].Round
		}
		return gbs[i].Group < gbs[j].Group
	})
	return gbs
}

// adoptTail installs a caught-up peer's Barrier and in-flight bundles,
// and moves the engine horizon past the rounds adopted as entries. An A2
// instance is a round, so the horizon is K, not the peer's applied
// instances: the peer may have applied instances whose rounds still wait
// for remote bundles, and skipping those decisions would strand this
// process at that round for good. It learns them through consensus.
func (b *Bcast) adoptTail(t SyncTail) {
	if t.Barrier > b.barrier {
		b.barrier = t.Barrier
	}
	b.engine.SkipTo(b.k)
	for _, gb := range t.Bundles {
		b.handleBundle(gb.Group, gb.Round, gb.Set, false)
	}
}

// resume runs when the transfer ends: the engine pumps and round
// completion resumes.
func (b *Bcast) resume() {
	b.engine.Pump()
	b.tryCompleteRound()
}

// --- helpers ----------------------------------------------------------------

func appendGroupBundles(buf []byte, gbs []GroupBundle) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(gbs)))
	for _, gb := range gbs {
		buf = wire.AppendUvarint(buf, gb.Round)
		buf = wire.AppendVarint(buf, int64(gb.Group))
		buf = AppendRecords(buf, gb.Set)
	}
	return buf
}

func decodeGroupBundles(data []byte) ([]GroupBundle, []byte, error) {
	n, data, err := wire.SliceLen(data)
	if err != nil {
		return nil, nil, err
	}
	var gbs []GroupBundle
	for i := 0; i < n; i++ {
		var gb GroupBundle
		if gb.Round, data, err = wire.Uvarint(data); err != nil {
			return nil, nil, err
		}
		var g int64
		if g, data, err = wire.Varint(data); err != nil {
			return nil, nil, err
		}
		gb.Group = types.GroupID(g)
		if gb.Set, data, err = DecodeRecords(data); err != nil {
			return nil, nil, err
		}
		gbs = append(gbs, gb)
	}
	return gbs, data, nil
}
