// Package amcast implements Algorithm A1 of the paper: a genuine,
// fault-tolerant atomic multicast with the optimal latency degree of two
// for messages addressed to multiple groups (§4).
//
// The implementation is a line-by-line transcription of Algorithm A1.
// Every multicast message progresses through four stages:
//
//	s0: each destination group runs consensus to fix its timestamp proposal;
//	s1: destination groups exchange proposals via (TS, m) messages;
//	s2: groups whose proposal was below the maximum re-run consensus to
//	    advance their clock past the final timestamp;
//	s3: m is deliverable; it is A-Delivered once (m.ts, m.id) is minimal
//	    among all pending messages.
//
// Two optimizations distinguish A1 from Fritzke et al. [5] (§4.1): messages
// addressed to a single group jump from s0 to s3, and a group whose
// proposal equals the final timestamp skips s2. Both are controlled by
// Config.SkipStages so the [5] baseline can reuse this engine verbatim.
//
// Ordering runs on the batched, pipelined engine of internal/consensus:
// every instance carries a batch of pending s0/s2 descriptors (line 14's
// "propose all of PENDING", optionally capped by Config.MaxBatch), and up
// to Config.Pipeline instances may be in flight concurrently. Consensus
// instances are numbered densely and decoupled from the group clock K:
// decisions apply in instance order, s0 messages take their timestamp from
// K at apply time, and K then advances past every timestamp fixed — so the
// clock remains a deterministic function of the decision sequence and all
// group members agree on it (Lemma A.1), at any batch size and pipeline
// depth. With the default MaxBatch=0 (unbounded) and Pipeline=1 the engine
// behaves exactly like the paper's sequential algorithm.
package amcast

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"wanamcast/internal/catchup"
	"wanamcast/internal/consensus"
	"wanamcast/internal/fd"
	"wanamcast/internal/node"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/storage"
	"wanamcast/internal/trace"
	"wanamcast/internal/types"
)

// Stage is a message's position in the s0–s3 pipeline.
type Stage int

// Stages of Algorithm A1. The numbering follows the paper.
const (
	Stage0 Stage = iota // timestamp proposal pending (consensus)
	Stage1              // proposals being exchanged across groups
	Stage2              // clock catch-up pending (second consensus)
	Stage3              // deliverable, waiting to be minimal
)

// String implements fmt.Stringer.
func (s Stage) String() string { return fmt.Sprintf("s%d", int(s)) }

// Descriptor is the per-message record that travels through consensus
// proposals and (TS, m) messages: the message itself plus its current
// timestamp and stage as known to the sender/proposer.
type Descriptor struct {
	ID      types.MessageID
	Dest    types.GroupSet
	Payload any
	TS      uint64
	Stage   Stage
}

// ItemID implements consensus.Item.
func (d Descriptor) ItemID() types.MessageID { return d.ID }

// TSMsg is the (TS, m) inter-group message of line 24: it carries the
// sender group's timestamp proposal and, per the paper's footnote 4, also
// propagates m itself in case the caster crashed.
type TSMsg struct {
	Desc Descriptor
}

// Config configures an A1 endpoint on one process.
type Config struct {
	Host     node.Registrar
	Detector fd.Detector
	// OnDeliver is invoked on every A-Deliver, in delivery order. May be
	// nil.
	OnDeliver func(m rmcast.Message)
	// SkipStages enables A1's stage-skipping optimizations. Disabling it
	// yields the Fritzke et al. [5] pipeline: every message, including
	// single-group ones, takes two consensus instances.
	SkipStages bool
	// RMMode selects the reliable multicast used for the initial cast:
	// ModeDirect for A1 (non-uniform, d(k−1) messages), ModeEager for the
	// [5] baseline's uniform primitive.
	RMMode rmcast.Mode
	// ConsensusRetry overrides the consensus retry interval.
	ConsensusRetry time.Duration
	// LabelPrefix namespaces the wire labels (default "a1"), letting two
	// multicast engines coexist in one run.
	LabelPrefix string
	// NextID overrides cast-ID allocation. Hosts running several casting
	// endpoints on one process (e.g. A1 and A2 side by side) must share
	// one allocator, or their message IDs collide. Nil uses a private
	// per-endpoint counter.
	NextID func() types.MessageID
	// MaxBatch caps how many pending descriptors one consensus instance
	// may order. Zero means unbounded — the paper's propose-everything
	// rule; 1 degenerates to one message per instance.
	MaxBatch int
	// Pipeline is the number of consensus instances that may be in flight
	// concurrently. Zero or 1 is the paper's sequential engine; deeper
	// pipelines overlap agreement on fresh messages with the ordering of
	// earlier ones.
	Pipeline int
	// Log, when non-nil, makes the endpoint durable: the consensus
	// acceptor persists its promises and votes, decisions and received
	// (TS, m) proposals are appended for replay, and state transfer
	// (StartSync) records the deliveries it adopts — so a restarted
	// process reconstructs the exact pre-crash ordering state from disk
	// plus a bounded catch-up from live peers.
	Log *storage.Log
	// OnSynced, when non-nil, fires once a StartSync state transfer has
	// caught this endpoint up with its group (the natural moment for the
	// host to take a fresh snapshot).
	OnSynced func()
	// OnSyncFailed, when non-nil, fires the moment a state transfer is
	// abandoned as unrecoverable (the group's archives no longer cover
	// this process's position). The host's flight recorder hangs its
	// span dump here.
	OnSyncFailed func()
}

// pend is the local state of a message in PENDING.
type pend struct {
	id      types.MessageID
	dest    types.GroupSet
	payload any
	ts      uint64
	stage   Stage
	seq     uint64        // admission order, for FIFO-fair batch fills
	adm     time.Duration // admit time, recorded only while tracing (0 = untimed)
}

// less is the (m.ts, m.id) order of line 4.
func (p *pend) less(q *pend) bool {
	if p.ts != q.ts {
		return p.ts < q.ts
	}
	return p.id.Less(q.id)
}

// Mcast is the per-process Algorithm A1 endpoint.
type Mcast struct {
	api       node.API
	onDeliver func(rmcast.Message)
	skip      bool
	label     string

	rm     *rmcast.RMcast
	engine *consensus.Batcher[Descriptor]

	// wm mirrors delivered atomically: the endpoint's delivery watermark,
	// readable lock-free off the event loop (the read tier samples it).
	wm atomic.Uint64

	k          uint64 // the group clock copy K (line 2)
	pending    map[types.MessageID]*pend
	adelivered map[types.MessageID]bool
	tsProps    map[types.MessageID]map[types.GroupID]uint64 // received (TS, m) proposals
	admitSeq   uint64
	castSeq    uint64
	nextID     func() types.MessageID

	// Durability & recovery state (see Config.Log).
	log       *storage.Log
	delivered uint64 // total A-Deliveries at this process
	sync      *catchup.Engine[DeliverRec, SyncTail]
}

var _ node.Protocol = (*Mcast)(nil)

// New builds an A1 endpoint and registers it (with its reliable-multicast
// and consensus sub-protocols) on the host process.
func New(cfg Config) *Mcast {
	if cfg.Host == nil || cfg.Detector == nil {
		panic("amcast: Config.Host and Detector are required")
	}
	prefix := cfg.LabelPrefix
	if prefix == "" {
		prefix = "a1"
	}
	mode := cfg.RMMode
	if mode == 0 {
		mode = rmcast.ModeDirect
	}
	a := &Mcast{
		api:        cfg.Host,
		onDeliver:  cfg.OnDeliver,
		skip:       cfg.SkipStages,
		label:      prefix,
		k:          1,
		pending:    make(map[types.MessageID]*pend),
		adelivered: make(map[types.MessageID]bool),
		tsProps:    make(map[types.MessageID]map[types.GroupID]uint64),
		nextID:     cfg.NextID,
		log:        cfg.Log,
	}
	if a.nextID == nil {
		a.nextID = func() types.MessageID {
			a.castSeq++
			return types.MessageID{Origin: a.api.Self(), Seq: a.castSeq}
		}
	}
	a.rm = rmcast.New(rmcast.Config{
		API:        cfg.Host,
		Mode:       mode,
		OnDeliver:  a.onRDeliver,
		ProtoLabel: prefix + ".rm",
	})
	a.engine = consensus.NewBatcher(consensus.BatcherConfig[Descriptor]{
		API:           cfg.Host,
		Detector:      cfg.Detector,
		RetryInterval: cfg.ConsensusRetry,
		ProtoLabel:    prefix + ".cons",
		MaxBatch:      cfg.MaxBatch,
		Pipeline:      cfg.Pipeline,
		Log:           cfg.Log,
		Fill:          a.fillBatch,
		OnApply:       a.processDecision,
	})
	a.sync = catchup.New(catchup.Config[DeliverRec, SyncTail]{
		API:      cfg.Host,
		Label:    prefix,
		Chunk:    syncChunk,
		Codec:    syncCodec,
		Position: a.Delivered,
		Apply:    func(dr DeliverRec) { a.applySyncDeliver(dr, false) },
		Tail:     a.syncTail,
		Adopt:    a.adoptTail,
		Resume:   a.resume,
		OnSynced: cfg.OnSynced,
		OnFailed: cfg.OnSyncFailed,
	})
	cfg.Host.Register(a.rm)
	cfg.Host.Register(a.engine.Protocol())
	cfg.Host.Register(a)
	return a
}

// Proto implements node.Protocol.
func (a *Mcast) Proto() string { return a.label }

// Start implements node.Protocol.
func (a *Mcast) Start() {}

// AMCast atomically multicasts payload to the groups in dest and returns
// the assigned message ID (Task 1, lines 8–9). The caster need not belong
// to dest.
func (a *Mcast) AMCast(payload any, dest types.GroupSet) types.MessageID {
	if dest.Size() == 0 {
		panic("amcast: A-MCast with empty destination")
	}
	id := a.nextID()
	a.api.RecordCast(id)
	a.rm.MCast(rmcast.Message{ID: id, Dest: dest, Payload: payload})
	return id
}

// K returns the process's copy of its group's clock (for tests).
func (a *Mcast) K() uint64 { return a.k }

// PendingCount returns |PENDING| (for tests).
func (a *Mcast) PendingCount() int { return len(a.pending) }

// Receive implements node.Protocol: it handles (TS, m) messages and the
// restart state-transfer exchange.
func (a *Mcast) Receive(from types.ProcessID, body any) {
	switch m := body.(type) {
	case TSMsg:
		a.handleTS(a.api.Topo().GroupOf(from), m.Desc, false)
	default:
		if !a.sync.Receive(from, body) {
			panic(fmt.Sprintf("amcast: unexpected message %T", body))
		}
	}
}

// handleTS processes one (TS, m) proposal from group g. replay marks WAL
// replay: state advances identically but nothing is re-logged.
func (a *Mcast) handleTS(g types.GroupID, d Descriptor, replay bool) {
	if a.adelivered[d.ID] {
		return // late proposal for a delivered message
	}
	// Line 10: a TS message also introduces m if unseen.
	a.admit(d.ID, d.Dest, d.Payload)
	// Record the sender group's proposal for line 33.
	props := a.tsProps[d.ID]
	if props == nil {
		props = make(map[types.GroupID]uint64)
		a.tsProps[d.ID] = props
	}
	if _, seen := props[g]; !seen {
		props[g] = d.TS
		if !replay {
			// Unsynced: a lost tail proposal is re-fetched from peers by
			// the next restart's state transfer, exactly like a proposal
			// that never arrived.
			a.log.Append(storage.Record{Kind: storage.KindTSProp, Proto: a.label,
				Aux: uint64(g), Value: TSMsg{Desc: d}})
		}
	}
	a.checkStage1(d.ID)
}

// onRDeliver is Task 2, lines 10–13. A first admission is WAL-logged
// (unsynced): PENDING entries gate the ADeliveryTest barrier, so a replay
// that dropped them would reconstruct a weaker barrier than the pre-crash
// one and deliver s3 messages ahead of the group's order (found by the
// chaos suite's partition-during-recovery scenario, pinned by
// TestReplayMatchesPreCrashDeliveries).
func (a *Mcast) onRDeliver(m rmcast.Message) {
	if !a.adelivered[m.ID] {
		if _, ok := a.pending[m.ID]; !ok {
			a.log.Append(storage.Record{Kind: storage.KindAdmit, Proto: a.label,
				ID: m.ID, Dest: m.Dest, Value: m.Payload})
		}
	}
	a.admit(m.ID, m.Dest, m.Payload)
}

// admit adds m to PENDING at stage s0 with the current clock as its
// provisional timestamp (lines 11–13), unless already pending or delivered.
func (a *Mcast) admit(id types.MessageID, dest types.GroupSet, payload any) {
	if a.adelivered[id] {
		return
	}
	if _, ok := a.pending[id]; ok {
		return
	}
	a.admitSeq++
	p := &pend{id: id, dest: dest, payload: payload, ts: a.k, stage: Stage0, seq: a.admitSeq}
	if a.api.Tracing() {
		p.adm = a.api.Now()
	}
	a.pending[id] = p
	a.engine.Pump()
}

// fillBatch is the engine's Fill hook (Task at lines 14–17): the
// proposable set is every pending s0/s2 message not already in flight, in
// admission order up to limit, canonically sorted by message ID.
func (a *Mcast) fillBatch(exclude func(types.MessageID) bool, limit int) []Descriptor {
	var cand []*pend
	for _, p := range a.pending {
		if (p.stage == Stage0 || p.stage == Stage2) && !exclude(p.id) {
			cand = append(cand, p)
		}
	}
	sort.Slice(cand, func(i, j int) bool { return cand[i].seq < cand[j].seq })
	if limit > 0 && len(cand) > limit {
		cand = cand[:limit]
	}
	set := make([]Descriptor, 0, len(cand))
	for _, p := range cand {
		set = append(set, Descriptor{ID: p.id, Dest: p.dest, Payload: p.payload, TS: p.ts, Stage: p.stage})
	}
	sortDescriptors(set)
	return set
}

// processDecision is the engine's OnApply hook: it executes lines 19–32
// for the decision of (dense) instance inst. Decisions apply in instance
// order, so the timestamps fixed here — K for s0 messages, the carried TS
// for s2 — and the clock advance of line 31 are identical at every group
// member.
func (a *Mcast) processDecision(inst uint64, set []Descriptor) {
	fixTS := a.k // the timestamp this decision assigns to s0 messages
	var (
		maxTS    uint64
		toStage1 []types.MessageID
	)
	for _, d := range set {
		if a.adelivered[d.ID] {
			// Defensive: a delivered message cannot re-enter PENDING.
			a.api.Tracef("a1: decision %d contains already-delivered %v", inst, d.ID)
			continue
		}
		p := a.pending[d.ID]
		if p == nil {
			// Line 30: the decision introduces m to this process.
			a.admitSeq++
			p = &pend{id: d.ID, dest: d.Dest, payload: d.Payload, seq: a.admitSeq}
			if a.api.Tracing() {
				p.adm = a.api.Now()
			}
			a.pending[d.ID] = p
		} else if (d.Stage == Stage0 && p.stage > Stage0) ||
			(d.Stage == Stage2 && p.stage == Stage3) {
			// With Pipeline >= 2 the engine's in-flight exclusion is
			// proposer-local, so two group members may propose m to
			// different concurrent instances and both decisions carry it.
			// Only the first application is binding: re-applying would
			// regress the stage, fix a second (different) timestamp, and
			// re-send a divergent group proposal. The guard is
			// deterministic across the group because stage transitions out
			// of s0 happen only here, in instance order, and a pend reaches
			// s3 with an s2 proposal in flight only via an earlier
			// instance's s2 descriptor.
			a.api.Tracef("a1: decision %d repeats %v at stale stage %v (now %v)", inst, d.ID, d.Stage, p.stage)
			continue
		}
		multi := d.Dest.Size() > 1
		switch {
		case multi && d.Stage == Stage0:
			// Lines 21–24: fix the group proposal and exchange it.
			p.ts = fixTS
			p.stage = Stage1
			a.sendTS(p)
			toStage1 = append(toStage1, d.ID)
		case multi: // d.Stage == Stage2
			// Line 26: the final timestamp was fixed at line 39.
			p.ts = d.TS
			p.stage = Stage3
		case !a.skip:
			// Fritzke [5] pipeline: single-group messages also take both
			// consensus instances (s0→s1→s2→s3).
			if d.Stage == Stage0 {
				p.ts = fixTS
				p.stage = Stage1
				toStage1 = append(toStage1, d.ID)
			} else {
				p.ts = d.TS
				p.stage = Stage3
			}
		default:
			// Lines 28–29: single destination group, the proposal is
			// final; skip straight to s3.
			p.ts = fixTS
			p.stage = Stage3
		}
		if p.ts > maxTS {
			maxTS = p.ts
		}
	}
	// Line 31: advance the group clock past every timestamp just fixed.
	if maxTS < a.k {
		maxTS = a.k
	}
	a.k = maxTS + 1
	// Line 32.
	a.adeliveryTest()
	// Proposals from other groups may have arrived before we reached s1.
	for _, id := range toStage1 {
		a.checkStage1(id)
	}
	// The engine pumps after every applied decision; nothing to do here.
}

// sendTS sends (TS, m) to every process of every other destination group
// (line 24).
func (a *Mcast) sendTS(p *pend) {
	myGroup := a.api.Group()
	desc := Descriptor{ID: p.id, Dest: p.dest, Payload: p.payload, TS: p.ts, Stage: Stage1}
	var tos []types.ProcessID
	for _, g := range p.dest.Groups() {
		if g == myGroup {
			continue
		}
		tos = append(tos, a.api.Topo().Members(g)...)
	}
	a.api.Multicast(tos, a.label, TSMsg{Desc: desc})
}

// checkStage1 evaluates lines 33–40 for message id: once a proposal from
// every other destination group is known, either skip to s3 (our proposal
// was the maximum) or adopt the maximum and go through s2.
func (a *Mcast) checkStage1(id types.MessageID) {
	p := a.pending[id]
	if p == nil || p.stage != Stage1 {
		return
	}
	props := a.tsProps[id]
	myGroup := a.api.Group()
	maxRecv := uint64(0)
	for _, g := range p.dest.Groups() {
		if g == myGroup {
			continue
		}
		ts, ok := props[g]
		if !ok {
			return // line 33 not yet satisfied
		}
		if ts > maxRecv {
			maxRecv = ts
		}
	}
	if a.skip && p.ts >= maxRecv {
		// Lines 35–37: our group proposed the final timestamp; the clock
		// already advanced past it at line 31, so s2 is unnecessary.
		p.stage = Stage3
		a.adeliveryTest()
		return
	}
	// Lines 39–40 (or the forced-s2 Fritzke path).
	if maxRecv > p.ts {
		p.ts = maxRecv
	}
	p.stage = Stage2
	a.engine.Pump()
}

// adeliveryTest is the ADeliveryTest procedure (lines 3–7): deliver, in
// order, every s3 message whose (ts, id) is minimal among all of PENDING.
// While a state transfer is in progress the test is gated: deliveries this
// process missed must land first (in the group's order), or the local
// sequence would diverge from the group's.
func (a *Mcast) adeliveryTest() {
	if a.sync.Syncing() {
		return
	}
	for {
		var min *pend
		for _, p := range a.pending {
			if min == nil || p.less(min) {
				min = p
			}
		}
		if min == nil || min.stage != Stage3 {
			return
		}
		if min.adm > 0 {
			// Ordering residency: admit → deliverable-and-minimal.
			a.api.Trace(trace.StageOrder, min.id, int64(a.api.Now()-min.adm))
		}
		a.deliver(DeliverRec{ID: min.id, Dest: min.dest, TS: min.ts, Payload: min.payload}, false)
	}
}

// deliver A-Delivers one message: it leaves PENDING, joins ADELIVERED,
// advances the delivery count, and is archived for restarted peers. synced
// marks a delivery adopted by state transfer rather than ordered here.
func (a *Mcast) deliver(dr DeliverRec, synced bool) {
	a.api.RecordDeliver(dr.ID)
	a.adelivered[dr.ID] = true
	delete(a.pending, dr.ID)
	delete(a.tsProps, dr.ID)
	a.sync.Archive(dr)
	a.delivered++
	a.wm.Store(a.delivered)
	if a.api.Debugging() {
		if synced {
			a.api.Tracef("a1: A-Deliver %v ts=%d (state transfer)", dr.ID, dr.TS)
		} else {
			a.api.Tracef("a1: A-Deliver %v ts=%d", dr.ID, dr.TS)
		}
	}
	if a.onDeliver != nil {
		a.onDeliver(rmcast.Message{ID: dr.ID, Dest: dr.Dest, Payload: dr.Payload})
	}
}

// sortDescriptors orders a proposal deterministically by message ID.
func sortDescriptors(set []Descriptor) {
	for i := 1; i < len(set); i++ {
		for j := i; j > 0 && set[j].ID.Less(set[j-1].ID); j-- {
			set[j], set[j-1] = set[j-1], set[j]
		}
	}
}
