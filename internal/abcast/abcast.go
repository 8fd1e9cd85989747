// Package abcast implements Algorithm A2 of the paper: the first
// fault-tolerant atomic broadcast with a latency degree of one (§5).
//
// The algorithm is proactive: processes execute an unbounded sequence of
// rounds. In round K, each group agrees (by intra-group consensus) on its
// bundle of messages — the messages R-Delivered locally but not yet
// A-Delivered — then groups exchange bundles, and everyone A-Delivers the
// union of all round-K bundles in a deterministic order. Because a message
// R-MCast inside its caster's group rides the very next bundle exchange,
// its only inter-group delay is that single exchange: latency degree one.
//
// Quiescence (Prop. A.9) comes from the Barrier variable: a round that
// delivers nothing does not raise the Barrier, so once R-Delivered messages
// drain and casts cease, line 11's guard goes false forever and processes
// stop. A cast arriving after quiescence restarts rounds — the caster's
// group via line 11's first disjunct, the other groups via the bundle they
// receive (line 10) — at the cost of latency degree two (Theorem 5.2),
// which §3 proves unavoidable.
//
// Rounds run on the batched, pipelined ordering engine of
// internal/consensus, shared with Algorithm A1: the engine owns the
// propose window (Config.Pipeline rounds in flight beyond the current
// delivery round), the per-round batch cap (Config.MaxBatch), in-flight
// exclusion, and in-order consumption of out-of-order decisions. The
// quiescence logic stays here, expressed as the engine's Gate: a round
// past the Barrier with nothing to propose is not started.
package abcast

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

// Record is one broadcast message as it travels in bundles.
type Record struct {
	ID      types.MessageID
	Payload any
}

// ItemID implements consensus.Item.
func (r Record) ItemID() types.MessageID { return r.ID }

// BundleMsg is the (K, msgSet) inter-group message of line 15.
type BundleMsg struct {
	Round uint64
	Set   []Record
}

// Config configures an A2 endpoint on one process.
type Config struct {
	Host     node.Registrar
	Detector fd.Detector
	// OnDeliver is invoked on every A-Deliver, in delivery order. May be
	// nil.
	OnDeliver func(id types.MessageID, payload any)
	// ConsensusRetry overrides the consensus retry interval.
	ConsensusRetry time.Duration
	// LabelPrefix namespaces the wire labels (default "a2").
	LabelPrefix string
	// AlwaysOn disables the quiescence prediction: rounds run forever
	// (Barrier is treated as infinite). Used by the proactivity ablation;
	// note an AlwaysOn run never drains its event queue.
	AlwaysOn bool
	// NextID overrides cast-ID allocation. Hosts running several casting
	// endpoints on one process must share one allocator, or their message
	// IDs collide. Nil uses a private per-endpoint counter.
	NextID func() types.MessageID
	// KeepAliveRounds is the quiescence predictor's patience: after a
	// useful round, keep executing up to this many further rounds even if
	// they deliver nothing, before predicting that casts have stopped.
	// The paper's Algorithm A2 corresponds to 1 (the round after a useful
	// one always runs, lines 22–23); higher values implement the "more
	// elaborate prediction strategies" §5.3 suggests for bursty traffic:
	// a cast arriving within the patience window still enjoys latency
	// degree one, at the price of extra empty-round traffic. Zero means 1.
	KeepAliveRounds int
	// Pipeline is the maximum number of rounds in flight. The paper's
	// Algorithm A2 is strictly sequential (Pipeline 1, the default): the
	// wait at line 16 blocks round K+1's consensus until round K's
	// bundles arrive, so round throughput is one per inter-group delay.
	// Higher values are an extension: a group may propose and ship rounds
	// K+1..K+Pipeline−1 while earlier bundles are still in flight;
	// A-Delivery still happens strictly in round order, so every §2.2
	// property is preserved, and a message never waits a full WAN delay
	// for the next proposable round. Messages decided in an in-flight
	// round are excluded from later proposals, but that exclusion is
	// local to each proposer: with Pipeline >= 2 two members can decide
	// the same record into two rounds' bundles, so bundle shipping is
	// at-least-once. Delivery stays exactly-once — tryCompleteRound
	// dedups via ADELIVERED identically at every process.
	Pipeline int
	// MaxBatch caps how many records one round's bundle may carry. Zero
	// means unbounded — the paper's rule (the bundle is everything
	// R-Delivered but not yet A-Delivered).
	MaxBatch int
	// Log, when non-nil, makes the endpoint durable: the consensus
	// acceptor persists promises and votes, round decisions and received
	// remote bundles are appended for replay, and state transfer
	// (StartSync) records the rounds it adopts from peers.
	Log *storage.Log
	// OnSynced, when non-nil, fires once a StartSync state transfer has
	// caught this endpoint up with its group.
	OnSynced func()
	// OnSyncFailed, when non-nil, fires the moment a state transfer is
	// abandoned as unrecoverable (see SyncFailed). The host's flight
	// recorder hangs its span dump here.
	OnSyncFailed func()
}

// Bcast is the per-process Algorithm A2 endpoint.
type Bcast struct {
	api       node.API
	onDeliver func(types.MessageID, any)
	label     string
	alwaysOn  bool
	keepAlive uint64

	rm     *rmcast.RMcast
	engine *consensus.Batcher[Record]

	// wm counts this endpoint's A-Deliveries, readable lock-free off the
	// event loop (the read tier's delivery watermark).
	wm atomic.Uint64

	k          uint64 // current delivery round (line 2's K)
	rdelivered map[types.MessageID]Record
	adelivered map[types.MessageID]bool
	rdOrder    []types.MessageID // R-Delivery order, for deterministic proposals
	barrier    uint64
	bundles    map[uint64]map[types.GroupID][]Record // Msgs, keyed by round then sender group
	decided    map[uint64][]Record                   // own group's decided bundle per round
	inDecided  map[types.MessageID]bool              // decided into a bundle, not yet delivered
	castSeq    uint64
	nextID     func() types.MessageID
	rdAt       map[types.MessageID]time.Duration // R-Delivery times, kept only while tracing

	// Durability & recovery state (see Config.Log).
	log  *storage.Log
	sync *catchup.Engine[[]Record, SyncTail] // entries: completed rounds' unions
}

var _ node.Protocol = (*Bcast)(nil)

// New builds an A2 endpoint and registers it (with its sub-protocols) on
// the host process.
func New(cfg Config) *Bcast {
	if cfg.Host == nil || cfg.Detector == nil {
		panic("abcast: Config.Host and Detector are required")
	}
	prefix := cfg.LabelPrefix
	if prefix == "" {
		prefix = "a2"
	}
	keepAlive := uint64(cfg.KeepAliveRounds)
	if keepAlive == 0 {
		keepAlive = 1
	}
	b := &Bcast{
		api:        cfg.Host,
		onDeliver:  cfg.OnDeliver,
		label:      prefix,
		alwaysOn:   cfg.AlwaysOn,
		keepAlive:  keepAlive,
		k:          1,
		rdelivered: make(map[types.MessageID]Record),
		adelivered: make(map[types.MessageID]bool),
		bundles:    make(map[uint64]map[types.GroupID][]Record),
		decided:    make(map[uint64][]Record),
		inDecided:  make(map[types.MessageID]bool),
		nextID:     cfg.NextID,
		log:        cfg.Log,
	}
	if b.nextID == nil {
		b.nextID = func() types.MessageID {
			b.castSeq++
			return types.MessageID{Origin: b.api.Self(), Seq: b.castSeq}
		}
	}
	b.rm = rmcast.New(rmcast.Config{
		API:        cfg.Host,
		Mode:       rmcast.ModeEager, // intra-group only: cheap, robust agreement
		OnDeliver:  b.onRDeliver,
		ProtoLabel: prefix + ".rm",
	})
	b.engine = consensus.NewBatcher(consensus.BatcherConfig[Record]{
		API:           cfg.Host,
		Detector:      cfg.Detector,
		RetryInterval: cfg.ConsensusRetry,
		ProtoLabel:    prefix + ".cons",
		MaxBatch:      cfg.MaxBatch,
		Pipeline:      cfg.Pipeline,
		Log:           cfg.Log,
		Fill:          b.fillBundle,
		Gate:          b.mayPropose,
		Base:          func() uint64 { return b.k },
		OnDecide:      b.shipBundle,
		OnApply:       b.applyRound,
	})
	b.sync = catchup.New(catchup.Config[[]Record, SyncTail]{
		API:      cfg.Host,
		Label:    prefix,
		Chunk:    syncChunk,
		Codec:    syncCodec,
		Position: b.Round,
		Apply:    func(union []Record) { b.applySyncRound(b.k, union, false) },
		Tail:     b.syncTail,
		Adopt:    b.adoptTail,
		Resume:   b.resume,
		OnSynced: cfg.OnSynced,
		OnFailed: cfg.OnSyncFailed,
	})
	cfg.Host.Register(b.rm)
	cfg.Host.Register(b.engine.Protocol())
	cfg.Host.Register(b)
	return b
}

// Proto implements node.Protocol.
func (b *Bcast) Proto() string { return b.label }

// Start implements node.Protocol.
func (b *Bcast) Start() {}

// ABCast atomically broadcasts payload to all groups and returns the
// assigned message ID (Task 1, lines 4–5): the message is reliably
// multicast to the caster's own group only.
func (b *Bcast) ABCast(payload any) types.MessageID {
	id := b.nextID()
	b.api.RecordCast(id)
	own := types.NewGroupSet(b.api.Group())
	b.rm.MCast(rmcast.Message{ID: id, Dest: own, Payload: payload})
	return id
}

// Round returns the process's current round number K (for tests).
func (b *Bcast) Round() uint64 { return b.k }

// Barrier returns the current Barrier value (for tests).
func (b *Bcast) Barrier() uint64 { return b.barrier }

// onRDeliver is Task 2, lines 6–7.
func (b *Bcast) onRDeliver(m rmcast.Message) {
	if b.adelivered[m.ID] {
		// Already A-Delivered via a remote bundle (and pruned from the
		// R-Delivered working set); re-admitting would re-propose it.
		return
	}
	if _, ok := b.rdelivered[m.ID]; ok {
		return
	}
	b.rdelivered[m.ID] = Record{ID: m.ID, Payload: m.Payload}
	b.rdOrder = append(b.rdOrder, m.ID)
	if b.api.Tracing() {
		if b.rdAt == nil {
			b.rdAt = make(map[types.MessageID]time.Duration)
		}
		b.rdAt[m.ID] = b.api.Now()
	}
	b.engine.Pump()
}

// Receive implements node.Protocol: it handles bundle messages from other
// groups (Task 3, lines 8–10) and the restart state-transfer exchange.
func (b *Bcast) Receive(from types.ProcessID, body any) {
	switch m := body.(type) {
	case BundleMsg:
		b.handleBundle(b.api.Topo().GroupOf(from), m.Round, m.Set, false)
	default:
		if !b.sync.Receive(from, body) {
			panic(fmt.Sprintf("abcast: unexpected message %T", body))
		}
	}
}

// handleBundle records one remote group's round bundle. replay marks WAL
// replay: state advances identically but nothing is re-logged.
func (b *Bcast) handleBundle(g types.GroupID, round uint64, set []Record, replay bool) {
	if round < b.k {
		// The round already completed here: every member of the sender
		// group ships its group's bundle, so late copies keep arriving
		// after the first one completed the round. Storing them would
		// re-create bundles[round] entries nothing ever reads or
		// deletes again; and a completed round can no longer need the
		// Barrier raised to it (future rounds are all > round).
		return
	}
	perGroup := b.bundles[round]
	if perGroup == nil {
		perGroup = make(map[types.GroupID][]Record)
		b.bundles[round] = perGroup
	}
	if _, seen := perGroup[g]; !seen {
		perGroup[g] = set
		if !replay {
			// Unsynced: a lost tail bundle is re-fetched from peers by the
			// next restart's state transfer.
			b.log.Append(storage.Record{Kind: storage.KindBundle, Proto: b.label,
				Inst: round, Aux: uint64(g), Value: set})
		}
	}
	if round > b.barrier {
		b.barrier = round
	}
	b.engine.Pump()
	b.tryCompleteRound()
}

// fillBundle is the engine's Fill hook (Task 4, line 12's msgSet):
// RDELIVERED \ ADELIVERED, minus messages decided into an undelivered
// bundle or in flight in an undecided round (relevant only when
// pipelining), in R-Delivery order up to limit. Both fences are local to
// this proposer — a record this process never proposed can still be
// decided into two concurrent rounds by different members — so they bound
// redundant shipping rather than prevent it (see Config.Pipeline).
func (b *Bcast) fillBundle(exclude func(types.MessageID) bool, limit int) []Record {
	var out []Record
	for _, id := range b.rdOrder {
		if b.adelivered[id] || b.inDecided[id] || exclude(id) {
			continue
		}
		out = append(out, b.rdelivered[id])
		if limit > 0 && len(out) == limit {
			break
		}
	}
	return out
}

// mayPropose is the engine's Gate (line 11's guard, generalized): a round
// is started if it is within the Barrier (keepalive), there is something
// to propose, or quiescence prediction is off.
func (b *Bcast) mayPropose(inst uint64, batch []Record) bool {
	return b.alwaysOn || inst <= b.barrier || len(batch) > 0
}

// shipBundle is the engine's OnDecide hook (line 14's "When Decided" and
// line 15): the moment our group's round bundle is decided — possibly out
// of round order when pipelining — ship it to every process outside the
// group and fence its records against re-proposal.
func (b *Bcast) shipBundle(inst uint64, set []Record) {
	for _, rec := range set {
		b.inDecided[rec.ID] = true
	}
	myGroup := b.api.Group()
	topo := b.api.Topo()
	var tos []types.ProcessID
	for _, q := range topo.AllProcesses() {
		if topo.GroupOf(q) != myGroup {
			tos = append(tos, q)
		}
	}
	b.api.Multicast(tos, b.label, BundleMsg{Round: inst, Set: set})
}

// applyRound is the engine's OnApply hook: decisions arrive here in dense
// round order; completing the round additionally waits for the other
// groups' bundles (the wait at line 16).
func (b *Bcast) applyRound(inst uint64, set []Record) {
	b.decided[inst] = set
	b.tryCompleteRound()
}

// tryCompleteRound is the event-driven form of the wait at line 16: once
// our own round-K bundle is decided and a bundle from every other group has
// arrived, execute lines 17–23.
func (b *Bcast) tryCompleteRound() {
	if b.sync.Syncing() {
		// State transfer in progress: rounds this process missed must be
		// adopted (in order) before any new round may deliver.
		return
	}
	own, ok := b.decided[b.k]
	if !ok {
		return
	}
	topo := b.api.Topo()
	myGroup := b.api.Group()
	perGroup := b.bundles[b.k]
	for _, g := range topo.AllGroups().Groups() {
		if g == myGroup {
			continue
		}
		if _, have := perGroup[g]; !have {
			return
		}
	}
	// Lines 17–18: the round's delivery set is the union of all bundles.
	union := make([]Record, 0, len(own))
	union = append(union, own...)
	for _, g := range topo.AllGroups().Groups() {
		if g != myGroup {
			union = append(union, perGroup[g]...)
		}
	}
	// Line 19: deterministic order — ascending message ID.
	sort.Slice(union, func(i, j int) bool { return union[i].ID.Less(union[j].ID) })
	b.completeRound(union, false)
	// An already-received decision or bundle may complete the next round.
	b.engine.Pump()
	b.tryCompleteRound()
}

// completeRound executes lines 17–23 for round K with its (sorted) union:
// A-Deliver every record not yet delivered, drop the round's working
// state, archive the union for restarted peers, advance K, and keep rounds
// running if this one was useful. synced marks a round adopted by state
// transfer rather than completed here.
func (b *Bcast) completeRound(union []Record, synced bool) {
	for _, rec := range union {
		delete(b.inDecided, rec.ID)
		delete(b.rdelivered, rec.ID)
		if b.adelivered[rec.ID] {
			delete(b.rdAt, rec.ID)
			continue
		}
		b.adelivered[rec.ID] = true
		b.wm.Add(1)
		if at, ok := b.rdAt[rec.ID]; ok {
			// Ordering residency: R-Delivery → round completion.
			b.api.Trace(trace.StageOrder, rec.ID, int64(b.api.Now()-at))
			delete(b.rdAt, rec.ID)
		}
		b.api.RecordDeliver(rec.ID)
		if b.api.Debugging() {
			if synced {
				b.api.Tracef("a2: A-Deliver %v in round %d (state transfer)", rec.ID, b.k)
			} else {
				b.api.Tracef("a2: A-Deliver %v in round %d", rec.ID, b.k)
			}
		}
		if b.onDeliver != nil {
			b.onDeliver(rec.ID, rec.Payload)
		}
	}
	// Compact the R-Delivery working set: fillBundle walks rdOrder on
	// every Pump, so delivered entries must not accumulate across rounds.
	if len(union) > 0 {
		kept := b.rdOrder[:0]
		for _, id := range b.rdOrder {
			if _, ok := b.rdelivered[id]; ok {
				kept = append(kept, id)
			}
		}
		b.rdOrder = kept
	}
	delete(b.bundles, b.k)
	delete(b.decided, b.k)
	b.sync.Archive(union)
	// Line 21.
	b.k++
	// Lines 22–23: keep rounds running only if this one was useful. The
	// predictor's patience (KeepAliveRounds, paper default 1) extends the
	// Barrier past the next round for bursty workloads.
	if len(union) > 0 && b.k+b.keepAlive-1 > b.barrier {
		b.barrier = b.k + b.keepAlive - 1
	}
}
