package wanamcast

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"wanamcast/internal/abcast"
	"wanamcast/internal/amcast"
	"wanamcast/internal/check"
	"wanamcast/internal/durable"
	"wanamcast/internal/fd"
	"wanamcast/internal/harness"
	"wanamcast/internal/metrics"
	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/scenario"
	"wanamcast/internal/storage"
	"wanamcast/internal/trace"
	"wanamcast/internal/transport/tcp"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// LiveConfig describes a cluster running over real TCP sockets on
// localhost, with an injected one-way WAN delay between groups.
type LiveConfig struct {
	// Groups and PerGroup shape the topology (defaults 2 × 3).
	Groups   int
	PerGroup int
	// BasePort: process p listens on BasePort+p (default 19000).
	BasePort int
	// WANDelay is the injected inter-group one-way delay (default 100 ms);
	// LANDelay applies within groups (default 0: raw loopback).
	WANDelay time.Duration
	LANDelay time.Duration
	// HeartbeatEvery and SuspectAfter tune the heartbeat failure detector
	// (defaults 50 ms and 250 ms): a peer silent for SuspectAfter is
	// suspected — and trusted again the moment its beats resume.
	// HeartbeatEvery must be shorter than SuspectAfter.
	HeartbeatEvery time.Duration
	SuspectAfter   time.Duration
	// LeaseDuration enables leader leases: each group's rank-0 replica
	// collects time-bounded grants over the heartbeat traffic and, while a
	// majority's grants are live, publishes a lease (ReadLease) that lets
	// it serve linearizable single-shard reads locally — zero WAN round
	// trips. 0 (the default) disables leases. Safety holds as long as
	// clock RATE drift over one lease window stays under MaxClockSkew;
	// clock offsets don't matter (see the tcp lease protocol).
	LeaseDuration time.Duration
	// MaxClockSkew guards the lease windows against clock drift (default
	// 10 ms when leases are enabled). It must stay below LeaseDuration, or
	// no lease would ever activate.
	MaxClockSkew time.Duration
	// Pipeline sets the consensus-instances-in-flight limit for both A1
	// and A2 (default 1, the paper's sequential algorithms).
	Pipeline int
	// MaxBatch caps how many messages one consensus instance may order,
	// for both A1 and A2 (default 0: unbounded, the paper's rule).
	MaxBatch int
	// ConsensusRetry overrides the re-drive period for undecided consensus
	// proposals (default 40 ms). Raise it on bandwidth-capped clusters:
	// re-driving faster than the links drain only multiplies the queued
	// bytes the retries are waiting behind.
	ConsensusRetry time.Duration
	// Lanes shards the cluster's processes across exactly this many
	// ordering lane goroutines, by group (lane = group mod Lanes): each
	// group's protocol state stays confined to one lane while different
	// groups order in parallel on different cores. Lanes > 0 also routes
	// every durable store's fsync barriers through a single group-commit
	// syncer, so one fsync covers every lane's promises in a window. 0
	// (the default) keeps the historical layout — one goroutine per
	// process, synchronous Commit barriers.
	Lanes int
	// Bandwidth caps every link at this many bytes per second (0 =
	// uncapped): each TCP connection's writer paces itself to the rate.
	// Heartbeats are exempt, so a saturated link cannot look like a crash.
	// Commands parse human-readable rates via harness.ParseBandwidth.
	Bandwidth int64
	// CompressMin is the batch compression threshold in bytes (0 = default
	// wire.MinCompress, negative = compression off). Positive values below
	// wire.MinCompress (one MTU) are rejected.
	CompressMin int
	// RetainDeliveries bounds the cluster's delivery bookkeeping: only the
	// most recent RetainDeliveries entries of the Deliveries() log are
	// kept, and the per-message counts behind WaitDelivered and
	// DeliveredCount are evicted for all but the most recent
	// max(8×RetainDeliveries, 4096) messages — wait only on recent casts.
	// 0 keeps everything forever (the historical behavior — beware that
	// it grows without bound in long runs).
	RetainDeliveries int
	// Check records every cast and delivery into a §2.2 property checker
	// so CheckProperties can verify uniform integrity, validity, uniform
	// agreement, and uniform prefix order over the live run. The checker
	// retains the full run (unaffected by RetainDeliveries): leave it off
	// for unbounded benchmarks.
	Check bool
	// DataDir enables durability: process p persists its WAL and
	// snapshots under DataDir/p<N>, and Crash(p) can be undone with
	// Restart(p) — the replica recovers its Paxos, clock, and session
	// state from disk and catches up missed instances from live peers.
	// Empty means no persistence (the historical behavior).
	DataDir string
	// StoreFor overrides DataDir with an explicit store per process
	// (tests use storage.NewMem). When it returns nil for a process, that
	// process runs without persistence.
	StoreFor func(p ProcessID) storage.Store
	// NoFsync makes Commit barriers flush without fsyncing: crashes of
	// the whole OS process lose the tail, in-process Crash/Restart does
	// not. The "fsync=off" benchmark knob; it needs DataDir.
	NoFsync bool
	// SnapshotEvery is how many A-Deliveries a process accumulates before
	// its state is snapshotted and the WAL truncated (default 512;
	// negative disables automatic snapshots). It needs DataDir or StoreFor.
	SnapshotEvery int
	// TraceSpans enables the end-to-end message lifecycle tracer: every
	// process records causal spans (submit, rmcast send/admit, cast,
	// consensus propose/promise/accept/learn, fsync barriers, lane
	// dequeues, A-Deliver, reply) into bounded per-lane rings, and the
	// duration-carrying stages feed per-stage latency histograms
	// (Tracer().Stats()). Off by default; disabled it costs one atomic
	// load per potential span.
	TraceSpans bool
	// SpanBuf bounds each lane's span ring (default 4096 events, rounded
	// up to a power of two). Older spans are overwritten — the tracer is
	// a flight recorder, not a complete log.
	SpanBuf int
	// FlightDump arms the flight recorder (requires TraceSpans): on a
	// §2.2 checker violation, an abandoned state transfer (SyncFailed),
	// or a crash-restart, the retained spans are dumped as JSONL to this
	// path (overwritten per trigger — the last incident wins).
	FlightDump string
}

// withDefaults fills the zero values that mean "default" — the
// topology, the failure detector's timing, the lease skew guard, and the
// snapshot cadence of a durable cluster — so Validate judges the values a
// cluster would actually run with. tcp.New defaults the rest.
func (c LiveConfig) withDefaults() LiveConfig {
	if c.Groups == 0 {
		c.Groups = 2
	}
	if c.PerGroup == 0 {
		c.PerGroup = 3
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = tcp.DefaultHeartbeatEvery
	}
	if c.SuspectAfter == 0 {
		c.SuspectAfter = tcp.DefaultSuspectAfter
	}
	if c.LeaseDuration > 0 && c.MaxClockSkew == 0 {
		c.MaxClockSkew = tcp.DefaultMaxClockSkew
	}
	if c.SnapshotEvery == 0 && c.durable() {
		c.SnapshotEvery = 512
	}
	return c
}

func (c LiveConfig) durable() bool { return c.DataDir != "" || c.StoreFor != nil }

// Validate reports the first value that would make the cluster fail or
// run other than configured: negative sizes and delays, a sub-MTU
// compression threshold, durability knobs without a store, a failure
// detector that suspects between two heartbeats, a lease the clock-skew
// guard swallows whole, or a flight recorder without the tracer it dumps.
// It judges the config after defaults are applied, so a 5 ms lease fails
// against the default 10 ms skew guard. NewLiveCluster calls it first.
func (c LiveConfig) Validate() error {
	c = c.withDefaults()
	switch {
	case c.FlightDump != "" && !c.TraceSpans:
		return fmt.Errorf("a flight dump needs lifecycle tracing (set TraceSpans)")
	case c.NoFsync && c.DataDir == "":
		return fmt.Errorf("fsync=off is meaningless without a data dir")
	case c.SnapshotEvery != 0 && !c.durable():
		return fmt.Errorf("snapshot cadence is meaningless without a data dir")
	case c.MaxClockSkew != 0 && c.LeaseDuration == 0:
		return fmt.Errorf("a clock-skew guard is meaningless without leases (set a lease duration)")
	case c.Groups < 0 || c.PerGroup < 0:
		return fmt.Errorf("topology must be positive: %d groups x %d processes", c.Groups, c.PerGroup)
	case c.WANDelay < 0 || c.LANDelay < 0:
		return fmt.Errorf("delays must be non-negative: wan=%v lan=%v", c.WANDelay, c.LANDelay)
	case c.HeartbeatEvery < 0 || c.HeartbeatEvery >= c.SuspectAfter:
		return fmt.Errorf("need 0 < heartbeat < suspect-after (got %v, %v): a detector that suspects between two beats suspects everyone", c.HeartbeatEvery, c.SuspectAfter)
	case c.LeaseDuration < 0 || c.MaxClockSkew < 0:
		return fmt.Errorf("lease duration and clock skew must be non-negative: %v, %v", c.LeaseDuration, c.MaxClockSkew)
	case c.LeaseDuration > 0 && c.MaxClockSkew >= c.LeaseDuration:
		return fmt.Errorf("the clock-skew guard %v consumes the whole lease window %v: no lease would ever activate", c.MaxClockSkew, c.LeaseDuration)
	case c.ConsensusRetry < 0:
		return fmt.Errorf("consensus retry must be non-negative: %v", c.ConsensusRetry)
	case c.MaxBatch < 0:
		return fmt.Errorf("max batch must be non-negative: %d", c.MaxBatch)
	case c.Pipeline < 0:
		return fmt.Errorf("pipeline depth must be non-negative: %d", c.Pipeline)
	case c.Lanes < 0:
		return fmt.Errorf("lane count must be non-negative: %d", c.Lanes)
	case c.SpanBuf < 0:
		return fmt.Errorf("span buffer size must be non-negative: %d", c.SpanBuf)
	case c.Bandwidth < 0:
		return fmt.Errorf("bandwidth must be non-negative: %d B/s", c.Bandwidth)
	case c.CompressMin > 0 && c.CompressMin < wire.MinCompress:
		return fmt.Errorf("compression threshold %d is below one MTU (%d): compressing sub-packet payloads burns CPU for nothing", c.CompressMin, wire.MinCompress)
	case c.RetainDeliveries < 0:
		return fmt.Errorf("delivery retention must be non-negative: %d", c.RetainDeliveries)
	}
	return nil
}

// LiveCluster runs Algorithms A1 and A2 on every process over TCP.
// Construct with NewLiveCluster, then Start; deliveries arrive on the
// callback passed to OnDeliver (installed before Start). LiveCluster is
// safe for concurrent use.
type LiveCluster struct {
	err    error // a cluster that could not be built holds only this
	rt     *tcp.Runtime
	topo   *types.Topology
	cfg    LiveConfig
	col    *metrics.LockedCollector
	tracer *trace.Tracer // nil unless LiveConfig.TraceSpans
	a1     []*amcast.Mcast
	a2     []*abcast.Bcast

	stores   []storage.Store      // per process; nil = no persistence
	gc       *storage.GroupCommit // cross-lane fsync batcher; nil when Lanes == 0
	castSeqs []uint64             // per-process cast allocators (loop-confined)

	mu         sync.Mutex
	onDeliver  func(p ProcessID, id MessageID, payload any)
	hooks      [][]func(id MessageID, payload any) // per-process delivery hooks
	extras     [][]durable.Section                 // registered snapshot sections
	recovering []bool                              // per process: replaying its log
	snapCount  []int                               // deliveries since last snapshot
	deliveries []Delivery
	retain     int
	counts     map[MessageID]int
	countOrder []MessageID // first-delivery order, for bounded eviction
	checker    *check.Checker
	crashed    map[ProcessID]bool
	syncFault  string // first abandoned state transfer; /healthz reports it
	violation  string // first violation of the latest CheckProperties, if any
	started    bool
	stopped    bool
	startTime  time.Time
	closeOnce  sync.Once
}

// NewLiveCluster builds (but does not start) a live cluster. Payloads of
// basic types ride the wire codec directly; gob-register any other payload
// type before casting it. A config that fails Validate, or a data
// directory that cannot be opened, yields a cluster that holds only the
// error: its Start returns it without binding a port, its Stop does
// nothing, and no other method may be called. A cluster asked to be
// durable never silently runs volatile.
func NewLiveCluster(cfg LiveConfig) *LiveCluster {
	if err := cfg.Validate(); err != nil {
		return &LiveCluster{err: fmt.Errorf("wanamcast: live config: %w", err)}
	}
	cfg = cfg.withDefaults()
	topo := types.NewTopology(cfg.Groups, cfg.PerGroup)
	stores, err := openStores(cfg, topo)
	if err != nil {
		return &LiveCluster{err: err}
	}
	col := &metrics.LockedCollector{}
	// The collector's per-cast records (each holding its deliveries) must
	// not grow forever on a long-lived cluster: bound them like the
	// delivery-count map — generously past RetainDeliveries when that is
	// set, and at 64k casts otherwise (a serve-mode cluster with the
	// historical keep-everything delivery log still gets bounded metrics).
	if cfg.RetainDeliveries > 0 {
		col.SetCastWindow(8 * cfg.RetainDeliveries)
	} else {
		col.SetCastWindow(1 << 16)
	}
	var tr *trace.Tracer
	if cfg.TraceSpans {
		// One span ring per ordering lane: with Lanes unset every process
		// runs its own lane, so size the tracer to the process count.
		lanes := cfg.Lanes
		if lanes <= 0 {
			lanes = topo.N()
		}
		tr = trace.New(lanes, cfg.SpanBuf)
		tr.SetEnabled(true)
	}
	rt := tcp.New(tcp.Config{
		Topo:           topo,
		BasePort:       cfg.BasePort,
		WANDelay:       cfg.WANDelay,
		LANDelay:       cfg.LANDelay,
		HeartbeatEvery: cfg.HeartbeatEvery,
		SuspectAfter:   cfg.SuspectAfter,
		LeaseDuration:  cfg.LeaseDuration,
		MaxClockSkew:   cfg.MaxClockSkew,
		Lanes:          cfg.Lanes,
		Bandwidth:      cfg.Bandwidth,
		CompressMin:    cfg.CompressMin,
		Recorder:       col,
		Tracer:         tr,
	})
	l := &LiveCluster{
		rt:         rt,
		col:        col,
		tracer:     tr,
		topo:       topo,
		cfg:        cfg,
		a1:         make([]*amcast.Mcast, topo.N()),
		a2:         make([]*abcast.Bcast, topo.N()),
		stores:     stores,
		castSeqs:   make([]uint64, topo.N()),
		retain:     cfg.RetainDeliveries,
		counts:     make(map[MessageID]int),
		hooks:      make([][]func(id MessageID, payload any), topo.N()),
		extras:     make([][]durable.Section, topo.N()),
		recovering: make([]bool, topo.N()),
		snapCount:  make([]int, topo.N()),
		crashed:    make(map[ProcessID]bool),
	}
	if cfg.Check {
		l.checker = check.New(topo)
	}
	// With lanes sharing goroutines, Commit barriers batch through one
	// group-commit syncer instead of fsyncing inline (see
	// storage.GroupCommit). Only worth starting when some store can
	// actually split its barrier.
	if cfg.Lanes > 0 {
		for _, s := range l.stores {
			if _, ok := s.(storage.SyncStore); ok {
				l.gc = storage.NewGroupCommit()
				l.gc.SetTracer(tr)
				break
			}
		}
	}
	for _, id := range topo.AllProcesses() {
		l.buildEndpoints(id, rt.Proc(id), rt.Detector(id))
	}
	return l
}

// openStores creates every process's durable store per the config:
// StoreFor wins, then DataDir, else none. On a failure it closes the
// stores it already opened.
func openStores(cfg LiveConfig, topo *types.Topology) ([]storage.Store, error) {
	stores := make([]storage.Store, topo.N())
	for _, id := range topo.AllProcesses() {
		switch {
		case cfg.StoreFor != nil:
			stores[id] = cfg.StoreFor(id)
		case cfg.DataDir != "":
			d, err := storage.OpenDisk(filepath.Join(cfg.DataDir, fmt.Sprintf("p%d", int(id))),
				storage.DiskOptions{NoFsync: cfg.NoFsync})
			if err != nil {
				for _, s := range stores[:id] {
					_ = s.Close()
				}
				return nil, fmt.Errorf("wanamcast: open data dir for %v: %w", id, err)
			}
			stores[id] = d
		}
	}
	return stores, nil
}

// buildEndpoints wires one process's A1 and A2 endpoints onto proc. It
// runs at construction and again, on the process's own event loop, when
// Restart builds a fresh incarnation.
func (l *LiveCluster) buildEndpoints(id ProcessID, proc *node.Proc, det fd.Detector) {
	// One allocator per process: A1 and A2 IDs must not collide. The
	// counter is only touched on the process's own event loop (and is
	// snapshot-restored with a safety gap across restarts).
	nextID := func() MessageID {
		l.castSeqs[id]++
		return MessageID{Origin: id, Seq: l.castSeqs[id]}
	}
	log := storage.NewLog(l.stores[id])
	if l.gc != nil {
		// Barrier continuations (the parked Promise/Accepted replies) run
		// back on the process's own lane, where protocol state is safe to
		// touch.
		log.AttachGroupCommit(l.gc, func(fn func()) { l.rt.Async(id, fn) })
	}
	var onSynced func()
	if l.stores[id] != nil {
		// A completed state transfer is the natural snapshot point: the
		// adopted deliveries live only in the WAL until one is taken.
		onSynced = func() { l.rt.Async(id, func() { l.snapshot(id) }) }
	}
	l.a1[id] = amcast.New(amcast.Config{
		Host:           proc,
		Detector:       det,
		SkipStages:     true,
		NextID:         nextID,
		MaxBatch:       l.cfg.MaxBatch,
		Pipeline:       l.cfg.Pipeline,
		ConsensusRetry: l.cfg.ConsensusRetry,
		Log:            log,
		OnSynced:       onSynced,
		OnSyncFailed:   func() { l.syncFailed(fmt.Sprintf("a1 state transfer abandoned at %v", id)) },
		OnDeliver:      func(m rmcast.Message) { l.recordDelivery(id, m.ID, m.Payload) },
	})
	l.a2[id] = abcast.New(abcast.Config{
		Host:           proc,
		Detector:       det,
		Pipeline:       l.cfg.Pipeline,
		MaxBatch:       l.cfg.MaxBatch,
		ConsensusRetry: l.cfg.ConsensusRetry,
		NextID:         nextID,
		Log:            log,
		OnSynced:       onSynced,
		OnSyncFailed:   func() { l.syncFailed(fmt.Sprintf("a2 state transfer abandoned at %v", id)) },
		OnDeliver:      func(mid MessageID, payload any) { l.recordDelivery(id, mid, payload) },
	})
}

func (l *LiveCluster) recordDelivery(p ProcessID, id MessageID, payload any) {
	l.mu.Lock()
	if l.recovering[p] {
		// Log replay re-emits deliveries the cluster already recorded
		// before the crash: the checker, counts, and the delivery log must
		// not see them twice. The per-process hooks DO run — they rebuild
		// the restarted replica's service state from the replayed sequence.
		hooks := l.hooks[p]
		l.mu.Unlock()
		for _, h := range hooks {
			h(id, payload)
		}
		return
	}
	fn := l.onDeliver
	hooks := l.hooks[p]
	snapDue := false
	if l.stores[p] != nil && l.cfg.SnapshotEvery > 0 {
		l.snapCount[p]++
		if l.snapCount[p] >= l.cfg.SnapshotEvery {
			l.snapCount[p] = 0
			snapDue = true
		}
	}
	if l.checker != nil {
		l.checker.RecordDeliver(p, id)
	}
	if _, seen := l.counts[id]; !seen {
		l.countOrder = append(l.countOrder, id)
	}
	l.counts[id]++
	l.deliveries = append(l.deliveries, Delivery{Process: p, ID: id, Payload: payload, At: time.Since(l.startTime)})
	// With RetainDeliveries set, trim amortised: let the log grow to twice
	// the bound, then copy the newest half down. The per-message count map
	// is bounded too (its entries are small but would otherwise accumulate
	// one per message forever): the oldest ids are evicted once it exceeds
	// countBound(), so DeliveredCount stays exact for recent messages only.
	if l.retain > 0 {
		l.deliveries, _ = storage.TrimTail(l.deliveries, l.retain)
		if bound := l.countBound(); len(l.countOrder) > 2*bound {
			evict := l.countOrder[:len(l.countOrder)-bound]
			for _, old := range evict {
				delete(l.counts, old)
			}
			l.countOrder = append(l.countOrder[:0], l.countOrder[len(l.countOrder)-bound:]...)
		}
	}
	l.mu.Unlock()
	if fn != nil {
		fn(p, id, payload)
	}
	// Hooks run on p's event loop (like fn), so each process's hooks see
	// its deliveries sequentially, in A-Delivery order.
	for _, h := range hooks {
		h(id, payload)
	}
	if snapDue {
		// Snapshots must not run mid-delivery-cascade (the engine state is
		// only consistent between loop events): enqueue as its own event.
		l.rt.Async(p, func() { l.snapshot(p) })
	}
}

// countBound is how many per-message delivery counts are retained when
// RetainDeliveries bounds the cluster's memory: comfortably more than the
// delivery log itself so WaitDelivered works for anything still visible in
// Deliveries(), with a floor that keeps short test runs exact.
func (l *LiveCluster) countBound() int {
	const floor = 4096
	if b := 8 * l.retain; b > floor {
		return b
	}
	return floor
}

// OnDeliver installs the delivery callback. Install before Start.
func (l *LiveCluster) OnDeliver(fn func(p ProcessID, id MessageID, payload any)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onDeliver = fn
}

// OnDeliverAt installs an additional per-process delivery hook: fn runs on
// p's event loop for each of p's A-Deliveries, in delivery order, after
// the global OnDeliver callback. The service layer (internal/svc) hangs
// its replica servers here. Install before the first cast.
func (l *LiveCluster) OnDeliverAt(p ProcessID, fn func(id MessageID, payload any)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hooks[p] = append(l.hooks[p], fn)
}

// Topology exposes the cluster's process/group layout.
func (l *LiveCluster) Topology() *Topology { return l.topo }

// Start opens sockets and launches every process. A cluster can be
// started at most once; Start after Stop fails rather than resurrecting
// closed sockets. A cluster NewLiveCluster could not build returns its
// error here.
func (l *LiveCluster) Start() error {
	if l.err != nil {
		return l.err
	}
	l.mu.Lock()
	if l.started {
		l.mu.Unlock()
		return fmt.Errorf("wanamcast: live cluster already started")
	}
	if l.stopped {
		l.mu.Unlock()
		return fmt.Errorf("wanamcast: live cluster already stopped")
	}
	l.started = true
	l.startTime = time.Now()
	l.mu.Unlock()
	return l.rt.Start()
}

// Stop shuts the cluster down. It is idempotent and safe to call
// concurrently (every call blocks until shutdown completes) and before
// Start (the cluster then refuses to start).
func (l *LiveCluster) Stop() {
	if l.err != nil {
		return
	}
	l.mu.Lock()
	l.stopped = true
	l.mu.Unlock()
	l.rt.Stop()
	// Loops are drained: stop the group-commit syncer (its final sweep
	// must precede the store closes below — a Sync racing Close would
	// hit a closed file), then flush and release the durable stores
	// exactly once.
	l.closeOnce.Do(func() {
		if l.gc != nil {
			l.gc.Close()
		}
		for _, s := range l.stores {
			if s != nil {
				_ = s.Close()
			}
		}
	})
}

// Process returns the ProcessID of the i-th member of group g.
func (l *LiveCluster) Process(g GroupID, i int) ProcessID { return l.topo.Members(g)[i] }

// Broadcast atomically broadcasts payload from process from (Algorithm A2).
func (l *LiveCluster) Broadcast(from ProcessID, payload any) MessageID {
	var id MessageID
	// With checking on, l.mu is held ACROSS the cast and its recording: a
	// remote replica could otherwise order and deliver the message between
	// ABCast handing frames to the async writers and the checker learning
	// of the cast, and recordDelivery would file a permanent false
	// integrity fault. Deadlock-free: ABCast only enqueues (never blocks
	// on another loop), and no A-Delivery can happen synchronously inside
	// it. l.checker is immutable after construction, so the checker-off
	// hot path (all benchmarks) adds no cross-loop lock contention.
	// Broadcasting from a crashed (not yet restarted) process is refused:
	// the zero MessageID is returned and nothing is cast — a dead process
	// cannot originate messages, and recording such a cast would become a
	// permanent false validity fault once the process restarts as correct.
	l.rt.Run(from, func() {
		// The crash flag is loop-confined state of the CURRENT incarnation
		// (Restart swaps in a fresh one), so the checker-off hot path stays
		// lock-free.
		if l.rt.Proc(from).Crashed() {
			return
		}
		if l.checker == nil {
			id = l.a2[from].ABCast(payload)
			return
		}
		l.mu.Lock()
		if l.crashed[from] {
			l.mu.Unlock()
			return
		}
		id = l.a2[from].ABCast(payload)
		l.checker.RecordCast(id, l.topo.AllGroups())
		l.mu.Unlock()
	})
	return id
}

// Multicast atomically multicasts payload from from to groups (Algorithm A1).
func (l *LiveCluster) Multicast(from ProcessID, payload any, groups ...GroupID) MessageID {
	if len(groups) == 0 {
		panic("wanamcast: Multicast needs at least one destination group")
	}
	dest := types.NewGroupSet(groups...)
	var id MessageID
	// See Broadcast for why l.mu spans the cast and its recording when
	// checking is on, why it is skipped entirely when it is off, and why
	// a crashed originator is refused (zero MessageID).
	l.rt.Run(from, func() {
		if l.rt.Proc(from).Crashed() {
			return
		}
		if l.checker == nil {
			id = l.a1[from].AMCast(payload, dest)
			return
		}
		l.mu.Lock()
		if l.crashed[from] {
			l.mu.Unlock()
			return
		}
		id = l.a1[from].AMCast(payload, dest)
		l.checker.RecordCast(id, dest)
		l.mu.Unlock()
	})
	return id
}

// WaitPropertiesClean polls CheckProperties until it reports no
// violations or the timeout expires, returning the final verdict (empty
// means the run satisfies §2.2). This is the idiomatic way to check a
// live run: casts still draining report as transient agreement/validity
// violations that disappear once every addressee has delivered.
func (l *LiveCluster) WaitPropertiesClean(timeout time.Duration) []string {
	deadline := time.Now().Add(timeout)
	for {
		v := l.CheckProperties()
		if len(v) == 0 || time.Now().After(deadline) {
			return v
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// Crash crash-stops process p.
func (l *LiveCluster) Crash(p ProcessID) {
	l.mu.Lock()
	l.crashed[p] = true
	l.mu.Unlock()
	l.rt.Crash(p)
}

// Stats returns the aggregate protocol measurements of the run so far:
// message counts, latency degrees, batch sizes, and the failure-detector
// counters (suspicions, trust restorations, leader changes per group).
// Counters are cumulative; the per-cast latency aggregates cover a bounded
// window of recent casts (8×RetainDeliveries, or 65536 when the delivery
// log is unbounded), so a long-running cluster's memory stays flat.
func (l *LiveCluster) Stats() Stats { return l.col.Snapshot() }

// FsyncStats reports the cluster's durability-barrier accounting:
// Fsyncs is the total fsyncs issued across every durable store, and the
// group-commit counters (zero when Lanes == 0) show the batching — with
// B barriers amortised over W windows, B/W lane barriers shared each
// fsync.
type FsyncStats struct {
	Fsyncs   uint64 // fsyncs issued across all stores (inline + group commit)
	Barriers uint64 // durability barriers staged through the group-commit syncer
	Windows  uint64 // group-commit windows executed
	Syncs    uint64 // fsyncs issued by the syncer (subset of Fsyncs)
}

// Tracer returns the cluster's message-lifecycle tracer, nil unless
// LiveConfig.TraceSpans: recent spans via Snapshot/WriteJSONL, per-stage
// latency histograms via Stats().
func (l *LiveCluster) Tracer() *trace.Tracer { return l.tracer }

// LaneDepths snapshots each ordering lane's pending-event count.
func (l *LiveCluster) LaneDepths() []int { return l.rt.LaneDepths() }

// TelemetrySource assembles the live introspection plane's data sources
// from this cluster for harness.ServeTelemetry: protocol stats, fsync and
// lane-depth gauges, health, and — when TraceSpans is on — the stage
// histograms and the recent span dump. svcStats adds the service-layer
// counters (nil omits them); cmd names the serving command on the index
// page.
func (l *LiveCluster) TelemetrySource(cmd string, svcStats *metrics.Service) harness.Telemetry {
	t := harness.Telemetry{
		Cmd:     cmd,
		Stats:   l.Stats,
		Healthy: l.healthy,
		Gauges: func() map[string]float64 {
			fs := l.FsyncStats()
			w := l.Stats().Wire
			g := map[string]float64{
				"wanamcast_fsyncs_total":           float64(fs.Fsyncs),
				"wanamcast_gc_barriers_total":      float64(fs.Barriers),
				"wanamcast_gc_windows_total":       float64(fs.Windows),
				"wanamcast_wire_bytes_out_total":   float64(w.BytesOut),
				"wanamcast_wire_bytes_in_total":    float64(w.BytesIn),
				"wanamcast_wire_frames_out_total":  float64(w.FramesOut),
				"wanamcast_wire_writes_out_total":  float64(w.EnvelopesOut),
				"wanamcast_wire_compression_ratio": w.CompressionRatio(),
				"wanamcast_wire_frames_per_write":  w.FramesPerEnvelope(),
			}
			for i, d := range l.LaneDepths() {
				g[fmt.Sprintf("wanamcast_lane_depth{lane=\"%d\"}", i)] = float64(d)
			}
			return g
		},
	}
	if svcStats != nil {
		t.Service = svcStats.Snapshot
	}
	if tr := l.tracer; tr != nil {
		t.Stages = tr.Stats().Snapshot
		t.Spans = tr.WriteJSONL
	}
	return t
}

// healthy reports the cluster's faults for /healthz: an abandoned state
// transfer (a replica that cannot rejoin stays faulty), else a violation
// the latest CheckProperties found. A later clean check clears the
// latter, since in-flight casts report transiently as violations.
func (l *LiveCluster) healthy() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.syncFault != "":
		return errors.New(l.syncFault)
	case l.violation != "":
		return fmt.Errorf("§2.2 violation: %s", l.violation)
	}
	return nil
}

// syncFailed marks the cluster unhealthy for good and dumps the flight
// recorder: a process abandoned its state transfer.
func (l *LiveCluster) syncFailed(reason string) {
	l.mu.Lock()
	if l.syncFault == "" {
		l.syncFault = reason
	}
	l.mu.Unlock()
	l.flightRecord(reason)
}

// flightRecord dumps the retained spans to LiveConfig.FlightDump — the
// crash-dump path for §2.2 violations, abandoned state transfers, and
// restarts. A no-op unless both TraceSpans and FlightDump are set.
func (l *LiveCluster) flightRecord(reason string) {
	if l.tracer == nil || l.cfg.FlightDump == "" {
		return
	}
	if err := l.tracer.DumpFile(l.cfg.FlightDump); err != nil {
		l.rt.Tracef("flight recorder: dump failed: %v", err)
		return
	}
	l.rt.Tracef("flight recorder: spans dumped to %s (%s)", l.cfg.FlightDump, reason)
}

// FsyncStats returns the durability-barrier counters of the run so far.
func (l *LiveCluster) FsyncStats() FsyncStats {
	var st FsyncStats
	for _, s := range l.stores {
		if ss, ok := s.(storage.SyncStore); ok {
			st.Fsyncs += ss.Fsyncs()
		}
	}
	if l.gc != nil {
		g := l.gc.Stats()
		st.Barriers, st.Windows, st.Syncs = g.Barriers, g.Windows, g.Syncs
	}
	return st
}

// Fabric exposes the live network's mutable link table: severing a
// (from, to) pair kills its TCP connection, rejects dials, and parks
// outbound frames (except heartbeats) until the link heals — the paper's
// quasi-reliable channel under arbitrary delay, so partitions are
// admissible runs. Safe to mutate from any goroutine while the cluster
// runs.
func (l *LiveCluster) Fabric() *network.Fabric { return l.rt.Fabric() }

// ReadLease returns process p's leader lease — valid only while p holds a
// majority of live grants from its group (nil when LeaseDuration is 0).
// Pass it to the service layer (svc.ServiceConfig.LeaseFor) to let p serve
// linearizable reads locally, and to chaos assertions that pin the
// no-two-leases-overlap invariant across a partition.
func (l *LiveCluster) ReadLease(p ProcessID) *fd.Lease { return l.rt.Lease(p) }

// ForceSuspect injects a false suspicion of p into every group peer's
// failure detector — a leader flap without any real fault. Trust restores
// itself as soon as p's next heartbeats land (within ~HeartbeatEvery), or
// explicitly via Unsuspect.
func (l *LiveCluster) ForceSuspect(p ProcessID) {
	for _, q := range l.topo.Members(l.topo.GroupOf(p)) {
		if q == p {
			continue
		}
		q := q
		l.rt.Run(q, func() { l.rt.Detector(q).Suspect(p) })
	}
}

// Unsuspect restores every group peer's trust in p immediately.
func (l *LiveCluster) Unsuspect(p ProcessID) {
	for _, q := range l.topo.Members(l.topo.GroupOf(p)) {
		if q == p {
			continue
		}
		q := q
		l.rt.Run(q, func() { l.rt.Detector(q).Unsuspect(p) })
	}
}

// LeaderOf returns process q's current view of its own group's leader.
func (l *LiveCluster) LeaderOf(q ProcessID) ProcessID {
	var leader ProcessID
	l.rt.Run(q, func() { leader = l.rt.Detector(q).Leader(l.topo.GroupOf(q)) })
	return leader
}

// SubscribeLeader registers fn with process q's failure detector: it runs
// on q's event loop at every leader change q observes — demotions and
// re-elections both. Subscribe before Start or while the cluster runs.
func (l *LiveCluster) SubscribeLeader(q ProcessID, fn func(g GroupID, leader ProcessID)) {
	l.mu.Lock()
	started := l.started
	l.mu.Unlock()
	if !started {
		// Loops are not running yet; the detector is safe to touch
		// directly.
		l.rt.Detector(q).Subscribe(fn)
		return
	}
	l.rt.Run(q, func() { l.rt.Detector(q).Subscribe(fn) })
}

// Chaos returns the scenario control surface of the live cluster: pass it
// to scenario.Apply to run a fault script (wall-clock timed) against the
// real TCP fabric. Restart events go through LiveCluster.Restart and thus
// need a durable store; when the cluster hosts a service layer
// (svc.ServeCluster), override RestartFn with Service.RestartReplica so
// the replica's server is reincarnated too. Scenario events are logged
// through the runtime's trace hook.
func (l *LiveCluster) Chaos() scenario.Funcs {
	return scenario.Funcs{
		Topo:        l.topo,
		Net:         l.rt.Fabric(),
		Schedule:    func(d time.Duration, fn func()) { time.AfterFunc(d, fn) },
		CrashFn:     l.Crash,
		RestartFn:   l.Restart,
		SuspectFn:   l.ForceSuspect,
		UnsuspectFn: l.Unsuspect,
		Logf:        l.rt.Tracef,
	}
}

// restartSeqGap is how far a restarted process's cast allocator jumps past
// its recovered value: casts made after the last snapshot are not
// individually logged, so the jump guarantees a fresh incarnation can
// never re-issue a MessageID the old one already used.
const restartSeqGap = 1 << 20

// Restart brings a crashed process back as a fresh incarnation: it
// recovers Paxos acceptor state, the group clock, delivery rounds, and
// every registered snapshot section (e.g. the service layer's state
// machine and session tables) from its durable store, then catches up the
// instances it missed from live group peers via the bounded state-transfer
// protocol. The restarted process resumes as a correct participant: once
// its state transfer completes it again delivers everything addressed to
// its group, and CheckProperties holds it to that.
//
// Restart requires the process to be crashed and durably configured
// (DataDir or StoreFor).
func (l *LiveCluster) Restart(p ProcessID) error {
	l.mu.Lock()
	switch {
	case !l.started || l.stopped:
		l.mu.Unlock()
		return fmt.Errorf("wanamcast: Restart(%v) needs a started, unstopped cluster", p)
	case !l.crashed[p]:
		l.mu.Unlock()
		return fmt.Errorf("wanamcast: Restart(%v): process is not crashed", p)
	case l.stores[p] == nil:
		l.mu.Unlock()
		return fmt.Errorf("wanamcast: Restart(%v): no durable store (set DataDir or StoreFor)", p)
	}
	l.mu.Unlock()

	// Snapshot the pre-restart spans before recovery overwrites the rings:
	// whatever led to the crash is about to age out.
	l.flightRecord(fmt.Sprintf("restart %v", p))

	var recErr error
	err := l.rt.Restart(p, func(proc *node.Proc, det fd.Detector) {
		l.buildEndpoints(p, proc, det)
		l.mu.Lock()
		l.recovering[p] = true
		l.mu.Unlock()
		recErr = l.node(p).Recover()
		// Casts since the last snapshot are not individually logged: jump
		// the allocator so the new incarnation cannot reuse an ID.
		l.castSeqs[p] += restartSeqGap
		l.mu.Lock()
		l.recovering[p] = false
		l.mu.Unlock()
	})
	if err == nil {
		err = recErr
	}
	if err != nil {
		return err
	}
	l.mu.Lock()
	delete(l.crashed, p)
	l.mu.Unlock()
	// Liveness: fetch everything missed while down from the group peers.
	l.rt.Run(p, l.node(p).StartSync)
	return nil
}

// node assembles process p's durable orchestration view: A1, A2, the
// cluster's own section (the cast allocator), and every registered extra
// section, in registration order.
func (l *LiveCluster) node(p ProcessID) *durable.Node {
	l.mu.Lock()
	extra := make([]durable.Section, 0, 1+len(l.extras[p]))
	extra = append(extra, l.clusterSection(p))
	extra = append(extra, l.extras[p]...)
	l.mu.Unlock()
	return &durable.Node{Store: l.stores[p], A1: l.a1[p], A2: l.a2[p], Extra: extra}
}

// clusterSection persists cluster-level per-process state: the cast
// allocator.
func (l *LiveCluster) clusterSection(p ProcessID) durable.Section {
	return durable.Section{
		Name: "cluster",
		Save: func() ([]byte, error) {
			return wire.AppendUvarint(nil, l.castSeqs[p]), nil
		},
		Restore: func(data []byte) error {
			seq, _, err := wire.Uvarint(data)
			if err != nil {
				return err
			}
			l.castSeqs[p] = seq
			return nil
		},
	}
}

// snapshot captures process p's full durable state and truncates its WAL.
// It must run as its own event on p's loop (between protocol events).
func (l *LiveCluster) snapshot(p ProcessID) {
	l.mu.Lock()
	skip := l.crashed[p] || l.recovering[p] || l.stores[p] == nil
	l.mu.Unlock()
	if skip {
		return
	}
	if err := l.node(p).Snapshot(); err != nil {
		l.rt.Tracef("snapshot %v failed: %v", p, err)
	}
}

// Snapshot forces an immediate snapshot of process p (tests, graceful
// shutdown). It blocks until the snapshot completes.
func (l *LiveCluster) Snapshot(p ProcessID) {
	l.rt.Run(p, func() { l.snapshot(p) })
}

// RegisterSnapshot adds (or, by name, replaces) a snapshot section for
// process p: save contributes to every future snapshot, restore runs
// during Restart before the ordering layers replay their logs. The
// service layer registers each replica's state machine and session tables
// here.
func (l *LiveCluster) RegisterSnapshot(p ProcessID, name string, save func() ([]byte, error), restore func(data []byte) error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sec := durable.Section{Name: name, Save: save, Restore: restore}
	for i, s := range l.extras[p] {
		if s.Name == name {
			l.extras[p][i] = sec
			return
		}
	}
	l.extras[p] = append(l.extras[p], sec)
}

// SetDeliverAt replaces ALL of process p's delivery hooks with fn (nil
// clears them). Restart flows use it so a dead incarnation's hooks cannot
// linger behind the new one's.
func (l *LiveCluster) SetDeliverAt(p ProcessID, fn func(id MessageID, payload any)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hooks[p] = nil
	if fn != nil {
		l.hooks[p] = append(l.hooks[p], fn)
	}
}

// DeliverHookCount returns how many delivery hooks process p currently
// has (leak diagnostics).
func (l *LiveCluster) DeliverHookCount(p ProcessID) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.hooks[p])
}

// CheckProperties verifies the §2.2 properties — uniform integrity,
// validity, uniform agreement, uniform prefix order — over every cast and
// delivery recorded so far, and returns the violations. It requires
// LiveConfig.Check. Note that a live run has no quiescence signal: casts
// still in flight report as transient agreement/validity violations, so
// call it (or poll it) after the workload has drained.
func (l *LiveCluster) CheckProperties() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.checker == nil {
		panic("wanamcast: CheckProperties requires LiveConfig.Check")
	}
	correct := func(p ProcessID) bool { return !l.crashed[p] }
	correctCaster := func(id MessageID) bool { return !l.crashed[id.Origin] }
	v := l.checker.Check(correct, correctCaster)
	l.violation = ""
	if len(v) > 0 {
		l.violation = v[0]
		// Arm-once is wrong here: each check with violations refreshes the
		// dump so the recorded spans cover the window closest to the fault.
		l.flightRecord("§2.2 violation: " + v[0])
	}
	return v
}

// Deliveries returns a snapshot of the delivery log: every delivery
// observed so far, or only the most recent LiveConfig.RetainDeliveries of
// them when that bound is set.
func (l *LiveCluster) Deliveries() []Delivery {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Delivery(nil), l.deliveries...)
}

// DeliveredCount returns how many processes have delivered id so far. It
// stays exact when RetainDeliveries has trimmed the delivery log, until id
// itself ages out of the (much larger) count window — see
// LiveConfig.RetainDeliveries.
func (l *LiveCluster) DeliveredCount(id MessageID) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[id]
}

// WaitDelivered blocks until id has been delivered by n processes or the
// timeout expires; it reports whether the count was reached.
func (l *LiveCluster) WaitDelivered(id MessageID, n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if l.DeliveredCount(id) >= n {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}
