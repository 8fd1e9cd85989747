package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wanamcast"
	"wanamcast/internal/check"
	"wanamcast/internal/metrics"
	"wanamcast/internal/storage"
	"wanamcast/internal/types"
)

var liveA1 = workload{
	name: "live-a1",
	why:  "A1 on a live 4x3 TCP cluster, 5 ms WAN, WAL fsync per batch, 4 casts in flight (the per-message path). Loads transport/tcp, wire, lanes, storage, amcast, consensus, rmcast, fd",
	run:  runLiveA1,
}

// The generator is a closed loop: one goroutine keeps liveWindow casts in
// flight and sends the next when one has been delivered at every
// addressee. An open loop at a fixed rate was tried first: on a 2-vCPU VM
// the host stalls the whole guest for 5–20 ms every few seconds, an open
// loop piles every cast due during a stall onto it, and its p99 swung
// 22–90 ms between runs. A window bounds a stall's reach to the casts in
// flight.
const (
	liveWAN      = 5 * time.Millisecond
	liveWindow   = 4  // casts in flight: batches stay near one message
	livePayload  = 64 // payload bytes
	liveSetups   = 5  // cluster set-ups per run; setup_s is their median
	liveWarmup   = time.Second
	drainTimeout = 20 * time.Second
)

// liveRig is a started LiveCluster plus the benchmark's delivery log.
type liveRig struct {
	l     *wanamcast.LiveCluster
	topo  *types.Topology
	epoch time.Time
	setup time.Duration // construction until the probe was delivered everywhere
	probe types.MessageID

	record bool
	// recs[p] is process p's delivery sequence. OnDeliver runs on p's
	// event loop, so each slice has one writer; it is read after Stop.
	recs     [][]delivery
	total    atomic.Int64 // deliveries seen, probe included
	inflight inflight
}

type delivery struct {
	id types.MessageID
	at int64 // ns since the rig's epoch
}

// startRig builds and starts a cluster, then casts a probe to every group
// and waits until every process has delivered it: the cluster is ready.
// record keeps every process's delivery sequence for the checks.
func startRig(cfg wanamcast.LiveConfig, record bool) (*liveRig, error) {
	t0 := time.Now()
	l := wanamcast.NewLiveCluster(cfg)
	r := &liveRig{l: l, topo: l.Topology(), epoch: t0, record: record}
	r.recs = make([][]delivery, r.topo.N())
	r.inflight.missing = make(map[types.MessageID]int)
	r.inflight.wake = make(chan struct{}, 1)
	l.OnDeliver(r.onDeliver)
	if err := l.Start(); err != nil {
		l.Stop()
		return nil, fmt.Errorf("start live cluster on ports %d..%d: %w", cfg.BasePort, cfg.BasePort+r.topo.N()-1, err)
	}
	r.probe = l.Multicast(l.Process(0, 0), []byte("probe"), r.topo.AllGroups().Groups()...)
	if !r.waitTotal(int64(r.topo.N()), drainTimeout) {
		l.Stop()
		return nil, fmt.Errorf("the set-up probe was not delivered everywhere within %v", drainTimeout)
	}
	r.setup = time.Since(t0)
	return r, nil
}

func (r *liveRig) onDeliver(p types.ProcessID, id types.MessageID, _ any) {
	if r.record {
		r.recs[p] = append(r.recs[p], delivery{id: id, at: int64(time.Since(r.epoch))})
	}
	if id != r.probe {
		r.inflight.delivered(id)
	}
	r.total.Add(1) // last: once waitTotal sees it, the tracker has too
}

// waitTotal waits until target deliveries have been seen, or the timeout.
func (r *liveRig) waitTotal(target int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for r.total.Load() < target {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

func (r *liveRig) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// inflight tracks the generator's casts until every addressee has
// delivered them. It never blocks the process loops that report
// deliveries, even when a faulty run delivers a message twice.
type inflight struct {
	mu        sync.Mutex
	missing   map[types.MessageID]int // deliveries a cast still lacks; negative: seen before it was tracked
	completed int                     // casts delivered everywhere that the generator has not taken
	wake      chan struct{}           // holds one token after a completion
	timer     *time.Timer             // the generator's wait bound; used by take only
}

// track starts tracking a cast that needs want deliveries; some may have
// happened before Multicast returned its ID to the generator.
func (f *inflight) track(id types.MessageID, want int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := f.missing[id] + want; n > 0 {
		f.missing[id] = n
		return
	}
	delete(f.missing, id)
	f.complete()
}

func (f *inflight) delivered(id types.MessageID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.missing[id] - 1
	if n == 0 {
		delete(f.missing, id)
		f.complete()
		return
	}
	f.missing[id] = n
}

// complete counts one completion; f.mu is held.
func (f *inflight) complete() {
	f.completed++
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// take waits up to timeout for a completion the generator has not taken
// yet, and takes it.
func (f *inflight) take(timeout time.Duration) bool {
	if f.timer == nil {
		f.timer = time.NewTimer(timeout)
	} else {
		f.timer.Reset(timeout)
	}
	defer f.timer.Stop()
	for {
		f.mu.Lock()
		if f.completed > 0 {
			f.completed--
			f.mu.Unlock()
			return true
		}
		f.mu.Unlock()
		select {
		case <-f.wake:
		case <-f.timer.C:
			return false
		}
	}
}

// reset forgets completions not taken: the next loop starts with an
// empty window.
func (f *inflight) reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.completed = 0
}

// liveCast is one generated cast.
type liveCast struct {
	from    types.ProcessID
	dest    []types.GroupID
	payload []byte
}

// nextCast draws a cast from rng: a destination set from the mix, sent by
// a random member of its first group, with a random payload (so
// compression sees realistic bytes).
func nextCast(rng *rand.Rand, topo *types.Topology) liveCast {
	first := types.GroupID(rng.Intn(topo.NumGroups()))
	members := topo.Members(first)
	payload := make([]byte, livePayload)
	rng.Read(payload)
	return liveCast{from: members[rng.Intn(len(members))], dest: mixDest(rng, topo, first, paperMix).Groups(), payload: payload}
}

// castRec is what the generator saw of one cast (ns since the rig epoch):
// when a window slot freed for it (due), when it called Multicast, and
// when the call returned.
type castRec struct {
	id             types.MessageID
	due, call, ret int64
}

// windowLoop casts from rng until the deadline, keeping at most window
// casts in flight. With sampleLanes it also returns the deepest lane
// queue seen between casts. It stops early, with ok false, when no cast
// in flight completes within drainTimeout.
func (r *liveRig) windowLoop(rng *rand.Rand, window int, until time.Time, sampleLanes bool) (plan []liveCast, recs []castRec, laneMax int, ok bool) {
	r.inflight.reset()
	out := 0
	due := time.Now()
	for due.Before(until) {
		if out == window {
			if !r.inflight.take(drainTimeout) {
				return plan, recs, laneMax, false
			}
			out--
			due = time.Now()
		}
		c := nextCast(rng, r.topo)
		call := time.Now()
		id := r.l.Multicast(c.from, c.payload, c.dest...)
		ret := time.Now()
		r.inflight.track(id, r.want(c))
		out++
		plan = append(plan, c)
		recs = append(recs, castRec{id: id, due: r.since(due), call: r.since(call), ret: r.since(ret)})
		if sampleLanes {
			for _, d := range r.l.LaneDepths() {
				laneMax = max(laneMax, d)
			}
		}
		if out < window {
			due = ret
		}
	}
	return plan, recs, laneMax, true
}

// want is how many deliveries one cast makes: one per addressee.
func (r *liveRig) want(c liveCast) int {
	n := 0
	for _, g := range c.dest {
		n += len(r.topo.Members(g))
	}
	return n
}

// expected is how many deliveries the probe and every cast of plan make.
func (r *liveRig) expected(plan []liveCast) int64 {
	n := int64(r.topo.N())
	for _, c := range plan {
		n += int64(r.want(c))
	}
	return n
}

// msgTimes is one message's delivery fan-in (ns since the rig epoch).
type msgTimes struct {
	first, last int64
	count       int
}

// check runs the §2.2 checker over the recorded casts and delivery
// sequences (call after Stop), and returns each cast's delivery times.
func (r *liveRig) check(plan []liveCast, casts []castRec) ([]string, []msgTimes) {
	c := check.New(r.topo)
	c.RecordCast(r.probe, r.topo.AllGroups())
	index := make(map[types.MessageID]int, len(casts))
	for i, cr := range casts {
		if cr.id.IsZero() {
			return []string{fmt.Sprintf("cast %d was refused", i)}, nil
		}
		c.RecordCast(cr.id, types.NewGroupSet(plan[i].dest...))
		index[cr.id] = i
	}
	times := make([]msgTimes, len(casts))
	for p, seq := range r.recs {
		for _, d := range seq {
			c.RecordDeliver(types.ProcessID(p), d.id)
			i, ok := index[d.id]
			if !ok {
				continue
			}
			t := &times[i]
			if t.count == 0 || d.at < t.first {
				t.first = d.at
			}
			t.last = max(t.last, d.at)
			t.count++
		}
	}
	all := func(types.ProcessID) bool { return true }
	allCasters := func(types.MessageID) bool { return true }
	return c.Check(all, allCasters), times
}

// openStores opens one disk store per process under dir, each wrapped to
// time its calls into spans.
func openStores(dir string, n int, spans *spanLog) ([]storage.Store, error) {
	stores := make([]storage.Store, n)
	for p := range stores {
		d, err := storage.OpenDisk(filepath.Join(dir, fmt.Sprintf("p%d", p)), storage.DiskOptions{})
		if err != nil {
			for _, s := range stores[:p] {
				s.Close()
			}
			return nil, fmt.Errorf("open WAL for p%d: %w", p, err)
		}
		stores[p] = &timedStore{SyncStore: d, proc: types.ProcessID(p), spans: spans}
	}
	return stores, nil
}

// livePhase is live-a1's measured window on a fresh, warmed-up cluster.
type livePhase struct {
	rig        *liveRig
	plan       []liveCast
	casts      []castRec
	times      []msgTimes
	violations []string
	laneMax    int
	cost       cost
	before     wanamcast.Stats
	after      wanamcast.Stats
	fsyncs     uint64
	stages     []metrics.StageSummary
	start, end time.Time
	ordered    int // messages delivered at every addressee
	failed     int
}

// runLivePhase starts a durable cluster, warms it up for liveWarmup with
// liveWindow casts in flight (every link dialed, every queue grown), then
// casts for d with window casts in flight, drains, stops, and checks.
func runLivePhase(env *runEnv, rng *rand.Rand, window int, d time.Duration) (*livePhase, error) {
	cfg, cleanup, err := liveConfig(env)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	rig, err := startRig(cfg, true)
	if err != nil {
		return nil, err
	}
	warm, warmCasts, _, ok := rig.windowLoop(rng, liveWindow, time.Now().Add(liveWarmup), false)
	warmed := rig.expected(warm)
	if !ok || !rig.waitTotal(warmed, drainTimeout) {
		rig.l.Stop()
		return nil, fmt.Errorf("warm-up casts undelivered after %v", drainTimeout)
	}
	runtime.GC()
	ph := &livePhase{rig: rig}
	ph.before = rig.l.Stats()
	f0 := rig.l.FsyncStats().Fsyncs
	w := openWindow()
	ph.start = w.start
	var drained bool
	ph.plan, ph.casts, ph.laneMax, drained = rig.windowLoop(rng, window, w.start.Add(d), env.traced)
	drained = drained && rig.waitTotal(warmed+rig.expected(ph.plan)-int64(rig.topo.N()), drainTimeout)
	ph.end = time.Now()
	ph.cost = w.close()
	ph.after = rig.l.Stats()
	ph.fsyncs = rig.l.FsyncStats().Fsyncs - f0
	if tr := rig.l.Tracer(); tr != nil {
		ph.stages = tr.Stats().Snapshot()
	}
	rig.l.Stop()
	var times []msgTimes
	ph.violations, times = rig.check(append(warm, ph.plan...), append(warmCasts, ph.casts...))
	if times != nil {
		ph.times = times[len(warm):]
	}
	for i, t := range ph.times {
		if t.count == rig.want(ph.plan[i]) {
			ph.ordered++
		} else {
			ph.failed++
		}
	}
	if !drained && len(ph.violations) == 0 {
		ph.violations = []string{fmt.Sprintf("%d casts undelivered after %v", ph.failed, drainTimeout)}
	}
	return ph, nil
}

// liveConfig is the live-a1 cluster on a fresh port block and a fresh WAL
// directory; cleanup removes the directory.
func liveConfig(env *runEnv) (wanamcast.LiveConfig, func(), error) {
	const groups, perGroup = 4, 3
	base, err := env.ports.block(groups * perGroup)
	if err != nil {
		return wanamcast.LiveConfig{}, nil, err
	}
	walRoot := filepath.Join(env.scratch, "wal")
	if err := os.MkdirAll(walRoot, 0o755); err != nil {
		return wanamcast.LiveConfig{}, nil, err
	}
	dir, err := os.MkdirTemp(walRoot, "live-a1-")
	if err != nil {
		return wanamcast.LiveConfig{}, nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	cfg := wanamcast.LiveConfig{
		Groups: groups, PerGroup: perGroup, BasePort: base, WANDelay: liveWAN,
		MaxBatch: 64, Pipeline: 4, RetainDeliveries: 1024, TraceSpans: env.traced,
	}
	if env.traced {
		stores, err := openStores(dir, groups*perGroup, env.spans)
		if err != nil {
			cleanup()
			return cfg, nil, err
		}
		cfg.StoreFor = func(p wanamcast.ProcessID) storage.Store { return stores[p] }
	} else {
		cfg.DataDir = dir
	}
	return cfg, cleanup, nil
}

// runLiveA1 times liveSetups cluster set-ups, the last of them the
// cluster the workload runs on for 80% of the budget.
func runLiveA1(env *runEnv) (*outcome, error) {
	rng := rand.New(rand.NewSource(env.seed))
	var setups []float64
	for len(setups) < liveSetups-1 {
		cfg, cleanup, err := liveConfig(env)
		if err != nil {
			return nil, err
		}
		rig, err := startRig(cfg, false)
		if err != nil {
			cleanup()
			return nil, err
		}
		rig.l.Stop()
		cleanup()
		setups = append(setups, rig.setup.Seconds())
	}
	steady, err := runLivePhase(env, rng, liveWindow, env.budget*8/10)
	if err != nil {
		return nil, err
	}
	setups = append(setups, steady.rig.setup.Seconds())

	o := newOutcome()
	o.attempted = len(steady.casts)
	o.failed = steady.failed
	o.violations = steady.violations
	if len(o.violations) > 0 {
		return o, nil
	}
	o.set("setup_s", median(setups))
	ops := float64(steady.ordered)
	o.setRatio("ops_per_s", ops, steady.end.Sub(steady.start).Seconds())

	// Latency from each cast's due time to its last addressee's delivery,
	// and the per-op costs of the whole window.
	var lat, firstLat, spread, late, call []float64
	for i, c := range steady.casts {
		t := steady.times[i]
		late = append(late, float64(c.call-c.due)/1e6)
		call = append(call, float64(c.ret-c.call)/1e3)
		if t.count < steady.rig.want(steady.plan[i]) {
			continue
		}
		lat = append(lat, float64(t.last-c.due)/1e6)
		firstLat = append(firstLat, float64(t.first-c.due)/1e6)
		spread = append(spread, float64(t.last-t.first)/1e6)
		if env.traced {
			addMessageSpans(env.spans, steady.rig, c, t)
		}
	}
	latency := newDist(lat, steady.failed)
	o.setQ("latency_p50_ms", latency, 1, 2)
	o.setQ("latency_p99_ms", latency, 99, 100)
	o.setCosts(steady.cost, ops)
	d := statsDelta(steady.before, steady.after)
	o.setRatio("failed_frac", float64(o.failed), float64(o.attempted))
	o.setRatio("wire_bytes_per_op", float64(d.Wire.BytesOut), ops)
	o.setRatio("fsyncs_per_op", float64(steady.fsyncs), ops)
	o.setRatio("wan_msgs_per_op", float64(d.InterGroupMessages), ops)

	o.setQ("gen.late_p99_ms", newDist(late, 0), 99, 100)
	o.setQ("order.first_p50_ms", newDist(firstLat, steady.failed), 1, 2)
	o.setQ("order.spread_p99_ms", newDist(spread, steady.failed), 99, 100)
	setProtocolCounts(o, "a1", "amcast", d, ops)
	setWireCounts(o, d, ops)
	if env.traced {
		o.setQ("gen.cast_call_p50_us", newDist(call, 0), 1, 2)
		o.setQ("gen.cast_call_p99_us", newDist(call, 0), 99, 100)
		o.set("lane.depth_max", float64(steady.laneMax))
		setStorageTimings(o, env.spans, steady, ops)
		setStageTimings(o, steady.stages)
	}
	o.selfFrom, o.selfTo, o.selfOps = steady.start, steady.end, ops
	return o, nil
}

// addMessageSpans records one message's spans: the root from due time to
// the last addressee's delivery, tiled by the generator's own delay, the
// Multicast call, ordering up to the first delivery, and the fan-in.
func addMessageSpans(spans *spanLog, rig *liveRig, c castRec, t msgTimes) {
	at := func(ns int64) time.Time { return rig.epoch.Add(time.Duration(ns)) }
	k := msgKey(c.id)
	root := spans.add(spanLiveOp, k, -1, at(c.due), at(max(t.last, c.ret)))
	spans.add(spanGenLate, k, root, at(c.due), at(c.call))
	spans.add(spanGenCastCall, k, root, at(c.call), at(c.ret))
	first := max(t.first, c.ret)
	spans.add(spanOrderFirst, k, root, at(c.ret), at(first))
	spans.add(spanOrderFanin, k, root, at(first), at(max(t.last, first)))
}

// statsDelta returns the counters b gained over a; the degree figures are
// b's own (they cover the cluster's recent casts).
func statsDelta(a, b wanamcast.Stats) wanamcast.Stats {
	d := b
	d.TotalMessages -= a.TotalMessages
	d.InterGroupMessages -= a.InterGroupMessages
	d.ConsensusInstances -= a.ConsensusInstances
	d.PerProtocol = make(map[string]metrics.ProtoCount, len(b.PerProtocol))
	for k, v := range b.PerProtocol {
		d.PerProtocol[k] = metrics.ProtoCount{Total: v.Total - a.PerProtocol[k].Total, InterGroup: v.InterGroup - a.PerProtocol[k].InterGroup}
	}
	d.BatchesDecided -= a.BatchesDecided
	d.BatchedMessages -= a.BatchedMessages
	d.MeanBatchSize = 0
	if d.BatchesDecided > 0 {
		d.MeanBatchSize = float64(d.BatchedMessages) / float64(d.BatchesDecided)
	}
	d.Suspicions -= a.Suspicions
	d.LeaderChanges -= a.LeaderChanges
	d.Wire.BytesOut -= a.Wire.BytesOut
	d.Wire.FramesOut -= a.Wire.FramesOut
	d.Wire.EnvelopesOut -= a.Wire.EnvelopesOut
	d.Wire.RawPayloadOut -= a.Wire.RawPayloadOut
	d.Wire.CompressedPayloadOut -= a.Wire.CompressedPayloadOut
	return d
}

func setWireCounts(o *outcome, d wanamcast.Stats, ops float64) {
	o.setRatio("wire.frames_out_per_op", float64(d.Wire.FramesOut), ops)
	o.setRatio("wire.frames_per_write", float64(d.Wire.FramesOut), float64(d.Wire.EnvelopesOut))
	o.setRatio("wire.writes_per_op", float64(d.Wire.EnvelopesOut), ops)
	o.setRatio("wire.compression_ratio", float64(d.Wire.RawPayloadOut), float64(d.Wire.CompressedPayloadOut))
}

// setStorageTimings reports the storage spans of the measured window.
func setStorageTimings(o *outcome, spans *spanLog, ph *livePhase, ops float64) {
	appends := spans.within(spanStorageAppend, ph.start, ph.end)
	commits := spans.within(spanStorageCommit, ph.start, ph.end)
	o.setRatio("storage.appends_per_op", float64(len(appends)), ops)
	o.setRatio("storage.commits_per_op", float64(len(commits)), ops)
	ad := newDist(durations(appends, time.Microsecond), 0)
	o.setQ("storage.append_p50_us", ad, 1, 2)
	o.setQ("storage.append_p99_us", ad, 99, 100)
	cd := durations(commits, time.Millisecond)
	o.setQ("storage.commit_p50_ms", newDist(cd, 0), 1, 2)
	o.setQ("storage.commit_p99_ms", newDist(cd, 0), 99, 100)
	var busy float64
	for _, d := range cd {
		busy += d
	}
	o.setRatio("storage.commit_busy_frac", busy/1e3, ph.end.Sub(ph.start).Seconds()*float64(ph.rig.topo.N()))
}

// setStageTimings reports the program's own lifecycle-tracer reservoirs.
// A reservoir keeps its stage's most recent 4096 samples; percentiles rank
// over what it holds.
func setStageTimings(o *outcome, stages []metrics.StageSummary) {
	for _, st := range stages {
		n := int(min(st.Count, 4096))
		o.metrics["stage."+st.Name+"_p50_ms"] = stageValue(st.P50, n, 1, 2)
		o.metrics["stage."+st.Name+"_p99_ms"] = stageValue(st.P99, n, 99, 100)
	}
}

func stageValue(v time.Duration, n, num, den int) value {
	rank := (num*n + den - 1) / den
	return value{v: float64(v) / 1e6, n: n, ok: n-rank >= minBeyond}
}
