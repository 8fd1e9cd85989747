package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"wanamcast/internal/harness"
	"wanamcast/internal/metrics"
	"wanamcast/internal/types"
)

var simA1 = workload{
	name: "sim-a1",
	why:  "A1 multicast in the deterministic simulator, 16x3, with group 0's leader crashing midway: pure protocol CPU cost. Loads amcast, consensus, rmcast, fd failover, sim/network",
	run: func(env *runEnv) (*outcome, error) {
		return runSim(env, simSpec{algo: harness.AlgoA1, proto: "a1", layer: "amcast", groups: 16, rate: 1000, casts: 20000, crash: true})
	},
	procs: 1,
}

var simA2 = workload{
	name: "sim-a2",
	why:  "A2 broadcast in the deterministic simulator, 8x3, fault-free: the only workload ordering through abcast (24-way delivery). Loads abcast, consensus, rmcast, sim/network",
	run: func(env *runEnv) (*outcome, error) {
		return runSim(env, simSpec{algo: harness.AlgoA2, proto: "a2", layer: "abcast", groups: 8, rate: 200, casts: 10000})
	},
	procs: 1,
}

// simSpec is one simulated workload: the paper's WAN (100 ms between
// groups, 1 ms inside one, plus up to 1 ms of jitter per message) with
// the batched, pipelined ordering engine.
type simSpec struct {
	algo   harness.Algo
	proto  string // wire-label prefix of the algorithm's messages
	layer  string // per-layer metric prefix of the ordering layer
	groups int
	rate   int // casts per virtual second, open loop
	casts  int
	crash  bool // crash group 0's rank-0 process at the schedule's midpoint
}

func (sp simSpec) options(seed int64) harness.Options {
	return harness.Options{
		Groups: sp.groups, PerGroup: 3, Inter: 100 * time.Millisecond, Intra: time.Millisecond,
		Jitter: time.Millisecond, Seed: seed, MaxBatch: 64, A1Pipeline: 4, A2Pipeline: 4,
	}
}

type simCast struct {
	at   time.Duration
	from types.ProcessID
	dest types.GroupSet
}

// simFault is the crash a schedule contains; at is 0 for none.
type simFault struct {
	at     time.Duration
	victim types.ProcessID
}

// simSchedule makes a run's inputs from its seed: casts at a fixed virtual
// rate, destinations from the mix, each sent by a random live member of
// its first destination group.
func simSchedule(sp simSpec, topo *types.Topology, seed int64) ([]simCast, simFault) {
	rng := rand.New(rand.NewSource(seed))
	period := time.Second / time.Duration(sp.rate)
	var fault simFault
	if sp.crash {
		// Between two casts, so no cast shares the crash's instant.
		fault = simFault{at: time.Duration(sp.casts/2)*period + period/2, victim: topo.Members(0)[0]}
	}
	casts := make([]simCast, sp.casts)
	for i := range casts {
		at := time.Duration(i+1) * period
		first := types.GroupID(rng.Intn(topo.NumGroups()))
		members := topo.Members(first)
		from := members[rng.Intn(len(members))]
		for sp.crash && at > fault.at && from == fault.victim {
			from = members[rng.Intn(len(members))]
		}
		dest := mixDest(rng, topo, first, paperMix)
		if sp.algo == harness.AlgoA2 {
			dest = topo.AllGroups()
		}
		casts[i] = simCast{at: at, from: from, dest: dest}
	}
	return casts, fault
}

// destMix is a destination-set distribution: the shares of casts
// addressed to one, two and four groups.
type destMix struct{ one, two, four float64 }

// paperMix is the §1 partial-replication scenario: most operations touch
// one or two groups, a few touch many.
var paperMix = destMix{one: 0.6, two: 0.3, four: 0.1}

// mixDest draws a destination set containing first, its size from m
// (capped at every group), the other groups chosen at random.
func mixDest(rng *rand.Rand, topo *types.Topology, first types.GroupID, m destMix) types.GroupSet {
	size := 1
	switch x := rng.Float64(); {
	case x >= m.one+m.two:
		size = 4
	case x >= m.one:
		size = 2
	}
	size = min(size, topo.NumGroups())
	dest := []types.GroupID{first}
	for len(dest) < size {
		g := types.GroupID(rng.Intn(topo.NumGroups()))
		dup := false
		for _, d := range dest {
			dup = dup || d == g
		}
		if !dup {
			dest = append(dest, g)
		}
	}
	return types.NewGroupSet(dest...)
}

// simRep is one simulated run of the whole schedule.
type simRep struct {
	setup      time.Duration // Build plus scheduling the load
	cost       cost          // over Run
	events     uint64
	stats      metrics.Stats
	violations []string
	lat        []float64 // virtual ms from cast to the last addressee's delivery
	failed     int       // casts some correct addressee never delivered
	failover   time.Duration
	ops        float64 // A-Delivered messages
}

func runSimRep(sp simSpec, casts []simCast, fault simFault, seed int64, spans *spanLog) simRep {
	var r simRep
	runtime.GC() // set up on a clean heap, not the previous rep's garbage
	t0 := time.Now()
	sys := harness.Build(sp.algo, sp.options(seed))
	ids := make([]types.MessageID, len(casts))
	runSpan := int32(-1) // the cast spans' parent, known once Run starts
	sched := sys.RT.Scheduler()
	for i, c := range casts {
		if spans == nil {
			sched.At(c.at, func() { ids[i] = sys.Cast(c.from, nil, c.dest) })
			continue
		}
		sched.At(c.at, func() {
			t := time.Now()
			ids[i] = sys.Cast(c.from, nil, c.dest)
			spans.add(spanSimCast, msgKey(ids[i]), runSpan, t, time.Now())
		})
	}
	if fault.at > 0 {
		sys.CrashAt(fault.victim, fault.at)
	}
	r.setup = time.Since(t0)

	runtime.GC() // the set-up's garbage is not Run's cost
	w := openWindow()
	start := time.Now()
	if spans != nil {
		runSpan = spans.add(spanSimRun, spanKey{}, -1, start, start)
	}
	r.events = sys.RT.Run()
	end := time.Now()
	r.cost = w.close()
	spans.finish(runSpan, end)

	r.violations = sys.Check()
	r.stats = sys.Col.Snapshot()
	r.ops = float64(r.stats.MessagesDelivered)

	index := make(map[types.MessageID]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}
	got := make([]int, len(casts))
	last := make([]time.Duration, len(casts))
	r.failover = -1
	for _, d := range sys.Deliveries {
		crashed := fault.at > 0 && d.Process == fault.victim
		if fault.at > 0 && r.failover < 0 && d.At > fault.at && !crashed &&
			sys.Topo.GroupOf(d.Process) == sys.Topo.GroupOf(fault.victim) {
			r.failover = d.At - fault.at
		}
		i, ok := index[d.ID]
		if !ok {
			continue
		}
		if !crashed {
			got[i]++
		}
		last[i] = max(last[i], d.At)
	}
	for i, c := range casts {
		want := 0
		for _, g := range c.dest.Groups() {
			want += len(sys.Topo.Members(g))
			if fault.at > 0 && sys.Topo.GroupOf(fault.victim) == g {
				want--
			}
		}
		if ids[i].IsZero() || got[i] < want {
			r.failed++
			continue
		}
		r.lat = append(r.lat, float64(last[i]-c.at)/float64(time.Millisecond))
	}
	return r
}

// runSim runs the schedule until the budget is spent — one unmeasured
// warm-up on a tenth of the load, then at least three measured reps of
// the same inputs — and reports wall-clock figures as medians over reps.
// Virtual-time figures and counts are the same in every rep.
func runSim(env *runEnv, sp simSpec) (*outcome, error) {
	topo := types.NewTopology(sp.groups, 3)
	casts, fault := simSchedule(sp, topo, env.seed)
	runSimRep(sp, casts[:len(casts)/10], simFault{}, env.seed, nil)

	o := newOutcome()
	var reps []simRep
	began := time.Now()
	for {
		r := runSimRep(sp, casts, fault, env.seed, env.spans)
		o.attempted += len(casts)
		o.failed += r.failed
		if len(r.violations) > 0 {
			o.violations = r.violations
			return o, nil
		}
		reps = append(reps, r)
		elapsed := time.Since(began)
		perRep := elapsed / time.Duration(len(reps))
		if len(reps) >= 3 && elapsed+perRep > env.budget {
			break
		}
	}
	med := func(f func(r simRep) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	r := reps[len(reps)-1]
	if r.ops == 0 {
		return nil, fmt.Errorf("%s delivered nothing", sp.algo)
	}
	st := r.stats
	o.set("setup_s", med(func(r simRep) float64 { return r.setup.Seconds() }))
	// Throughput is on the CPU clock: the sim is one goroutine on one P,
	// so its CPU time is its wall time on a core of its own, and time the
	// host takes the vCPU away (steal) or another process holds the core
	// does not count.
	o.set("ops_per_s", med(func(r simRep) float64 { return r.ops / r.cost.cpu.Seconds() }))
	lat := newDist(r.lat, r.failed)
	o.setQ("latency_p50_ms", lat, 1, 2)
	o.setQ("latency_p99_ms", lat, 99, 100)
	o.set("cpu_ms_per_op", med(func(r simRep) float64 { return r.cost.cpu.Seconds() * 1e3 / r.ops }))
	o.set("allocs_per_op", med(func(r simRep) float64 { return float64(r.cost.mallocs) / r.ops }))
	o.set("failed_frac", float64(r.failed)/float64(len(casts)))
	o.set("wan_msgs_per_op", float64(st.InterGroupMessages)/r.ops)
	if fault.at > 0 {
		if r.failover < 0 {
			return nil, fmt.Errorf("no delivery in the crashed process's group after the crash")
		}
		o.set("failover_ms", float64(r.failover)/float64(time.Millisecond))
	}

	o.set("sim.events_per_op", float64(r.events)/r.ops)
	o.set("sim.events_per_s", med(func(r simRep) float64 { return float64(r.events) / r.cost.cpu.Seconds() }))
	o.set("sim.allocs_per_event", med(func(r simRep) float64 { return float64(r.cost.mallocs) / float64(r.events) }))
	setProtocolCounts(o, sp.proto, sp.layer, st, r.ops)
	o.set("runtime.gc_cpu_frac", med(func(r simRep) float64 { return r.cost.gcFrac }))
	o.set("runtime.alloc_bytes_per_op", med(func(r simRep) float64 { return float64(r.cost.bytes) / r.ops }))
	o.selfOps = r.ops * float64(len(reps))
	return o, nil
}

// setProtocolCounts records the ordering stack's message counts per
// ordered message, from the protocol labels of proto ("a1" or "a2"): the
// ordering layer itself, its consensus engine, and its reliable multicast.
func setProtocolCounts(o *outcome, proto, layer string, st metrics.Stats, ordered float64) {
	if ordered == 0 {
		return
	}
	o.set(layer+".msgs_per_op", float64(st.PerProtocol[proto].Total)/ordered)
	o.set(layer+".degree_mean", st.MeanDegree)
	o.set(layer+".degree_max", float64(st.MaxDegree))
	o.set("consensus.learns_per_op", float64(st.ConsensusInstances)/ordered)
	o.set("consensus.batch_mean", st.MeanBatchSize)
	o.set("consensus.msgs_per_op", float64(st.PerProtocol[proto+".cons"].Total)/ordered)
	o.set("rmcast.msgs_per_op", float64(st.PerProtocol[proto+".rm"].Total)/ordered)
	o.set("rmcast.wan_msgs_per_op", float64(st.PerProtocol[proto+".rm"].InterGroup)/ordered)
	o.set("fd.suspicions", float64(st.Suspicions))
	o.set("fd.leader_changes", float64(st.LeaderChanges))
}
