// Command wanchaos is the chaos driver: it runs declarative fault
// scenarios — partitions, heals, crashes with recovery, delay spikes,
// leader flaps — against a cluster under client load and verifies that
// the §2.2 properties hold throughout and that delivery resumes after the
// faults end. It exits non-zero on any violation, failed operation, or
// stalled post-heal progress.
//
// Live mode (default) drives a real TCP cluster with the replicated KV
// service under a closed-loop client load while the scenario runs
// (replicas restart from in-memory durable stores, so crash/restart needs
// no disk):
//
//	wanchaos -scenario partition-recovery -groups 2 -d 3 -wan 5ms -clients 100
//	wanchaos -scenario suite -clients 100        # all six scenarios
//
// The lease-partition scenario additionally enables leader leases, serves
// half the load as lease-consistent reads, and pins the read tier's safety
// hand-off: the severed holder's lease must lapse strictly before the
// successor's activates, so no read served under the old lease can be
// stale.
//
// Sim mode replays the same scenarios deterministically on the virtual
// cluster under a Poisson workload:
//
//	wanchaos -mode sim -scenario suite -algo a1 -seed 7
//
// Measure mode records the failure-detection experiment of EXPERIMENTS.md
// ("partition & heal"): leader re-election latency after isolating the
// rank-0 leader, trust-restoration latency after the heal, and
// time-to-resume-delivery after healing a group partition:
//
//	wanchaos -measure -suspectafter 250ms -wan 5ms
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"wanamcast"
	"wanamcast/cmd/internal/liveflag"
	"wanamcast/internal/fd"
	"wanamcast/internal/harness"
	"wanamcast/internal/metrics"
	"wanamcast/internal/scenario"
	"wanamcast/internal/storage"
	"wanamcast/internal/svc"
	"wanamcast/internal/types"
	"wanamcast/internal/workload"
)

func main() { os.Exit(run()) }

func run() int {
	lf := liveflag.Register(flag.CommandLine, wanamcast.LiveConfig{
		Groups: 2, PerGroup: 3, BasePort: 27000, MaxBatch: 64, Pipeline: 2,
	})
	var (
		mode     = flag.String("mode", "live", "live (real TCP + KV service under load) or sim (deterministic virtual time)")
		scn      = flag.String("scenario", "suite", "scenario name (partition-heal, asym-partition, leader-flap, delay-spike, partition-recovery, lease-partition) or \"suite\" for all")
		svcPort  = flag.Int("svcport", 28000, "client-facing base port (live)")
		wan      = flag.Duration("wan", 5*time.Millisecond, "one-way inter-group delay")
		lan      = flag.Duration("lan", 0, "intra-group delay")
		clients  = flag.Int("clients", 100, "closed-loop KV clients (live)")
		ops      = flag.Int("ops", 4, "operations per client (live)")
		timeout  = flag.Duration("timeout", 250*time.Millisecond, "client first-attempt reply timeout (doubles per retry)")
		unit     = flag.Duration("unit", 500*time.Millisecond, "scenario time step: faults start at 1×unit, last heal by ~3.5×unit")
		spike    = flag.Duration("spike", 0, "delay-spike override (0 = max(unit, 8×wan))")
		algoName = flag.String("algo", "a1", "sim mode: algorithm under chaos (a1 or a2)")
		seed     = flag.Int64("seed", 1, "workload/sim seed")
		suspAft  = flag.Duration("suspectafter", 250*time.Millisecond, "failure detector suspicion timeout (live)")
		hbEvery  = flag.Duration("heartbeat", 50*time.Millisecond, "failure detector heartbeat period (live)")
		measure  = flag.Bool("measure", false, "measure re-election/trust-restore/resume latencies instead of running a scenario")
		verbose  = flag.Bool("v", false, "log every scenario event and delivery progress")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		harness.Usagef("wanchaos", format, args...)
	}
	cfg := lf.Live()
	cfg.WANDelay, cfg.LANDelay = *wan, *lan
	cfg.HeartbeatEvery, cfg.SuspectAfter = *hbEvery, *suspAft
	if err := lf.Validate(cfg); err != nil {
		fail("%v", err)
	}
	groups, d := cfg.Groups, cfg.PerGroup
	if *mode != "live" && *mode != "sim" {
		fail("-mode must be live or sim (got %q)", *mode)
	}
	if groups < 2 {
		fail("-groups must be at least 2 (nothing to partition with %d)", groups)
	}
	if d < 3 {
		fail("-d must be at least 3 (crash recovery needs a surviving majority per group)")
	}
	if *clients < 1 || *ops < 1 {
		fail("-clients and -ops must be at least 1")
	}
	if *timeout <= 0 || *unit <= 0 || *spike < 0 || *hbEvery <= 0 || *suspAft <= 0 {
		fail("-timeout, -unit, -heartbeat and -suspectafter must be positive, -spike non-negative")
	}
	if lf.Tracing() && *mode != "live" {
		fail("-telemetry, -spanbuf, and -flightdump need live mode")
	}
	n := groups * d
	// Each live scenario gets a disjoint port block so a fresh cluster
	// never binds a port the previous one just released: the stride must
	// cover the cluster itself, not just a fixed 64.
	stride := 64
	if n > stride {
		stride = n
	}
	if *mode == "live" {
		if err := harness.ValidatePortRange(cfg.BasePort, stride*len(scenario.Names())); err != nil {
			fail("-port: %v", err)
		}
		if err := harness.ValidatePortRange(*svcPort, stride*len(scenario.Names())); err != nil {
			fail("-svcport: %v", err)
		}
	}
	algo := harness.Algo(*algoName)
	if algo != harness.AlgoA1 && algo != harness.AlgoA2 {
		fail("-algo must be a1 or a2 (got %q)", *algoName)
	}

	if *spike == 0 {
		*spike = *unit
		if s := 8 * *wan; s > *spike {
			*spike = s
		}
	}
	topo := types.NewTopology(groups, d)
	suiteCfg := scenario.SuiteConfig{Unit: *unit, Spike: *spike}
	var scenarios []scenario.Scenario
	if *scn == "suite" {
		scenarios = scenario.Suite(topo, suiteCfg)
	} else {
		sc, ok := scenario.ByName(topo, suiteCfg, *scn)
		if !ok {
			fail("unknown -scenario %q (have %v and \"suite\")", *scn, scenario.Names())
		}
		scenarios = []scenario.Scenario{sc}
	}

	stopProf, err := harness.StartProfiles(lf.CPUProfile, lf.MemProfile, lf.MutexProfile)
	if err != nil {
		fail("%v", err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "wanchaos: profile:", err)
		}
	}()

	if *measure {
		return measureLatencies(cfg, *verbose)
	}

	failures := 0
	for i, sc := range scenarios {
		fmt.Printf("=== scenario %s (%s mode) ===\n", sc.Name, *mode)
		if *verbose {
			fmt.Println("   ", sc)
		}
		var ok bool
		if *mode == "sim" {
			ok = runSim(algo, sc, cfg, *seed, *verbose)
		} else {
			// Fresh ports per scenario: listeners of the previous cluster
			// are closed, but lingering TIME_WAIT sockets must not flake
			// the next bind.
			scCfg := cfg
			scCfg.BasePort += i * stride
			ok = runLive(sc, scCfg, *svcPort+i*stride, lf.Telemetry, *clients, *ops, *timeout, *seed, *verbose)
		}
		if ok {
			fmt.Printf("=== %s: OK ===\n\n", sc.Name)
		} else {
			failures++
			fmt.Printf("=== %s: FAILED ===\n\n", sc.Name)
		}
	}
	if failures > 0 {
		fmt.Printf("wanchaos: %d of %d scenarios FAILED\n", failures, len(scenarios))
		return 1
	}
	fmt.Printf("wanchaos: all %d scenarios passed (§2.2 clean, post-heal delivery resumed)\n", len(scenarios))
	return 0
}

// runLive runs one scenario against a real TCP cluster serving the KV
// service under closed-loop client load. Replicas persist to in-memory
// stores so crash/restart scenarios work without disk.
func runLive(sc scenario.Scenario, cfg wanamcast.LiveConfig, svcPort int, telemetry string,
	clients, ops int, timeout time.Duration, seed int64, verbose bool) bool {

	// Scenarios that isolate a process exercise the lease hand-off: enable
	// leader leases and serve part of the load as lease-consistent reads so
	// the fenced window is actually crossed by read traffic.
	leasing := false
	for _, e := range sc.Events {
		if e.Kind == scenario.Isolate {
			leasing = true
		}
	}
	if leasing {
		cfg.LeaseDuration = cfg.SuspectAfter
	}
	cfg.Check = true
	groups, d, suspAft := cfg.Groups, cfg.PerGroup, cfg.SuspectAfter
	stores := make([]storage.Store, groups*d)
	for i := range stores {
		stores[i] = storage.NewMem()
	}
	cfg.StoreFor = func(p wanamcast.ProcessID) storage.Store { return stores[p] }
	cluster := wanamcast.NewLiveCluster(cfg)
	if err := cluster.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "wanchaos:", err)
		return false
	}
	defer cluster.Stop()

	topo := cluster.Topology()
	route := svc.PrefixRoute(groups)
	stats := &metrics.Service{}
	svcCfg := svc.ServiceConfig{
		BasePort: svcPort,
		NewMachine: func(p types.ProcessID, g types.GroupID) svc.StateMachine {
			return svc.NewKVMachine(g, route)
		},
		Stats:  stats,
		Tracer: cluster.Tracer(),
	}
	if leasing {
		svcCfg.LeaseFor = func(p types.ProcessID) *fd.Lease { return cluster.ReadLease(p) }
	}
	service, err := svc.ServeCluster(cluster, topo, svcCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wanchaos:", err)
		return false
	}
	defer service.Stop()

	if telemetry != "" {
		tsrv, err := harness.ServeTelemetry(telemetry, cluster.TelemetrySource("wanchaos", stats))
		if err != nil {
			fmt.Fprintln(os.Stderr, "wanchaos:", err)
			return false
		}
		defer tsrv.Close()
		fmt.Printf("  telemetry: http://%s/metrics\n", tsrv.Addr())
	}

	funcs := cluster.Chaos()
	funcs.RestartFn = service.RestartReplica // reincarnate the replica's server too
	if verbose {
		funcs.Logf = func(format string, args ...any) {
			fmt.Printf("  chaos: "+format+"\n", args...)
		}
	}
	scenario.Apply(funcs, sc)

	// The load must OVERLAP the fault schedule, not finish before it: run
	// closed-loop waves (fresh sessions each — the replicated dedup
	// windows outlive a wave) until the scenario's horizon plus detector
	// slack has passed. Waves that span a partition stall on their
	// cross-shard commands and complete after the heal via client retries.
	fmt.Printf("  load: %d clients x %d ops per wave under %s (horizon %v)\n",
		clients, ops, sc.Name, sc.Horizon())
	begin := time.Now()
	totalOps, totalErrs, waves := 0, 0, 0
	for {
		spec := svc.LoadSpec{
			Clients:     clients,
			Ops:         ops,
			Mix:         workload.DefaultMix(),
			Timeout:     timeout,
			Seed:        seed + int64(waves),
			SessionBase: uint64(waves * (clients + 1)),
		}
		if leasing {
			spec.ReadFraction = 0.5
			spec.Consistency = svc.ConsistencyLease
		}
		res := svc.RunKVLoad(topo, service.Addrs(), spec, stats)
		totalOps += res.Ops
		totalErrs += res.Errors
		waves++
		if time.Since(begin) > sc.Horizon()+suspAft {
			break
		}
	}
	elapsed := time.Since(begin)
	fmt.Printf("  ops: %d ok, %d failed in %d waves over %v (%.1f ops/s)\n",
		totalOps, totalErrs, waves, elapsed.Round(time.Millisecond),
		float64(totalOps)/elapsed.Seconds())

	good := true
	if totalErrs > 0 {
		fmt.Printf("  FAIL: %d client operations failed\n", totalErrs)
		good = false
	}

	// Post-heal delivery progress: a fresh broadcast and a fresh
	// cross-group multicast must reach every correct process.
	correct := topo.N()
	probeFrom := topo.Members(1)[0]
	bid := cluster.Broadcast(probeFrom, "post-heal-probe-a2")
	if !cluster.WaitDelivered(bid, correct, 30*time.Second) {
		fmt.Printf("  FAIL: post-heal broadcast reached %d/%d processes\n",
			cluster.DeliveredCount(bid), correct)
		good = false
	}
	mid := cluster.Multicast(probeFrom, "post-heal-probe-a1", 0, 1)
	if !cluster.WaitDelivered(mid, 2*d, 30*time.Second) {
		fmt.Printf("  FAIL: post-heal multicast reached %d/%d processes\n",
			cluster.DeliveredCount(mid), 2*d)
		good = false
	}

	// §2.2 over the whole run, faults included.
	if v := cluster.WaitPropertiesClean(30 * time.Second); len(v) > 0 {
		fmt.Printf("  FAIL: %d property violations, first: %s\n", len(v), v[0])
		good = false
	} else {
		fmt.Println("  properties: uniform integrity, validity, uniform agreement, uniform prefix order: OK")
	}
	// Lease-safety pin: the isolated holder's lease must have lapsed
	// strictly before the successor's activated, so no read the old holder
	// served could land after the successor started serving — the fenced
	// window never overlaps.
	if leasing {
		victim := topo.Members(0)[0]
		succ := topo.Members(0)[1]
		succLease := cluster.ReadLease(succ)
		if succLease.Activations() == 0 {
			fmt.Println("  FAIL: successor never earned a lease — the failover path was not exercised")
			good = false
		} else {
			old := cluster.ReadLease(victim)
			// ExpiredAt is frozen lazily (on the next extend/revoke); if the
			// victim has not re-earned its lease yet, its still-frozen
			// ValidUntil IS the old incarnation's end.
			oldEnd := old.ExpiredAt()
			if oldEnd.IsZero() {
				oldEnd = old.ValidUntil()
			}
			gap := succLease.ActivatedAt().Sub(oldEnd)
			if gap <= 0 {
				fmt.Printf("  FAIL: lease overlap — old holder valid until %v, successor active from %v\n",
					oldEnd, succLease.ActivatedAt())
				good = false
			} else {
				fmt.Printf("  lease hand-off: old holder lapsed %v before the successor activated (stale-reads rejected: %d, lease reads denied: %d)\n",
					gap.Round(time.Millisecond), stats.Snapshot().StaleReads, stats.Snapshot().LeaseDenied)
			}
		}
	}
	st := cluster.Stats()
	fmt.Printf("  fd: suspicions=%d trust-restored=%d leader-changes=%d\n",
		st.Suspicions, st.TrustRestorations, st.LeaderChanges)
	return good
}

// runSim replays one scenario deterministically on the simulated runtime
// under a Poisson workload, shaped by cfg's topology, delays and ordering
// settings.
func runSim(algo harness.Algo, sc scenario.Scenario, cfg wanamcast.LiveConfig, seed int64, verbose bool) bool {
	s := harness.Build(algo, harness.Options{
		Groups: cfg.Groups, PerGroup: cfg.PerGroup, Inter: cfg.WANDelay, Intra: cfg.LANDelay, Seed: seed,
		MaxBatch: cfg.MaxBatch, A1Pipeline: cfg.Pipeline, A2Pipeline: cfg.Pipeline,
		Lanes: cfg.Lanes,
	})
	funcs := s.Chaos()
	if verbose {
		funcs.Logf = func(format string, args ...any) {
			fmt.Printf("  chaos: "+format+"\n", args...)
		}
	}
	scenario.Apply(funcs, sc)

	crashed := make(map[types.ProcessID]bool)
	for _, e := range sc.Events {
		if e.Kind == scenario.Crash {
			for _, p := range e.Procs {
				crashed[p] = true
			}
		}
	}
	casts := workload.Generate(s.Topo, workload.Spec{
		Casts:      40,
		MeanPeriod: sc.Horizon() / 30,
		Poisson:    true,
		Seed:       seed,
	})
	for _, c := range casts {
		c := c
		s.RT.Scheduler().At(c.At, func() {
			if !crashed[c.From] {
				s.Cast(c.From, c.Payload, c.Dest)
			}
		})
	}
	probeAt := sc.Horizon() + 100*time.Millisecond
	s.RT.Scheduler().At(probeAt, func() {
		s.Cast(s.Topo.Members(1)[0], "post-heal-probe", s.Topo.AllGroups())
	})
	s.RT.Scheduler().MaxSteps = 50_000_000
	s.Run()

	good := true
	if v := s.Check(); len(v) > 0 {
		fmt.Printf("  FAIL: %d property violations, first: %s\n", len(v), v[0])
		good = false
	} else {
		fmt.Println("  properties: uniform integrity, validity, uniform agreement, uniform prefix order: OK")
	}
	probes := 0
	for _, del := range s.Deliveries {
		if del.Payload == "post-heal-probe" {
			probes++
		}
	}
	want := 0
	for _, p := range s.Topo.AllProcesses() {
		if !crashed[p] {
			want++
		}
	}
	if probes != want {
		fmt.Printf("  FAIL: post-heal probe delivered %d/%d times\n", probes, want)
		good = false
	} else {
		fmt.Printf("  post-heal probe delivered by all %d correct processes at t=%v\n", want, s.RT.Now())
	}
	fmt.Printf("  stats: %v\n", s.Col.Snapshot())
	return good
}

// measureLatencies records the EXPERIMENTS.md "partition & heal" numbers:
// how long after isolating the rank-0 leader its group re-elects, how
// long after the heal trust (and leadership) is restored, and how long
// after healing a full inter-group partition a stalled broadcast resumes
// and completes delivery.
func measureLatencies(cfg wanamcast.LiveConfig, verbose bool) int {
	groups, d, hbEvery := cfg.Groups, cfg.PerGroup, cfg.HeartbeatEvery
	cluster := wanamcast.NewLiveCluster(cfg)
	leader := cluster.Process(0, 0)
	watcher := cluster.Process(0, 1)
	changes := make(chan wanamcast.ProcessID, 16)
	cluster.SubscribeLeader(watcher, func(_ wanamcast.GroupID, l wanamcast.ProcessID) {
		changes <- l
	})
	if err := cluster.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "wanchaos:", err)
		return 1
	}
	defer cluster.Stop()
	time.Sleep(4 * hbEvery) // let the detectors see everyone first

	waitLeader := func(want wanamcast.ProcessID) bool {
		deadline := time.After(30 * time.Second)
		for {
			select {
			case l := <-changes:
				if verbose {
					fmt.Printf("  (leader change at watcher -> %v)\n", l)
				}
				if l == want {
					return true
				}
			case <-deadline:
				return false
			}
		}
	}

	// Leader re-election: isolate the rank-0 leader inside its group.
	t0 := time.Now()
	cluster.Fabric().Isolate(leader)
	if !waitLeader(watcher) {
		fmt.Fprintln(os.Stderr, "wanchaos: group never re-elected after isolating its leader")
		return 1
	}
	reelect := time.Since(t0)

	// Trust restoration: heal and wait for the old leader to return.
	t1 := time.Now()
	cluster.Fabric().HealIsolate(leader)
	if !waitLeader(leader) {
		fmt.Fprintln(os.Stderr, "wanchaos: trust never restored after heal")
		return 1
	}
	restore := time.Since(t1)

	// Time-to-resume-delivery: broadcast into a group partition, heal,
	// and time the full fan-in from the heal instant.
	cluster.Fabric().Partition([]wanamcast.GroupID{0}, allOtherGroups(groups), true)
	id := cluster.Broadcast(leader, "stalled-until-heal")
	time.Sleep(500 * time.Millisecond) // let the cast stall mid-protocol
	partial := cluster.DeliveredCount(id)
	t2 := time.Now()
	cluster.Fabric().HealAll()
	if !cluster.WaitDelivered(id, groups*d, 30*time.Second) {
		fmt.Fprintln(os.Stderr, "wanchaos: delivery never resumed after heal")
		return 1
	}
	resume := time.Since(t2)
	if verbose {
		fmt.Printf("  (deliveries during partition: %d of %d)\n", partial, groups*d)
	}

	fmt.Printf("suspectafter=%v heartbeat=%v wan=%v: reelect=%v trust-restore=%v resume-delivery=%v\n",
		cfg.SuspectAfter, hbEvery, cfg.WANDelay,
		reelect.Round(time.Millisecond), restore.Round(time.Millisecond), resume.Round(time.Millisecond))
	return 0
}

func allOtherGroups(groups int) []wanamcast.GroupID {
	out := make([]wanamcast.GroupID, 0, groups-1)
	for g := 1; g < groups; g++ {
		out = append(out, wanamcast.GroupID(g))
	}
	return out
}
