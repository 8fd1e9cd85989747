// Command wansim runs a configurable wide-area workload through any of the
// nine algorithms and prints per-run statistics: latency-degree
// distribution, inter-group message counts, wall latencies, and the §2.2
// property-check verdict.
//
// Examples:
//
//	wansim -algo a1 -groups 3 -d 3 -casts 50 -spread 2
//	wansim -algo a2 -groups 2 -d 3 -casts 100 -rate 20 -crash 1
//	wansim -algo delporte -groups 4 -casts 20 -seed 7
//	wansim -algo all -groups 3 -casts 30        # one comparison table
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"wanamcast"
	"wanamcast/cmd/internal/liveflag"
	"wanamcast/internal/harness"
	"wanamcast/internal/scenario"
	"wanamcast/internal/types"
)

func main() {
	lf := liveflag.Register(flag.CommandLine, wanamcast.LiveConfig{
		Groups: 3, PerGroup: 3, BasePort: 22000, Pipeline: 1,
	})
	var (
		algoName  = flag.String("algo", "a1", "algorithm: a1, a2, skeen, fritzke, delporte, rodrigues, detmerge, sousa, vicente")
		sweepSpec = flag.String("sweep", "", "run a scale sweep over these topology shapes instead of one run, e.g. 50x3,100x3,200x5 (sim only)")
		inter     = flag.Duration("inter", 100*time.Millisecond, "inter-group one-way delay")
		intra     = flag.Duration("intra", time.Millisecond, "intra-group one-way delay")
		jitter    = flag.Duration("jitter", 0, "uniform extra delay in [0,jitter)")
		casts     = flag.Int("casts", 20, "number of messages to cast")
		rate      = flag.Float64("rate", 10, "casts per second (virtual time)")
		spread    = flag.Int("spread", 2, "destination groups per multicast (ignored by broadcasts)")
		crash     = flag.Int("crash", 0, "crash this many processes (one per group, minority) mid-run")
		seed      = flag.Int64("seed", 1, "simulation seed")
		live      = flag.Bool("live", false, "run over real TCP sockets on localhost instead of the simulator (a1/a2 only)")
		bandwidth = flag.String("bandwidth", "", "per-link bandwidth cap, e.g. 50mbit, 6.25MB, 1gbit (empty = uncapped; heartbeats are exempt)")
		compMin   = flag.Int("compressmin", 0, "live transport: compress batch envelopes at or above this many bytes (0 = default 1500, negative = off)")
		benchOut  = flag.String("benchjson", "", "with -live: append a machine-readable result record to this JSON file")
		scn       = flag.String("scenario", "", "chaos scenario to run under the workload (partition-heal, asym-partition, leader-flap, delay-spike, partition-recovery); sim only")
		scnUnit   = flag.Duration("scnunit", 500*time.Millisecond, "chaos scenario time step (with -scenario)")
		verbose   = flag.Bool("v", false, "print every delivery")
	)
	flag.Parse()

	// Validate all flags before building anything: exit 2 with a usage
	// message instead of panicking mid-run on a bad topology or workload.
	fail := func(format string, args ...any) {
		harness.Usagef("wansim", format, args...)
	}
	bw, err := harness.ParseBandwidth(*bandwidth)
	if err != nil {
		fail("%v", err)
	}
	cfg := lf.Live()
	cfg.WANDelay, cfg.LANDelay = *inter, *intra
	cfg.Bandwidth, cfg.CompressMin = bw, *compMin
	if err := lf.Validate(cfg); err != nil {
		fail("%v", err)
	}
	groups, d := cfg.Groups, cfg.PerGroup
	if *casts < 0 {
		fail("-casts must be non-negative (got %d)", *casts)
	}
	if *rate <= 0 {
		fail("-rate must be positive (got %g)", *rate)
	}
	if *spread < 1 {
		fail("-spread must be at least 1 (got %d)", *spread)
	}
	if *crash < 0 {
		fail("-crash must be non-negative (got %d)", *crash)
	}
	if *live {
		if err := harness.ValidatePortRange(cfg.BasePort, groups*d); err != nil {
			fail("-port: %v", err)
		}
		if *scn != "" {
			fail("-scenario runs on the simulator only (cmd/wanchaos drives live chaos)")
		}
	}
	if *scn != "" {
		if groups < 2 {
			fail("-scenario needs at least 2 groups to partition")
		}
		if *scnUnit <= 0 {
			fail("-scnunit must be positive")
		}
	}
	if *spread > groups {
		*spread = groups
	}
	if *algoName == "all" {
		compareAll(groups, d, *inter, *intra, *jitter, *casts, *rate, *spread, *seed)
		return
	}
	algo := harness.Algo(*algoName)
	if !algo.Known() {
		fail("unknown -algo %q", *algoName)
	}
	if *benchOut != "" && !*live && *sweepSpec == "" {
		fail("-benchjson records live benchmark or -sweep runs only")
	}
	var sweepShapes []harness.Shape
	if *sweepSpec != "" {
		if *live {
			fail("-sweep runs on the simulator only")
		}
		if *scn != "" {
			fail("-sweep and -scenario are mutually exclusive")
		}
		sweepShapes, err = harness.ParseSweep(*sweepSpec)
		if err != nil {
			fail("-sweep: %v", err)
		}
	}
	opts := harness.Options{
		Groups: groups, PerGroup: d,
		Inter: *inter, Intra: *intra, Jitter: *jitter, Seed: *seed,
		MaxBatch: cfg.MaxBatch, A1Pipeline: cfg.Pipeline, A2Pipeline: cfg.Pipeline,
		Bandwidth: *bandwidth, Lanes: cfg.Lanes,
	}
	if err := opts.Validate(); err != nil {
		fail("%v", err)
	}
	// Every sweep point must validate as a full Options value too, so a bad
	// shape dies here with a usage message, not mid-sweep.
	for _, sh := range sweepShapes {
		o := opts
		o.Groups, o.PerGroup = sh.Groups, sh.PerGroup
		if err := o.Validate(); err != nil {
			fail("-sweep %v: %v", sh, err)
		}
	}
	if lf.Tracing() && !*live {
		fail("-telemetry, -spanbuf, and -flightdump instrument live runs only (add -live)")
	}
	if *compMin != 0 && !*live {
		fail("-compressmin tunes the live transport only (add -live)")
	}
	stopProf, err := harness.StartProfiles(lf.CPUProfile, lf.MemProfile, lf.MutexProfile)
	if err != nil {
		fail("%v", err)
	}
	flushProf := func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "wansim: profile:", err)
		}
	}
	if len(sweepShapes) > 0 {
		runSweep(algo, opts, sweepShapes, *casts, *benchOut)
		flushProf()
		return
	}
	if *live {
		runLive(algo, cfg, liveRun{
			telemetry: lf.Telemetry, bandwidth: *bandwidth, benchOut: *benchOut,
			casts: *casts, rate: *rate, spread: *spread, seed: *seed, verbose: *verbose,
		})
		flushProf()
		return
	}
	s := harness.Build(algo, opts)
	rng := rand.New(rand.NewSource(*seed))
	period := time.Duration(float64(time.Second) / *rate)

	crashed := make(map[types.ProcessID]bool)
	if *scn != "" {
		sc, ok := scenario.ByName(s.Topo, scenario.SuiteConfig{Unit: *scnUnit}, *scn)
		if !ok {
			fail("unknown -scenario %q (have %v)", *scn, scenario.Names())
		}
		funcs := s.Chaos()
		funcs.Logf = func(format string, args ...any) {
			fmt.Printf("chaos: "+format+"\n", args...)
		}
		scenario.Apply(funcs, sc)
		// The simulator cannot restart, so scenario crash victims stay
		// down: stop scheduling casts from them.
		for _, e := range sc.Events {
			if e.Kind == scenario.Crash {
				for _, p := range e.Procs {
					crashed[p] = true
				}
			}
		}
	}

	// Warm A2's rounds so the steady-state latency is measured.
	if algo == harness.AlgoA2 {
		for g := 0; g < groups; g++ {
			s.CastAt(0, s.Topo.Members(types.GroupID(g))[0], "warm", s.Topo.AllGroups())
		}
	}

	for i := 0; i < *crash && i < groups; i++ {
		// Crash the last member of group i (never the consensus leader's
		// whole majority).
		members := s.Topo.Members(types.GroupID(i))
		if len(members) < 3 {
			fmt.Fprintln(os.Stderr, "wansim: refusing to crash in groups smaller than 3 (consensus needs a majority)")
			break
		}
		victim := members[len(members)-1]
		at := time.Duration(i+1) * period
		s.CrashAt(victim, at)
		crashed[victim] = true
		fmt.Printf("crash: %v at %v\n", victim, at)
	}

	var ids []types.MessageID
	for i := 0; i < *casts; i++ {
		i := i
		from := types.ProcessID(rng.Intn(s.Topo.N()))
		dest := pickDest(rng, groups, *spread)
		at := time.Duration(i+1) * period
		s.RT.Scheduler().At(at, func() {
			if crashed[from] {
				return
			}
			ids = append(ids, s.Cast(from, fmt.Sprintf("msg-%d", i), types.NewGroupSet(dest...)))
		})
	}

	s.Run()
	flushProf()

	if *verbose {
		for _, del := range s.Deliveries {
			fmt.Printf("deliver %v at %v t=%v\n", del.ID, del.Process, del.At)
		}
	}

	st := s.Col.Snapshot()
	fmt.Printf("\nalgorithm      %s\n", algo)
	fmt.Printf("topology       %d groups x %d processes, inter=%v intra=%v jitter=%v\n", groups, d, *inter, *intra, *jitter)
	fmt.Printf("casts          %d (plus warm-ups where applicable)\n", len(ids))
	fmt.Printf("virtual time   %v\n", s.RT.Now())
	fmt.Printf("stats          %v\n", st)
	if v := s.Check(); len(v) != 0 {
		fmt.Printf("\nPROPERTY VIOLATIONS (%d):\n", len(v))
		for _, x := range v {
			fmt.Println(" ", x)
		}
		os.Exit(1)
	}
	fmt.Println("properties     uniform integrity, validity, uniform agreement, uniform prefix order: OK")
}

// runSweep measures the simulation runtime itself across topology shapes:
// one full workload per shape, reporting events/s, allocs/event, wall
// clock, and peak heap. With benchOut set, each point also appends a
// machine-readable record (BENCH_sim.json by convention).
func runSweep(algo harness.Algo, opts harness.Options, shapes []harness.Shape, casts int, benchOut string) {
	fmt.Printf("scale sweep: algo=%s casts=%d seed=%d inter=%v intra=%v jitter=%v\n",
		algo, casts, opts.Seed, opts.Inter, opts.Intra, opts.Jitter)
	fmt.Printf("%-8s %-6s %-10s %-12s %-14s %-10s %-12s %s\n",
		"shape", "procs", "casts", "events", "events/s", "wall", "allocs/ev", "peak heap")
	for _, sh := range shapes {
		p := harness.RunScaleSweep(algo, opts, []harness.Shape{sh}, casts)[0]
		fmt.Printf("%-8s %-6d %-10d %-12d %-14.0f %-10v %-12.2f %.1f MiB\n",
			p.Shape, p.Shape.N(), p.Casts, p.Events, p.EventsPerSec,
			p.Wall.Round(time.Millisecond), p.AllocsPerEvent,
			float64(p.PeakHeapBytes)/(1<<20))
		if p.Violations != 0 {
			fmt.Fprintf(os.Stderr, "wansim: %d property violations at %v\n", p.Violations, p.Shape)
			os.Exit(1)
		}
		if benchOut != "" {
			rec := p.BenchRecord("sim-sweep-"+string(algo), opts.Seed)
			rec.StartedAt = time.Now().UTC().Format(time.RFC3339)
			if err := harness.AppendBenchJSON(benchOut, rec); err != nil {
				fmt.Fprintln(os.Stderr, "wansim: benchjson:", err)
				os.Exit(1)
			}
		}
	}
}

// pickDest samples spread distinct destination groups. It requires
// spread <= groups (main clamps the flag) or it would never terminate.
func pickDest(rng *rand.Rand, groups, spread int) []types.GroupID {
	var dest []types.GroupID
	for len(dest) < spread {
		g := types.GroupID(rng.Intn(groups))
		dup := false
		for _, x := range dest {
			dup = dup || x == g
		}
		if !dup {
			dest = append(dest, g)
		}
	}
	return dest
}

// compareAll runs the same workload through every algorithm and prints one
// row per contender: mean latency degree, inter-group messages, and wall
// latency percentiles.
func compareAll(groups, d int, inter, intra, jitter time.Duration, casts int, rate float64, spread int, seed int64) {
	period := time.Duration(float64(time.Second) / rate)
	algos := append(harness.MulticastAlgos(), harness.AlgoSkeen)
	algos = append(algos, harness.BroadcastAlgos()[:3]...) // det-merge already listed
	fmt.Printf("workload: %d casts, period %v, %d of %d groups per cast, seed %d\n", casts, period, spread, groups, seed)
	fmt.Printf("%-11s %-6s %-12s %-12s %-10s %-10s %s\n", "algorithm", "kind", "mean degree", "inter-group", "p50 wall", "p99 wall", "properties")
	seen := map[harness.Algo]bool{}
	for _, algo := range algos {
		if seen[algo] {
			continue
		}
		seen[algo] = true
		s := harness.Build(algo, harness.Options{
			Groups: groups, PerGroup: d, Inter: inter, Intra: intra, Jitter: jitter, Seed: seed,
			DetMergeInterval: inter / 2, DetMergeStop: time.Duration(casts+4) * period,
		})
		if algo == harness.AlgoA2 {
			for g := 0; g < groups; g++ {
				s.CastAt(0, s.Topo.Members(types.GroupID(g))[0], "warm", s.Topo.AllGroups())
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < casts; i++ {
			i := i
			from := types.ProcessID(rng.Intn(s.Topo.N()))
			dest := pickDest(rng, groups, spread)
			s.CastAt(time.Duration(i+1)*period, from, fmt.Sprintf("m%d", i), types.NewGroupSet(dest...))
		}
		s.Run()
		st := s.Col.Snapshot()
		kind := "mcast"
		if s.IsBroadcast() {
			kind = "bcast"
		}
		verdict := "OK"
		if v := s.Check(); len(v) != 0 {
			verdict = fmt.Sprintf("%d VIOLATIONS", len(v))
		}
		fmt.Printf("%-11s %-6s %-12.2f %-12d %-10v %-10v %s\n",
			algo, kind, st.MeanDegree, st.InterGroupMessages,
			st.P50Wall.Round(time.Millisecond), st.P99Wall.Round(time.Millisecond), verdict)
	}
	fmt.Println("\nnote: mean degrees exceed the single-message optima under contention —")
	fmt.Println("concurrent messages extend each other's causal paths; see EXPERIMENTS.md.")
}
