// Command wankv runs the client-facing replicated key-value service: a
// live wide-area cluster (real TCP, injected WAN delay) whose every
// replica also serves clients through the exactly-once session protocol of
// internal/svc. Keys of the form "g<N>/..." live on shard N; a put
// touching several shards is one cross-shard command, genuinely multicast
// to exactly those shards (Algorithm A1).
//
// Serve mode (default) keeps the service up until interrupted:
//
//	wankv -groups 3 -d 3 -svcport 20000
//
// Load mode drives a closed-loop multi-client workload against the
// service, prints the client-observed latency by shard fan-out, verifies
// the §2.2 properties over the run, and exits non-zero on any violation
// or failed operation:
//
//	wankv -groups 3 -d 3 -clients 100 -ops 5 -check
//
// The read tier serves a read-heavy mix without a WAN round trip per
// read: -reads sets the read fraction and -consistency picks the mode —
// ordered (a full total-order round), lease (linearizable at the leader
// under a leader lease, enabled by -leasems and guarded by -skewms), or
// watermark (monotonic session reads at any replica):
//
//	wankv -groups 4 -d 3 -clients 64 -ops 50 -reads 0.95 -consistency lease -leasems 250
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
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

// run holds the real main so deferred shutdowns survive the explicit exit
// code.
func run() int {
	lf := liveflag.Register(flag.CommandLine, wanamcast.LiveConfig{
		Groups: 3, PerGroup: 3, BasePort: 19000, MaxBatch: 64, Pipeline: 4,
	})
	var (
		svcPort  = flag.Int("svcport", 20000, "client-facing base port (replica p serves on svcport+p)")
		wan      = flag.Duration("wan", 100*time.Millisecond, "injected one-way inter-shard delay")
		lan      = flag.Duration("lan", 0, "injected intra-shard delay (0 = raw loopback)")
		clients  = flag.Int("clients", 0, "closed-loop client sessions; 0 = serve until interrupted")
		ops      = flag.Int("ops", 5, "operations per client (load mode)")
		timeout  = flag.Duration("timeout", time.Second, "client first-attempt reply timeout (doubles per retry)")
		seed     = flag.Int64("seed", 1, "workload seed")
		checkRun = flag.Bool("check", false, "verify the §2.2 properties over the run (unbounded memory)")
		dataDir  = flag.String("datadir", "", "persist each replica's WAL+snapshots under this directory (empty = volatile)")
		noFsync  = flag.Bool("nofsync", false, "with -datadir: write WALs without fsync barriers (benchmark knob)")
		snapEvry = flag.Int("snapevery", 0, "with -datadir: snapshot every N deliveries per replica (0 = default 512)")
		reads    = flag.Float64("reads", 0, "read fraction of the load in [0,1] (load mode; 0 = write-only)")
		consist  = flag.String("consistency", "ordered", "read consistency: ordered (full total-order round), lease (leader-local linearizable), watermark (any-replica monotonic)")
		leaseMS  = flag.Int("leasems", 0, "leader lease duration in milliseconds (0 = leases off; required for -consistency lease)")
		skewMS   = flag.Int("skewms", 0, "max clock-rate drift per lease window in milliseconds (0 = default 10ms when leases are on)")
		scn      = flag.String("scenario", "", "chaos scenario to run under the load (partition-heal, asym-partition, leader-flap, delay-spike, partition-recovery, lease-partition); load mode only")
		scnUnit  = flag.Duration("unit", 500*time.Millisecond, "chaos scenario time step (with -scenario)")
		bandw    = flag.String("bandwidth", "", "per-link bandwidth cap, e.g. 50mbit, 6.25MB, 1gbit (empty = uncapped; heartbeats are exempt)")
		compMin  = flag.Int("compressmin", 0, "compress batch envelopes at or above this many bytes (0 = default 1500, negative = off)")
		benchOut = flag.String("benchjson", "", "load mode: append a machine-readable result record to this JSON file")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		harness.Usagef("wankv", format, args...)
	}
	bw, err := harness.ParseBandwidth(*bandw)
	if err != nil {
		fail("%v", err)
	}
	cfg := lf.Live()
	cfg.WANDelay, cfg.LANDelay = *wan, *lan
	cfg.Check = *checkRun
	cfg.DataDir, cfg.NoFsync, cfg.SnapshotEvery = *dataDir, *noFsync, *snapEvry
	cfg.LeaseDuration = time.Duration(*leaseMS) * time.Millisecond
	cfg.MaxClockSkew = time.Duration(*skewMS) * time.Millisecond
	cfg.Bandwidth, cfg.CompressMin = bw, *compMin
	if err := lf.Validate(cfg); err != nil {
		fail("%v", err)
	}
	groups, d := cfg.Groups, cfg.PerGroup
	n := groups * d
	if err := harness.ValidatePortRange(cfg.BasePort, n); err != nil {
		fail("-port: %v", err)
	}
	if err := harness.ValidatePortRange(*svcPort, n); err != nil {
		fail("-svcport: %v", err)
	}
	if *clients < 0 || (*clients > 0 && *ops < 1) {
		fail("-clients must be non-negative and -ops at least 1 in load mode")
	}
	if *timeout <= 0 {
		fail("-timeout must be positive")
	}
	if *reads < 0 || *reads > 1 {
		fail("-reads must be within [0,1] (got %v)", *reads)
	}
	mode, err := svc.ParseConsistency(*consist)
	if err != nil {
		fail("-consistency: %v", err)
	}
	if mode == svc.ConsistencyLease && cfg.LeaseDuration == 0 {
		fail("-consistency lease needs leader leases enabled (set -leasems)")
	}
	if *benchOut != "" && *clients < 1 {
		fail("-benchjson records load-mode runs only (-clients >= 1)")
	}
	if *scn != "" {
		if *clients < 1 {
			fail("-scenario needs load mode (-clients >= 1)")
		}
		if groups < 2 {
			fail("-scenario needs at least 2 shards to partition")
		}
		if *scnUnit <= 0 {
			fail("-unit must be positive")
		}
	}

	stopProf, err := harness.StartProfiles(lf.CPUProfile, lf.MemProfile, lf.MutexProfile)
	if err != nil {
		fail("%v", err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "wankv: profile:", err)
		}
	}()

	if *scn != "" && *dataDir == "" {
		// Crash/restart scenarios need a durable store per replica; without
		// a data dir, in-memory stores keep the run volatile but
		// restartable.
		stores := make([]storage.Store, n)
		for i := range stores {
			stores[i] = storage.NewMem()
		}
		cfg.StoreFor = func(p wanamcast.ProcessID) storage.Store { return stores[p] }
	}
	cluster := wanamcast.NewLiveCluster(cfg)
	if err := cluster.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "wankv:", err)
		return 1
	}
	defer cluster.Stop()

	topo := cluster.Topology()
	route := svc.PrefixRoute(groups)
	stats := &metrics.Service{}
	svcCfg := svc.ServiceConfig{
		BasePort: *svcPort,
		NewMachine: func(p types.ProcessID, g types.GroupID) svc.StateMachine {
			return svc.NewKVMachine(g, route)
		},
		Stats:  stats,
		Tracer: cluster.Tracer(),
	}
	if cfg.LeaseDuration > 0 {
		svcCfg.LeaseFor = func(p types.ProcessID) *fd.Lease { return cluster.ReadLease(p) }
	}
	service, err := svc.ServeCluster(cluster, topo, svcCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wankv:", err)
		return 1
	}
	defer service.Stop()

	laneDesc := "one per replica"
	if cfg.Lanes > 0 {
		laneDesc = fmt.Sprintf("%d", cfg.Lanes)
	}
	fmt.Printf("wankv: %d shards x %d replicas, wan=%v lan=%v maxbatch=%d pipeline=%d lanes=%s\n",
		groups, d, *wan, *lan, cfg.MaxBatch, cfg.Pipeline, laneDesc)
	if *bandw != "" {
		fmt.Printf("  bandwidth: %s per link (heartbeats exempt)\n", *bandw)
	}
	if *dataDir != "" {
		mode := "fsync per batch"
		if *noFsync {
			mode = "fsync OFF"
		}
		fmt.Printf("  durability: %s (%s)\n", *dataDir, mode)
	}
	for g := 0; g < groups; g++ {
		fmt.Printf("  shard g%d: %v\n", g, service.Addrs()[types.GroupID(g)])
	}
	if lf.Telemetry != "" {
		tsrv, err := harness.ServeTelemetry(lf.Telemetry, cluster.TelemetrySource("wankv", stats))
		if err != nil {
			fmt.Fprintln(os.Stderr, "wankv:", err)
			return 1
		}
		defer tsrv.Close()
		fmt.Printf("  telemetry: http://%s/metrics\n", tsrv.Addr())
	}

	if *clients == 0 {
		fmt.Println("serving; keys \"g<N>/...\" live on shard N; Ctrl-C to stop")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
		return 0
	}

	if *scn != "" {
		sc, ok := scenario.ByName(topo, scenario.SuiteConfig{Unit: *scnUnit}, *scn)
		if !ok {
			fail("unknown -scenario %q (have %v)", *scn, scenario.Names())
		}
		funcs := cluster.Chaos()
		funcs.RestartFn = service.RestartReplica
		funcs.Logf = func(format string, args ...any) {
			fmt.Printf("chaos: "+format+"\n", args...)
		}
		scenario.Apply(funcs, sc)
		fmt.Printf("chaos: scenario %s armed (unit %v, horizon %v)\n", sc.Name, *scnUnit, sc.Horizon())
	}

	if *reads > 0 {
		fmt.Printf("load: %d closed-loop clients x %d ops, %.0f%% reads at %s consistency (seed %d, timeout %v)\n",
			*clients, *ops, *reads*100, *consist, *seed, *timeout)
	} else {
		fmt.Printf("load: %d closed-loop clients x %d ops (seed %d, timeout %v)\n", *clients, *ops, *seed, *timeout)
	}
	res := svc.RunKVLoad(topo, service.Addrs(), svc.LoadSpec{
		Clients:      *clients,
		Ops:          *ops,
		Mix:          workload.DefaultMix(),
		Timeout:      *timeout,
		Seed:         *seed,
		ReadFraction: *reads,
		Consistency:  mode,
	}, stats)

	fmt.Printf("\nops            %d ok, %d failed in %v (%.1f ops/s)\n",
		res.Ops, res.Errors, res.Elapsed.Round(time.Millisecond),
		float64(res.Ops)/res.Elapsed.Seconds())
	if res.Reads > 0 {
		fmt.Printf("read tier      %d reads, %d writes (%.1f reads/s at %s consistency)\n",
			res.Reads, res.Writes, float64(res.Reads)/res.Elapsed.Seconds(), *consist)
	}
	fmt.Printf("service        %v\n", res.Stats)
	if st := cluster.Stats(); st.Suspicions > 0 || st.TrustRestorations > 0 || st.LeaderChanges > 0 {
		fmt.Printf("fd             suspicions=%d trust-restored=%d leader-changes=%d\n",
			st.Suspicions, st.TrustRestorations, st.LeaderChanges)
	}
	if fs := cluster.FsyncStats(); fs.Fsyncs > 0 || fs.Barriers > 0 {
		fmt.Printf("durability     fsyncs=%d gc-barriers=%d gc-windows=%d\n",
			fs.Fsyncs, fs.Barriers, fs.Windows)
	}
	if w := cluster.Stats().Wire; w.BytesOut > 0 && res.Ops > 0 {
		fmt.Printf("wire           %d B out, %.0f B/op, %.1f frames/write",
			w.BytesOut, float64(w.BytesOut)/float64(res.Ops), w.FramesPerEnvelope())
		if cr := w.CompressionRatio(); cr > 0 {
			fmt.Printf(", compression %.2fx", cr)
		}
		fmt.Println()
	}
	if *benchOut != "" {
		st := cluster.Stats()
		fs := cluster.FsyncStats()
		r := harness.BenchResult{
			Name:           "wankv-load",
			Topology:       fmt.Sprintf("%dx%d", groups, d),
			Lanes:          cfg.Lanes,
			Casts:          res.Ops,
			OrderedPerSec:  float64(res.Ops) / res.Elapsed.Seconds(),
			P50Ms:          float64(st.P50Wall) / float64(time.Millisecond),
			P99Ms:          float64(st.P99Wall) / float64(time.Millisecond),
			Fsyncs:         fs.Fsyncs,
			GCBarriers:     fs.Barriers,
			GCWindows:      fs.Windows,
			BatchesDecided: st.BatchesDecided,
			StartedAt:      time.Now().UTC().Format(time.RFC3339),
		}
		if r.BatchesDecided > 0 {
			r.FsyncsPerBatch = float64(r.Fsyncs) / float64(r.BatchesDecided)
		}
		r.WanHops = harness.WanHopHist(st.DegreeHist)
		r.SetWire(st.Wire, *bandw)
		if tr := cluster.Tracer(); tr != nil {
			r.Stages = harness.StageBreakdown(tr.Stats().Snapshot())
		}
		if res.Reads > 0 {
			ss := stats.Snapshot()
			r.ReadFraction = *reads
			r.Consistency = *consist
			r.Reads = res.Reads
			r.ReadsPerSec = float64(res.Reads) / res.Elapsed.Seconds()
			r.StaleReads = ss.StaleReads
			r.LeaseDenied = ss.LeaseDenied
			r.ByClass = make(map[string]map[string]float64, len(ss.ByClass))
			for class, sum := range ss.ByClass {
				r.ByClass[class] = map[string]float64{
					"p50": float64(sum.P50) / float64(time.Millisecond),
					"p99": float64(sum.P99) / float64(time.Millisecond),
				}
			}
		}
		if err := harness.AppendBenchJSON(*benchOut, r); err != nil {
			fmt.Fprintln(os.Stderr, "wankv: benchjson:", err)
			return 1
		}
		fmt.Printf("benchjson      appended to %s\n", *benchOut)
	}

	exit := 0
	if res.Errors > 0 {
		exit = 1
	}
	if *checkRun {
		// In-flight duplicates of retried commands may still be draining;
		// wait until the §2.2 checker is clean or the grace period ends.
		violations := cluster.WaitPropertiesClean(30 * time.Second)
		if len(violations) > 0 {
			fmt.Printf("\nPROPERTY VIOLATIONS (%d):\n", len(violations))
			for _, v := range violations {
				fmt.Println(" ", v)
			}
			exit = 1
		} else {
			fmt.Println("properties     uniform integrity, validity, uniform agreement, uniform prefix order: OK")
		}
	}
	return exit
}
