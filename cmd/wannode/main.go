// Command wannode runs ONE process of a wide-area system as its own OS
// process, talking real TCP to the other wannode instances. Start one per
// process ID (the topology and base port must agree across instances),
// then type commands on stdin:
//
//	bcast <text>          atomic broadcast (Algorithm A2)
//	mcast <g0,g1> <text>  genuine atomic multicast (Algorithm A1)
//	quit
//
// Example, a 2×2 system in four shells:
//
//	wannode -id 0 -groups 2 -d 2 &
//	wannode -id 1 -groups 2 -d 2 &
//	wannode -id 2 -groups 2 -d 2 &
//	wannode -id 3 -groups 2 -d 2
//
// Deliveries print as they happen; every instance prints the same order.
package main

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"wanamcast/internal/abcast"
	"wanamcast/internal/amcast"
	"wanamcast/internal/durable"
	"wanamcast/internal/harness"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/storage"
	"wanamcast/internal/transport/tcp"
	"wanamcast/internal/types"
)

// snapshotNode persists one snapshot, reporting failure without dying:
// a failed snapshot costs replay time, not correctness.
func snapshotNode(n *durable.Node) {
	if err := n.Snapshot(); err != nil {
		fmt.Fprintln(os.Stderr, "wannode: snapshot:", err)
	}
}

func main() {
	var (
		id       = flag.Int("id", 0, "this process's ID (0..groups*d-1)")
		groups   = flag.Int("groups", 2, "number of groups")
		d        = flag.Int("d", 2, "processes per group")
		basePort = flag.Int("port", 19000, "base port (process p listens on port+p)")
		wan      = flag.Duration("wan", 100*time.Millisecond, "injected one-way inter-group delay")
		sendq    = flag.Int("sendqueue", 0, "per-connection send queue depth (0 = default 4096)")
		flush    = flag.Duration("flush", 0, "max frame-coalescing latency before a flush (0 = default 200µs)")
		trace    = flag.Bool("trace", false, "print transport trace lines to stderr")
		dataDir  = flag.String("datadir", "", "persist WAL+snapshots under this directory and recover from it at startup (empty = volatile)")
		noFsync  = flag.Bool("nofsync", false, "with -datadir: write the WAL without fsync barriers (benchmark knob; OS-process crashes may lose the tail)")
		snapEvry = flag.Int("snapevery", 0, "with -datadir: snapshot every N deliveries (0 = default 512)")
	)
	flag.Parse()

	// Validate everything up front: a bad flag must die with a usage
	// message here, not as a topology panic or socket error mid-run.
	fail := func(format string, args ...any) {
		harness.Usagef("wannode", format, args...)
	}
	if *groups < 1 || *d < 1 {
		fail("-groups and -d must be at least 1 (got %d x %d)", *groups, *d)
	}
	if err := harness.ValidatePortRange(*basePort, *groups**d); err != nil {
		fail("-port: %v", err)
	}
	if *wan < 0 {
		fail("-wan must be non-negative (got %v)", *wan)
	}
	if *sendq < 0 {
		fail("-sendqueue must be non-negative (got %d)", *sendq)
	}
	if *flush < 0 {
		fail("-flush must be non-negative (got %v)", *flush)
	}
	if (*noFsync || *snapEvry != 0) && *dataDir == "" {
		fail("-nofsync and -snapevery need -datadir")
	}
	topo := types.NewTopology(*groups, *d)
	if *id < 0 || *id >= topo.N() {
		fail("-id must be in [0,%d) (got %d)", topo.N(), *id)
	}
	self := types.ProcessID(*id)

	var tracer func(format string, args ...any)
	if *trace {
		tracer = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "TRACE "+format+"\n", args...)
		}
	}
	rt := tcp.New(tcp.Config{
		Topo:       topo,
		Local:      []types.ProcessID{self},
		BasePort:   *basePort,
		WANDelay:   *wan,
		SendQueue:  *sendq,
		FlushEvery: *flush,
		Trace:      tracer,
	})

	var store storage.Store
	if *dataDir != "" {
		d, err := storage.OpenDisk(*dataDir, storage.DiskOptions{NoFsync: *noFsync})
		if err != nil {
			fmt.Fprintln(os.Stderr, "wannode:", err)
			os.Exit(1)
		}
		store = d
		defer store.Close()
	}
	log := storage.NewLog(store)
	snapEvery := *snapEvry
	if snapEvery == 0 {
		snapEvery = 512
	}

	var seq uint64
	nextID := func() types.MessageID {
		seq++
		return types.MessageID{Origin: self, Seq: seq}
	}
	var dnode *durable.Node
	var sinceSnap int
	deliver := func(kind string) func(mid types.MessageID, payload any) {
		return func(mid types.MessageID, payload any) {
			if !rt.Proc(self).Recovering() {
				fmt.Printf("[%v] A-Deliver %s %v: %v\n", self, kind, mid, payload)
			}
			if store != nil && snapEvery > 0 {
				sinceSnap++
				if sinceSnap >= snapEvery {
					sinceSnap = 0
					rt.Async(self, func() { snapshotNode(dnode) })
				}
			}
		}
	}
	var onSynced func()
	if store != nil {
		onSynced = func() { rt.Async(self, func() { snapshotNode(dnode) }) }
	}
	a1 := amcast.New(amcast.Config{
		Host:       rt.Proc(self),
		Detector:   rt.Detector(self),
		SkipStages: true,
		NextID:     nextID,
		Log:        log,
		OnSynced:   onSynced,
		OnDeliver:  func(m rmcast.Message) { deliver("mcast")(m.ID, m.Payload) },
	})
	a2 := abcast.New(abcast.Config{
		Host:      rt.Proc(self),
		Detector:  rt.Detector(self),
		NextID:    nextID,
		Log:       log,
		OnSynced:  onSynced,
		OnDeliver: deliver("bcast"),
	})
	dnode = &durable.Node{Store: store, A1: a1, A2: a2, Extra: []durable.Section{{
		Name: "wannode",
		Save: func() ([]byte, error) { return binary.AppendUvarint(nil, seq), nil },
		Restore: func(data []byte) error {
			s, n := binary.Uvarint(data)
			if n <= 0 {
				// A silent seq=0 here could re-issue MessageIDs the old
				// incarnation already used: fail the recovery instead.
				return fmt.Errorf("corrupt wannode section")
			}
			seq = s
			return nil
		},
	}}}

	// Recover durable state before the transport starts: the acceptor must
	// never answer a Prepare or Accept with amnesia. Runs with sends and
	// prints suppressed; the loops are not running yet, so this is safe on
	// the main goroutine.
	recovered := false
	if store != nil {
		proc := rt.Proc(self)
		proc.SetRecovering(true)
		if err := dnode.Recover(); err != nil {
			fmt.Fprintln(os.Stderr, "wannode: recovery:", err)
			os.Exit(1)
		}
		proc.SetRecovering(false)
		recovered = a1.Delivered() > 0 || a2.Round() > 1 || seq > 0
		if recovered {
			// A fresh incarnation must never reuse a MessageID: casts
			// since the last snapshot are not individually logged.
			seq += 1 << 20
		}
	}

	if err := rt.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "wannode:", err)
		os.Exit(1)
	}
	defer rt.Stop()
	if store != nil {
		// Catch up whatever the group ordered while this instance was
		// down. This must run for a COLD start too: recovery leaves
		// delivery gated until the state transfer confirms the group's
		// prefix (a wiped data dir on a running cluster is just "very far
		// behind"), and on a cluster-wide cold start every member answers
		// Busy-with-nothing-newer, so the group concludes nobody holds
		// more and resumes — skipping the sync here would leave the gate
		// armed forever.
		rt.Run(self, dnode.StartSync)
		if recovered {
			fmt.Printf("[%v] recovered from %s (a1 deliveries=%d, a2 round=%d); syncing with group peers\n",
				self, *dataDir, a1.Delivered(), a2.Round())
		}
	}
	fmt.Printf("[%v] up: group %v, listening on %d, peers on %d..%d\n",
		self, topo.GroupOf(self), *basePort+*id, *basePort, *basePort+topo.N()-1)

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == "quit":
			if store != nil {
				// Parting snapshot: the next incarnation recovers from it
				// instead of replaying the whole WAL tail.
				rt.Run(self, func() { snapshotNode(dnode) })
			}
			return
		case strings.HasPrefix(line, "bcast "):
			text := strings.TrimPrefix(line, "bcast ")
			rt.Run(self, func() { a2.ABCast(text) })
		case strings.HasPrefix(line, "mcast "):
			rest := strings.TrimPrefix(line, "mcast ")
			parts := strings.SplitN(rest, " ", 2)
			if len(parts) != 2 {
				fmt.Println("usage: mcast <g0,g1,...> <text>")
				continue
			}
			var dest []types.GroupID
			ok := true
			for _, s := range strings.Split(parts[0], ",") {
				g, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || g < 0 || g >= *groups {
					ok = false
					break
				}
				dest = append(dest, types.GroupID(g))
			}
			if !ok || len(dest) == 0 {
				fmt.Println("usage: mcast <g0,g1,...> <text>")
				continue
			}
			text := parts[1]
			rt.Run(self, func() { a1.AMCast(text, types.NewGroupSet(dest...)) })
		default:
			fmt.Println("commands: bcast <text> | mcast <g0,g1> <text> | quit")
		}
	}
}
