// Package harness wires any of the repository's nine total-order
// algorithms — the paper's A1 and A2 plus the seven Figure 1 baselines —
// into a simulated wide-area system with uniform casting, measurement, and
// property-checking surfaces. The Figure 1 benchmarks, the cmd/figures
// tool, and the cross-algorithm tests are all built on it.
package harness

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"wanamcast/internal/abcast"
	"wanamcast/internal/amcast"
	"wanamcast/internal/baseline"
	"wanamcast/internal/check"
	"wanamcast/internal/metrics"
	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/scenario"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// Algo names an algorithm the harness can build.
type Algo string

// The algorithms of Figure 1.
const (
	AlgoA1        Algo = "a1"        // paper §4: genuine atomic multicast, Δ=2
	AlgoA2        Algo = "a2"        // paper §5: atomic broadcast, Δ=1
	AlgoSkeen     Algo = "skeen"     // [2]: failure-free multicast, Δ=2
	AlgoFritzke   Algo = "fritzke"   // [5]: all four stages, Δ=2
	AlgoDelporte  Algo = "delporte"  // [4]: group chain, Δ=k+1
	AlgoRodrigues Algo = "rodrigues" // [10]: spanning consensus, Δ=4
	AlgoDetMerge  Algo = "detmerge"  // [1]: deterministic merge, Δ=1
	AlgoSousa     Algo = "sousa"     // [12]: optimistic sequencer, Δ=2
	AlgoVicente   Algo = "vicente"   // [13]: validated sequencer, Δ=2
)

// Algos lists every algorithm the harness can build — the single catalog
// commands validate against.
func Algos() []Algo {
	return []Algo{AlgoA1, AlgoA2, AlgoSkeen, AlgoFritzke, AlgoDelporte,
		AlgoRodrigues, AlgoDetMerge, AlgoSousa, AlgoVicente}
}

// Known reports whether the harness can build a.
func (a Algo) Known() bool {
	for _, k := range Algos() {
		if a == k {
			return true
		}
	}
	return false
}

// Usagef is the shared bad-flag exit of the commands: it prints the
// error prefixed with the command name, then the flag usage, and exits 2.
func Usagef(cmd, format string, args ...any) {
	fmt.Fprintf(os.Stderr, cmd+": "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// ValidatePortRange checks that n consecutive TCP ports starting at base
// fit within 1..65535 — the live transport's process-p-listens-on-base+p
// scheme, shared by every command that opens a live cluster.
func ValidatePortRange(base, n int) error {
	if base < 1 || base+n > 65536 {
		return fmt.Errorf("base port %d leaves no room for %d processes (need ports %d..%d within 1..65535)",
			base, n, base, base+n-1)
	}
	return nil
}

// ParseBandwidth parses a link-rate string into bytes per second. The
// number may be fractional; the unit suffix (case-insensitive, optional
// "/s") selects bits or bytes with decimal (1000-based) prefixes, the
// networking convention: "50Mbit" = 50·10⁶ bit/s = 6.25·10⁶ B/s.
// Accepted units: bit, kbit, Mbit, Gbit, B, kB, MB, GB; a bare number
// means bytes per second. Zero or empty means uncapped; negative rates
// and rates that round below one byte per second are rejected.
func ParseBandwidth(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	num := strings.TrimRight(s, "/sS")
	i := len(num)
	for i > 0 {
		c := num[i-1]
		if c >= '0' && c <= '9' || c == '.' {
			break
		}
		i--
	}
	unit, num := num[i:], num[:i]
	val, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bandwidth %q: %q is not a number", s, num)
	}
	var scale float64 // bytes per unit
	switch strings.ToLower(unit) {
	case "", "b":
		scale = 1
	case "kb":
		scale = 1e3
	case "mb":
		scale = 1e6
	case "gb":
		scale = 1e9
	case "bit":
		scale = 1.0 / 8
	case "kbit":
		scale = 1e3 / 8
	case "mbit":
		scale = 1e6 / 8
	case "gbit":
		scale = 1e9 / 8
	default:
		return 0, fmt.Errorf("bandwidth %q: unknown unit %q (want bit, kbit, Mbit, Gbit, B, kB, MB, or GB)", s, unit)
	}
	bytesPerSec := val * scale
	if bytesPerSec < 0 {
		return 0, fmt.Errorf("bandwidth %q: rate must be non-negative", s)
	}
	if val > 0 && bytesPerSec < 1 {
		return 0, fmt.Errorf("bandwidth %q: rounds below one byte per second", s)
	}
	return int64(bytesPerSec), nil
}

// MulticastAlgos lists the Figure 1(a) contenders in the paper's row order.
func MulticastAlgos() []Algo {
	return []Algo{AlgoDelporte, AlgoRodrigues, AlgoFritzke, AlgoA1, AlgoDetMerge}
}

// BroadcastAlgos lists the Figure 1(b) contenders in the paper's row order.
func BroadcastAlgos() []Algo {
	return []Algo{AlgoSousa, AlgoVicente, AlgoA2, AlgoDetMerge}
}

// Options configures a harness system.
type Options struct {
	Groups   int
	PerGroup int
	Inter    time.Duration // inter-group one-way delay (default 100 ms)
	Intra    time.Duration // intra-group one-way delay (default 1 ms)
	Jitter   time.Duration
	Seed     int64
	LogSends bool
	// ConsensusRetry tunes the consensus engines (where applicable).
	ConsensusRetry time.Duration
	// DetMergeInterval is the [1] heartbeat period (default 10 ms).
	DetMergeInterval time.Duration
	// DetMergeStop stops the [1] heartbeat stream at that virtual time so
	// Run() drains (default 5 s).
	DetMergeStop time.Duration
	// A2AlwaysOn disables A2's quiescence prediction (proactivity
	// ablation); such a system never drains, so use RunUntil.
	A2AlwaysOn bool
	// A2KeepAlive sets A2's quiescence-predictor patience in rounds
	// (0 means the paper's default of 1).
	A2KeepAlive int
	// A2Pipeline sets A2's rounds-in-flight limit (0 means the paper's
	// sequential 1).
	A2Pipeline int
	// A1Pipeline sets A1's consensus-instances-in-flight limit (0 means
	// the paper's sequential 1).
	A1Pipeline int
	// MaxBatch caps how many messages one consensus instance may order in
	// A1 and A2 (0 means unbounded, the paper's rule).
	MaxBatch int
	// SendQueue and FlushEvery tune the live TCP transport when the same
	// workload options drive a real cluster (cmd/wansim -live, cmd/wannode):
	// SendQueue bounds each connection's outbound frame queue and
	// FlushEvery caps write coalescing latency. The simulated runtime has
	// no transport and ignores both.
	SendQueue  int
	FlushEvery time.Duration
	// Bandwidth caps every link at this rate (ParseBandwidth forms, e.g.
	// "50Mbit", "6.25MB"; empty or "0" = uncapped). The simulator adds the
	// transmission delay and per-link FIFO queueing to its delay model; the
	// live transport paces each connection's writer. Heartbeats are exempt
	// on the live path — a saturated link must not look like a crash.
	Bandwidth string
	// CompressMin is the live transport's batch compression threshold in
	// bytes (0 = default wire.MinCompress, negative = compression off).
	// Positive values below wire.MinCompress (one MTU) are rejected.
	CompressMin int
	// DataDir enables durability on a live cluster: each process persists
	// its WAL and snapshots under DataDir/p<N> and can be crash-recovered
	// (LiveCluster.Restart; wannode recovers at startup). Empty disables
	// persistence. The simulated runtime has no crashes to recover from
	// and ignores it.
	DataDir string
	// NoFsync keeps writing the WAL but skips the fsync barriers: the
	// "fsync=off" benchmark configuration. Ignored without DataDir.
	NoFsync bool
	// SnapshotEvery is the live cluster's snapshot cadence in deliveries
	// per process (0 = default 512, negative disables automatic
	// snapshots). Ignored without DataDir.
	SnapshotEvery int
	// Lanes shards a live cluster's processes across exactly this many
	// ordering lane goroutines by group (0 = one goroutine per process,
	// the historical layout), and routes WAL barriers through the
	// group-commit syncer. The simulated runtime executes single-threaded
	// regardless; there Lanes only configures the lane accounting
	// (node.Runtime.SetLanes), preserving byte-identical traces.
	Lanes int
	// InboxSize bounds each live lane's lock-free inbox ring (default
	// 4096); a full ring parks events, never drops. Ignored by the
	// simulated runtime.
	InboxSize int
	// CPUProfile, MemProfile, and MutexProfile are file paths for pprof
	// output; empty disables each. Commands wire them to -cpuprofile,
	// -memprofile, and -mutexprofile and call StartProfiles around the
	// run.
	CPUProfile   string
	MemProfile   string
	MutexProfile string
	// BenchJSON, when set, appends a machine-readable BenchResult record
	// to this file after a live benchmark run (see AppendBenchJSON).
	BenchJSON string
	// ReadFraction is the read share of a KV load in [0,1] (0 = the
	// historical write-only load). Only live KV commands consume it.
	ReadFraction float64
	// Consistency names the read mode of a KV load: "ordered" (full
	// total-order round), "lease" (leader-local linearizable), or
	// "watermark" (any-replica monotonic). Empty means ordered.
	Consistency string
	// LeaseDuration enables leader leases on a live cluster (0 disables);
	// MaxClockSkew is the drift guard subtracted from every lease window
	// (default 10 ms when leases are on).
	LeaseDuration time.Duration
	MaxClockSkew  time.Duration
	// TelemetryAddr, when non-empty, serves the live introspection plane
	// (Prometheus-text /metrics, recent spans on /spans, /healthz) on this
	// host:port while the command runs. Setting it also enables lifecycle
	// span tracing — see TraceLifecycle. Ignored by the pure simulator.
	TelemetryAddr string
	// SpanBuf bounds each ordering lane's lifecycle-span ring (0 =
	// default 4096 events). A positive value enables span tracing.
	SpanBuf int
	// FlightDump arms the live cluster's flight recorder: the retained
	// spans dump as JSONL to this path on a §2.2 checker violation, an
	// abandoned state transfer, or a crash-restart. Enables span tracing.
	FlightDump string
	// Trace receives debug lines if non-nil.
	Trace func(format string, args ...any)
}

// BandwidthBytes returns the parsed Options.Bandwidth in bytes per second
// (0 = uncapped). Call Validate first; a malformed rate parses as uncapped
// here.
func (o Options) BandwidthBytes() int64 {
	bw, err := ParseBandwidth(o.Bandwidth)
	if err != nil {
		return 0
	}
	return bw
}

// TraceLifecycle reports whether the options ask for lifecycle span
// tracing: any of the telemetry plane, a span buffer size, or a flight
// dump path implies it.
func (o Options) TraceLifecycle() bool {
	return o.TelemetryAddr != "" || o.SpanBuf > 0 || o.FlightDump != ""
}

// Validate rejects option values that would panic deep inside a run —
// non-positive topologies, negative delays or queue sizes. Commands
// validate flags through it so a bad invocation dies with a usage message
// instead of a mid-run panic. Zero values are fine (fill() defaults them).
func (o Options) Validate() error {
	switch {
	case o.Groups < 0 || o.PerGroup < 0:
		return fmt.Errorf("topology must be positive: %d groups x %d processes", o.Groups, o.PerGroup)
	case o.Inter < 0 || o.Intra < 0 || o.Jitter < 0:
		return fmt.Errorf("delays must be non-negative: inter=%v intra=%v jitter=%v", o.Inter, o.Intra, o.Jitter)
	case o.MaxBatch < 0:
		return fmt.Errorf("max batch must be non-negative: %d", o.MaxBatch)
	case o.A1Pipeline < 0 || o.A2Pipeline < 0:
		return fmt.Errorf("pipeline depth must be non-negative: a1=%d a2=%d", o.A1Pipeline, o.A2Pipeline)
	case o.A2KeepAlive < 0:
		return fmt.Errorf("keep-alive rounds must be non-negative: %d", o.A2KeepAlive)
	case o.SendQueue < 0:
		return fmt.Errorf("send queue depth must be non-negative: %d", o.SendQueue)
	case o.FlushEvery < 0:
		return fmt.Errorf("flush interval must be non-negative: %v", o.FlushEvery)
	case o.ConsensusRetry < 0:
		return fmt.Errorf("consensus retry must be non-negative: %v", o.ConsensusRetry)
	case o.Lanes < 0:
		return fmt.Errorf("lane count must be non-negative: %d", o.Lanes)
	case o.InboxSize < 0:
		return fmt.Errorf("inbox size must be non-negative: %d", o.InboxSize)
	case o.NoFsync && o.DataDir == "":
		return fmt.Errorf("fsync=off is meaningless without a data dir")
	case o.SnapshotEvery != 0 && o.DataDir == "":
		return fmt.Errorf("snapshot cadence is meaningless without a data dir")
	case o.ReadFraction < 0 || o.ReadFraction > 1:
		return fmt.Errorf("read fraction must be within [0,1]: %v", o.ReadFraction)
	case o.LeaseDuration < 0 || o.MaxClockSkew < 0:
		return fmt.Errorf("lease duration and clock skew must be non-negative: %v, %v", o.LeaseDuration, o.MaxClockSkew)
	case o.MaxClockSkew > 0 && o.LeaseDuration == 0:
		return fmt.Errorf("a clock-skew guard is meaningless without leases (set a lease duration)")
	case o.LeaseDuration > 0 && o.MaxClockSkew >= o.LeaseDuration:
		return fmt.Errorf("the clock-skew guard %v consumes the whole lease window %v", o.MaxClockSkew, o.LeaseDuration)
	case o.SpanBuf < 0:
		return fmt.Errorf("span buffer size must be non-negative: %d", o.SpanBuf)
	case o.CompressMin > 0 && o.CompressMin < wire.MinCompress:
		return fmt.Errorf("compression threshold %d is below one MTU (%d): compressing sub-packet payloads burns CPU for nothing", o.CompressMin, wire.MinCompress)
	}
	if _, err := ParseBandwidth(o.Bandwidth); err != nil {
		return err
	}
	if o.TelemetryAddr != "" {
		if err := ValidateTelemetryAddr(o.TelemetryAddr); err != nil {
			return err
		}
	}
	switch o.Consistency {
	case "", "ordered", "lease", "watermark":
	default:
		return fmt.Errorf("consistency must be ordered, lease, or watermark: %q", o.Consistency)
	}
	if o.Consistency == "lease" && o.LeaseDuration == 0 {
		return fmt.Errorf("lease-consistent reads need leader leases enabled (set a lease duration)")
	}
	return nil
}

func (o *Options) fill() {
	if o.Groups == 0 {
		o.Groups = 2
	}
	if o.PerGroup == 0 {
		o.PerGroup = 3
	}
	if o.Inter == 0 {
		o.Inter = 100 * time.Millisecond
	}
	if o.Intra == 0 {
		o.Intra = 1 * time.Millisecond
	}
	if o.DetMergeInterval == 0 {
		o.DetMergeInterval = 10 * time.Millisecond
	}
	if o.DetMergeStop == 0 {
		o.DetMergeStop = 5 * time.Second
	}
}

// System is one simulated run of one algorithm.
type System struct {
	Algo    Algo
	Opts    Options
	Topo    *types.Topology
	RT      *node.Runtime
	Col     *metrics.Collector
	Checker *check.Checker

	casters []caster
	crashed map[types.ProcessID]bool

	// Deliveries in global order.
	Deliveries []Delivery
}

// Delivery is one observed A-Deliver.
type Delivery struct {
	Process types.ProcessID
	ID      types.MessageID
	Payload any
	At      time.Duration
}

type caster interface {
	cast(payload any, dest types.GroupSet) types.MessageID
}

type castFunc func(payload any, dest types.GroupSet) types.MessageID

func (f castFunc) cast(payload any, dest types.GroupSet) types.MessageID { return f(payload, dest) }

// Build constructs a system running algo.
func Build(algo Algo, opts Options) *System {
	opts.fill()
	topo := types.NewTopology(opts.Groups, opts.PerGroup)
	col := &metrics.Collector{LogSends: opts.LogSends}
	model := network.Model{IntraGroup: opts.Intra, InterGroup: opts.Inter, Jitter: opts.Jitter,
		Bandwidth: opts.BandwidthBytes()}
	rt := node.NewRuntime(topo, model, opts.Seed, col)
	rt.Trace = opts.Trace
	rt.SetLanes(opts.Lanes)
	s := &System{
		Algo:    algo,
		Opts:    opts,
		Topo:    topo,
		RT:      rt,
		Col:     col,
		Checker: check.New(topo),
		casters: make([]caster, topo.N()),
		crashed: make(map[types.ProcessID]bool),
	}
	for _, id := range topo.AllProcesses() {
		id := id
		proc := rt.Proc(id)
		onDeliver := func(m rmcast.Message) { s.recordDelivery(id, m.ID, m.Payload) }
		onDeliverKV := func(mid types.MessageID, payload any) { s.recordDelivery(id, mid, payload) }
		switch algo {
		case AlgoA1:
			a := amcast.New(amcast.Config{
				Host: proc, Detector: rt.Oracle(), OnDeliver: onDeliver,
				SkipStages: true, ConsensusRetry: opts.ConsensusRetry,
				MaxBatch: opts.MaxBatch, Pipeline: opts.A1Pipeline,
			})
			s.casters[id] = castFunc(a.AMCast)
		case AlgoFritzke:
			a := baseline.NewFritzke(proc, rt.Oracle(), onDeliver, opts.ConsensusRetry)
			s.casters[id] = castFunc(a.AMCast)
		case AlgoA2:
			b := abcast.New(abcast.Config{
				Host: proc, Detector: rt.Oracle(), OnDeliver: onDeliverKV,
				ConsensusRetry: opts.ConsensusRetry, AlwaysOn: opts.A2AlwaysOn,
				KeepAliveRounds: opts.A2KeepAlive, Pipeline: opts.A2Pipeline,
				MaxBatch: opts.MaxBatch,
			})
			s.casters[id] = castFunc(func(payload any, dest types.GroupSet) types.MessageID {
				return b.ABCast(payload)
			})
		case AlgoSkeen:
			a := baseline.NewSkeen(baseline.SkeenConfig{Host: proc, OnDeliver: onDeliver})
			s.casters[id] = castFunc(a.AMCast)
		case AlgoDelporte:
			a := baseline.NewDelporte(baseline.DelporteConfig{
				Host: proc, Detector: rt.Oracle(), OnDeliver: onDeliver,
				ConsensusRetry: opts.ConsensusRetry,
			})
			s.casters[id] = castFunc(a.AMCast)
		case AlgoRodrigues:
			a := baseline.NewRodrigues(baseline.RodriguesConfig{Host: proc, OnDeliver: onDeliver})
			s.casters[id] = castFunc(a.AMCast)
		case AlgoDetMerge:
			a := baseline.NewDetMerge(baseline.DetMergeConfig{
				Host: proc, OnDeliver: onDeliver,
				Interval: opts.DetMergeInterval, StopAfter: opts.DetMergeStop,
			})
			s.casters[id] = castFunc(a.AMCast)
		case AlgoSousa, AlgoVicente:
			b := baseline.NewSeqBcast(baseline.SeqBcastConfig{
				Host: proc, OnDeliver: onDeliverKV, Uniform: algo == AlgoVicente,
			})
			s.casters[id] = castFunc(func(payload any, dest types.GroupSet) types.MessageID {
				return b.ABCast(payload)
			})
		default:
			panic(fmt.Sprintf("harness: unknown algorithm %q", algo))
		}
	}
	rt.Start()
	return s
}

func (s *System) recordDelivery(p types.ProcessID, id types.MessageID, payload any) {
	s.Checker.RecordDeliver(p, id)
	s.Deliveries = append(s.Deliveries, Delivery{Process: p, ID: id, Payload: payload, At: s.RT.Now()})
}

// IsBroadcast reports whether algo casts to all groups regardless of dest.
func (s *System) IsBroadcast() bool {
	return s.Algo == AlgoA2 || s.Algo == AlgoSousa || s.Algo == AlgoVicente
}

// Cast casts payload from process from to dest (broadcast algorithms
// ignore dest and address all groups) and registers it with the checker.
func (s *System) Cast(from types.ProcessID, payload any, dest types.GroupSet) types.MessageID {
	effective := dest
	if s.IsBroadcast() {
		effective = s.Topo.AllGroups()
	}
	id := s.casters[from].cast(payload, effective)
	s.Checker.RecordCast(id, effective)
	return id
}

// CastAt schedules a Cast at virtual time at.
func (s *System) CastAt(at time.Duration, from types.ProcessID, payload any, dest types.GroupSet) {
	s.RT.Scheduler().At(at, func() { s.Cast(from, payload, dest) })
}

// CrashAt schedules a crash-stop of p at virtual time at.
func (s *System) CrashAt(p types.ProcessID, at time.Duration) {
	s.crashed[p] = true
	s.RT.CrashAt(p, at)
}

// Chaos returns the scenario control surface of the simulated system:
// pass it to scenario.Apply before Run to schedule a fault script.
// Crashed victims are excluded from Check's correct-process set.
func (s *System) Chaos() scenario.Funcs {
	return scenario.SimFuncs(s.RT, func(p types.ProcessID) { s.crashed[p] = true })
}

// Run drains the event queue and returns the virtual end time.
func (s *System) Run() time.Duration {
	s.RT.Run()
	return s.RT.Now()
}

// RunUntil executes events up to the given virtual time.
func (s *System) RunUntil(t time.Duration) { s.RT.RunUntil(t) }

// Check returns the §2.2 property violations of the run so far.
func (s *System) Check() []string {
	correct := func(p types.ProcessID) bool { return !s.crashed[p] }
	correctCaster := func(id types.MessageID) bool { return !s.crashed[id.Origin] }
	return s.Checker.Check(correct, correctCaster)
}

// DegreeOf returns the measured latency degree of id.
func (s *System) DegreeOf(id types.MessageID) (int64, bool) { return s.Col.LatencyDegree(id) }
