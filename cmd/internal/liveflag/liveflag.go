// Package liveflag declares the flags the live commands (wansim, wankv,
// wanchaos) share, so each is declared, defaulted and checked in one
// place. The values land in a wanamcast.LiveConfig, whose Validate is the
// one judge of which live settings are legal.
package liveflag

import (
	"flag"
	"fmt"

	"wanamcast"
	"wanamcast/internal/harness"
)

// Flags holds the shared flags after parsing: the topology, ordering and
// tracing settings of a live cluster, plus the telemetry address and the
// profile outputs, which belong to the command rather than the cluster.
type Flags struct {
	Config       wanamcast.LiveConfig
	Telemetry    string
	CPUProfile   string
	MemProfile   string
	MutexProfile string
}

// Register declares -groups -d -port -maxbatch -pipeline -lanes
// -telemetry -spanbuf -flightdump -cpuprofile -memprofile -mutexprofile
// on fs. def holds the command's defaults for the config-backed flags.
func Register(fs *flag.FlagSet, def wanamcast.LiveConfig) *Flags {
	f := &Flags{Config: def}
	c := &f.Config
	fs.IntVar(&c.Groups, "groups", def.Groups, "number of groups (shards)")
	fs.IntVar(&c.PerGroup, "d", def.PerGroup, "processes (replicas) per group")
	fs.IntVar(&c.BasePort, "port", def.BasePort, "live cluster base TCP port (process p listens on port+p)")
	fs.IntVar(&c.MaxBatch, "maxbatch", def.MaxBatch, "max messages per consensus instance (0 = unbounded, the paper's rule)")
	fs.IntVar(&c.Pipeline, "pipeline", def.Pipeline, "consensus instances/rounds in flight (1 = the paper's sequential engine)")
	fs.IntVar(&c.Lanes, "lanes", def.Lanes, "ordering lanes: shard processes across this many goroutines by group (0 = one per process); sim runs only account lanes")
	fs.StringVar(&f.Telemetry, "telemetry", "", "live runs: serve /metrics, /spans, and /healthz on this host:port (empty = off); enables lifecycle tracing")
	fs.IntVar(&c.SpanBuf, "spanbuf", def.SpanBuf, "live runs: per-lane lifecycle span ring size (0 = default 4096; >0 enables tracing)")
	fs.StringVar(&c.FlightDump, "flightdump", def.FlightDump, "live runs: dump recent spans as JSONL here on a property violation, failed state transfer, or restart; enables tracing")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile (post-GC, live objects) to this file")
	fs.StringVar(&f.MutexProfile, "mutexprofile", "", "write a mutex-contention profile to this file")
	return f
}

// Tracing reports whether the flags ask for lifecycle span tracing: the
// telemetry plane, a span buffer size, or a flight dump path each do.
func (f *Flags) Tracing() bool {
	return f.Telemetry != "" || f.Config.SpanBuf > 0 || f.Config.FlightDump != ""
}

// Live returns the parsed live config, with tracing on when a tracing
// flag asks for it. The command adds its own settings, then passes the
// result to Validate.
func (f *Flags) Live() wanamcast.LiveConfig {
	c := f.Config
	c.TraceSpans = f.Tracing()
	return c
}

// Validate checks what the shared flags demand beyond cfg.Validate — a
// whole topology (a flag has no "0 means default"), at least one
// consensus instance in flight, and a listenable telemetry address —
// then cfg, the command's complete live config, itself.
func (f *Flags) Validate(cfg wanamcast.LiveConfig) error {
	switch {
	case cfg.Groups < 1 || cfg.PerGroup < 1:
		return fmt.Errorf("-groups and -d must be at least 1 (got %d x %d)", cfg.Groups, cfg.PerGroup)
	case cfg.Pipeline < 1:
		return fmt.Errorf("-pipeline must be at least 1 (got %d)", cfg.Pipeline)
	}
	if f.Telemetry != "" {
		if err := harness.ValidateTelemetryAddr(f.Telemetry); err != nil {
			return err
		}
	}
	return cfg.Validate()
}
