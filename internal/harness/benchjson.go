package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"

	"wanamcast/internal/metrics"
)

// BenchResult is one machine-readable benchmark record — the lane-scaling
// sweeps append one per configuration to a JSON array file (BENCH_lanes.json
// by convention), so the scaling table in EXPERIMENTS.md can be regenerated
// from data instead of transcribed.
type BenchResult struct {
	Name     string `json:"name"`     // benchmark identifier, e.g. "live-kv"
	Topology string `json:"topology"` // "GxP", e.g. "8x3"
	Lanes    int    `json:"lanes"`    // configured lane count (0 = per-process)
	Cores    int    `json:"cores"`    // runtime.NumCPU(); AppendBenchJSON stamps it
	Casts    int    `json:"casts"`    // messages offered

	OrderedPerSec float64 `json:"ordered_per_sec"` // A-Deliveries/s at one process
	P50Ms         float64 `json:"p50_ms"`          // wall cast→deliver latency
	P99Ms         float64 `json:"p99_ms"`

	// Wire-traffic accounting (zero when the run recorded no wire stats).
	WireBytesPerOp   float64 `json:"wire_bytes_per_op,omitempty"` // wire bytes out / ordered message
	WireBytesOut     uint64  `json:"wire_bytes_out,omitempty"`    // total wire bytes written
	FramesPerWrite   float64 `json:"frames_per_write,omitempty"`  // protocol messages / envelope write
	CompressionRatio float64 `json:"compression_ratio,omitempty"` // raw/compressed payload over compressed envelopes
	Bandwidth        string  `json:"bandwidth,omitempty"`         // configured per-link cap, ParseBandwidth form

	// Simulation scale-sweep accounting (zero on live runs): throughput
	// and allocation behavior of the discrete-event runtime itself at one
	// topology shape (see RunScaleSweep / wansim -sweep).
	Events         uint64  `json:"events,omitempty"`           // scheduler events executed
	EventsPerSec   float64 `json:"events_per_sec,omitempty"`   // events / wall second
	AllocsPerEvent float64 `json:"allocs_per_event,omitempty"` // heap allocations / event
	WallMS         float64 `json:"wall_ms,omitempty"`          // whole-run wall clock
	PeakHeapBytes  uint64  `json:"peak_heap_bytes,omitempty"`  // max observed live heap
	Seed           int64   `json:"seed,omitempty"`             // simulation seed

	// Read-tier accounting (zero on write-only runs).
	ReadFraction float64 `json:"read_fraction,omitempty"` // offered read share in [0,1]
	Consistency  string  `json:"consistency,omitempty"`   // read mode: ordered, lease, or watermark
	Reads        int     `json:"reads,omitempty"`         // reads completed
	ReadsPerSec  float64 `json:"reads_per_sec,omitempty"`
	StaleReads   uint64  `json:"stale_reads,omitempty"`  // follower replies rejected by the watermark barrier
	LeaseDenied  uint64  `json:"lease_denied,omitempty"` // lease reads refused (no valid lease at the replica)
	// ByClass carries per-class latency percentiles in milliseconds, keyed
	// "read-lease" / "read-watermark" / "read-ordered" / "write", each as
	// {"p50": ..., "p99": ...}.
	ByClass map[string]map[string]float64 `json:"by_class,omitempty"`

	// Stage-latency breakdown from the lifecycle tracer (omitted on
	// untraced runs): per-stage percentiles in milliseconds, keyed by
	// stage name ("enqueue", "promise", "order", "reply", ...), each as
	// {"p50": ..., "p99": ...}.
	Stages map[string]map[string]float64 `json:"stages,omitempty"`
	// WanHops counts delivered messages by measured latency degree Δ
	// (WAN hops), keyed by Δ as a decimal string: {"2": 1000} for a pure
	// A1 run, {"1": ...} for warm A2 broadcasts.
	WanHops map[string]int `json:"wan_hops,omitempty"`

	// Durability accounting (zero without a durable store).
	Fsyncs         uint64  `json:"fsyncs"`           // total fsyncs across stores
	GCBarriers     uint64  `json:"gc_barriers"`      // barriers staged through group commit
	GCWindows      uint64  `json:"gc_windows"`       // group-commit windows executed
	BatchesDecided uint64  `json:"batches_decided"`  // consensus batches ordered
	FsyncsPerBatch float64 `json:"fsyncs_per_batch"` // Fsyncs / BatchesDecided

	StartedAt string `json:"started_at"` // RFC 3339, informational
}

// SetWire fills the wire-traffic fields from a recorded WireStats
// snapshot. Runs with no wire accounting (sim without bandwidth modeling)
// leave the fields zero so JSON omits them. WireBytesPerOp divides by
// Casts, so set Casts first.
func (r *BenchResult) SetWire(w metrics.WireStats, bandwidth string) {
	if w.BytesOut == 0 {
		return
	}
	r.WireBytesOut = w.BytesOut
	if r.Casts > 0 {
		r.WireBytesPerOp = float64(w.BytesOut) / float64(r.Casts)
	}
	r.FramesPerWrite = w.FramesPerEnvelope()
	r.CompressionRatio = w.CompressionRatio()
	r.Bandwidth = bandwidth
}

// StageBreakdown converts the tracer's per-stage summaries into the
// BenchResult.Stages map (milliseconds). Stages with no samples are
// dropped; an empty result returns nil so the JSON field is omitted.
func StageBreakdown(sums []metrics.StageSummary) map[string]map[string]float64 {
	var out map[string]map[string]float64
	for _, s := range sums {
		if s.Count == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]map[string]float64, len(sums))
		}
		out[s.Name] = map[string]float64{
			"p50": float64(s.P50.Microseconds()) / 1e3,
			"p99": float64(s.P99.Microseconds()) / 1e3,
		}
	}
	return out
}

// WanHopHist converts a measured latency-degree histogram (metrics.Stats.
// DegreeHist) into the BenchResult.WanHops map. Nil in, nil out.
func WanHopHist(h map[int64]int) map[string]int {
	if len(h) == 0 {
		return nil
	}
	out := make(map[string]int, len(h))
	for d, n := range h {
		out[strconv.FormatInt(d, 10)] = n
	}
	return out
}

// AppendBenchJSON appends r to the JSON array in path, creating the file
// if needed, and stamps r's provenance (Cores) so no emitter can omit it.
// The whole array is rewritten (these files hold dozens of records, not
// millions), so the file is always a valid JSON document.
func AppendBenchJSON(path string, r BenchResult) error {
	r.Cores = runtime.NumCPU()
	var results []BenchResult
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if len(data) > 0 {
			if err := json.Unmarshal(data, &results); err != nil {
				return fmt.Errorf("benchjson: %s holds something other than a BenchResult array: %w", path, err)
			}
		}
	case os.IsNotExist(err):
		// First record: start a fresh array.
	default:
		return fmt.Errorf("benchjson: read %s: %w", path, err)
	}
	results = append(results, r)
	out, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
