package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wanamcast/internal/harness"
)

// sourceHash is a digest of the checkout's Go sources, set at build time
// by run.sh: a checkout that is not a git repository carries no commit in
// its build info, so that alone cannot name the code that was measured.
var sourceHash = "unknown"

// provenance describes what was measured on what: enough to tell a
// regression from a hardware or toolchain change.
func provenance(wl workload, seed int64, budget time.Duration, traced bool, scratch string, ports *portPlan) (string, error) {
	p := map[string]any{
		"workload":    wl.name,
		"seed":        seed,
		"seconds":     budget.Seconds(),
		"trace":       traced,
		"source_hash": sourceHash,
		"go_version":  runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":   cpuModel(),
		"kernel":      strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		"ports":       fmt.Sprintf("%d.. (ephemeral range starts at %d)", ports.next, ports.limit),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["dirty"] = s.Value == "true"
			}
		}
	}
	if _, ok := p["commit"]; !ok {
		p["commit"] = "unknown (not built from a git checkout)"
	}
	fsType, err := filesystemType(scratch)
	if err != nil {
		return "", err
	}
	p["wal_fs"] = fsType
	b, err := json.Marshal(p)
	return string(b), err
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// filesystemType names the filesystem holding dir — where live-a1 puts its
// write-ahead logs, so fsync cost depends on it.
func filesystemType(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n, nil
	}
	return fmt.Sprintf("0x%x", st.Type), nil
}

// portPlan hands out listen-port blocks below the kernel's ephemeral port
// range: the cluster's own outbound dials take ephemeral ports, and a
// listener inside that range can collide with them ("bind: address
// already in use"). Every cluster of a run gets a fresh block.
type portPlan struct {
	next, limit int
}

const portBase = 15000

func newPortPlan() (*portPlan, error) {
	raw, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	if err != nil {
		return nil, fmt.Errorf("read the ephemeral port range: %w", err)
	}
	fields := strings.Fields(string(raw))
	if len(fields) != 2 {
		return nil, fmt.Errorf("unexpected ip_local_port_range %q", raw)
	}
	lo, err := strconv.Atoi(fields[0])
	if err != nil {
		return nil, fmt.Errorf("unexpected ip_local_port_range %q: %w", raw, err)
	}
	next := portBase
	if lo-next < 2000 {
		next = lo - 2000
	}
	if next < 1024 {
		return nil, fmt.Errorf("the ephemeral port range starts at %d: no room for listeners below it", lo)
	}
	return &portPlan{next: next, limit: lo}, nil
}

// block reserves n consecutive ports and returns the first.
func (pp *portPlan) block(n int) (int, error) {
	base := pp.next
	if err := harness.ValidatePortRange(base, n); err != nil {
		return 0, err
	}
	if base+n > pp.limit {
		return 0, fmt.Errorf("ports %d..%d would reach the ephemeral range (from %d)", base, base+n-1, pp.limit)
	}
	pp.next += n
	return base, nil
}

// window measures the process's resource use over an interval.
type window struct {
	start   time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gc      gcCPU
}

// cost is what a window measured.
type cost struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	gcFrac         float64 // share of the runtime's busy CPU spent in GC
}

func openWindow() window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return window{start: time.Now(), cpu: processCPU(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gc: readGCCPU()}
}

func (w window) close() cost {
	end := time.Now()
	cpu := processCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := readGCCPU()
	c := cost{wall: end.Sub(w.start), cpu: cpu - w.cpu, mallocs: ms.Mallocs - w.mallocs, bytes: ms.TotalAlloc - w.bytes}
	if busy := gc.busy - w.gc.busy; busy > 0 {
		c.gcFrac = (gc.gc - w.gc.gc) / busy
	}
	return c
}

// processCPU is the process's user plus system CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPU is the Go runtime's own CPU accounting: GC time and all non-idle
// time, comparable only with each other.
type gcCPU struct{ gc, busy float64 }

func readGCCPU() gcCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	for _, x := range s {
		if x.Value.Kind() != metrics.KindFloat64 {
			return gcCPU{}
		}
	}
	return gcCPU{gc: s[0].Value.Float64(), busy: s[1].Value.Float64() - s[2].Value.Float64()}
}

// setCosts records the window's per-op costs.
func (o *outcome) setCosts(c cost, ops float64) {
	o.setRatio("cpu_ms_per_op", c.cpu.Seconds()*1e3, ops)
	o.setRatio("allocs_per_op", float64(c.mallocs), ops)
	o.set("runtime.gc_cpu_frac", c.gcFrac)
	o.setRatio("runtime.alloc_bytes_per_op", float64(c.bytes), ops)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB (10⁶ bytes).
func peakRSSMB() float64 {
	for _, line := range strings.Split(readFile("/proc/self/status"), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
