package wanamcast

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wanamcast/internal/harness"
	"wanamcast/internal/storage"
)

// TestLiveConfigValidate: every live setting a cluster cannot run as
// configured is rejected, judged after defaults are applied, and
// defaultable zero values pass.
func TestLiveConfigValidate(t *testing.T) {
	mem := func(ProcessID) storage.Store { return storage.NewMem() }
	good := map[string]LiveConfig{
		"zero":               {},
		"shaped":             {Groups: 3, PerGroup: 3, WANDelay: time.Second, MaxBatch: 64, Pipeline: 4, Lanes: 2},
		"durable":            {DataDir: "/tmp/x", NoFsync: true, SnapshotEvery: 128},
		"snapshots off":      {DataDir: "/tmp/x", SnapshotEvery: -1},
		"store snapshots":    {StoreFor: mem, SnapshotEvery: 64},
		"capped":             {Bandwidth: 6_250_000, CompressMin: 4096},
		"compression off":    {CompressMin: -1},
		"lease":              {LeaseDuration: 250 * time.Millisecond},
		"lease and skew":     {LeaseDuration: 100 * time.Millisecond, MaxClockSkew: 20 * time.Millisecond},
		"fast detector":      {HeartbeatEvery: 10 * time.Millisecond, SuspectAfter: 60 * time.Millisecond},
		"traced flight dump": {TraceSpans: true, SpanBuf: 512, FlightDump: "/tmp/flight.jsonl"},
	}
	for name, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: unexpected error %v", name, err)
		}
	}
	bad := map[string]LiveConfig{
		"neg groups":            {Groups: -1},
		"neg pergroup":          {PerGroup: -2},
		"neg wan":               {WANDelay: -time.Second},
		"neg lan":               {LANDelay: -1},
		"neg maxbatch":          {MaxBatch: -1},
		"neg pipeline":          {Pipeline: -1},
		"neg retry":             {ConsensusRetry: -1},
		"neg lanes":             {Lanes: -1},
		"neg spanbuf":           {SpanBuf: -5},
		"neg bandwidth":         {Bandwidth: -3},
		"neg retain":            {RetainDeliveries: -1},
		"compressmin below MTU": {CompressMin: 512},
		"nofsync w/o datadir":   {NoFsync: true},
		"nofsync with store":    {StoreFor: mem, NoFsync: true},
		"snapshots w/o datadir": {SnapshotEvery: 64},
		"neg lease":             {LeaseDuration: -time.Millisecond},
		"neg skew":              {LeaseDuration: time.Second, MaxClockSkew: -1},
		"skew w/o lease":        {MaxClockSkew: 5 * time.Millisecond},
		"skew eats lease":       {LeaseDuration: 20 * time.Millisecond, MaxClockSkew: 20 * time.Millisecond},
		"lease <= default skew": {LeaseDuration: 5 * time.Millisecond},
		"heartbeat >= suspect":  {SuspectAfter: 40 * time.Millisecond},
		"neg heartbeat":         {HeartbeatEvery: -time.Millisecond},
		"flight dump untraced":  {FlightDump: "/tmp/flight.jsonl"},
	}
	for name, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, c)
		}
	}
}

// TestBadLiveConfigStartFails: a cluster built from an invalid config, or
// over a data directory that cannot be opened, reports the error from
// Start without binding a port (and without panicking), and its Stop is
// a no-op.
func TestBadLiveConfigStartFails(t *testing.T) {
	const port = 31950
	l := NewLiveCluster(LiveConfig{Groups: 1, PerGroup: 1, BasePort: port, LeaseDuration: 5 * time.Millisecond})
	if err := l.Start(); err == nil || !strings.Contains(err.Error(), "lease") {
		t.Fatalf("Start of a 5 ms lease under the default 10 ms skew: err = %v, want the lease error", err)
	}
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		t.Fatalf("the refused cluster holds its port: %v", err)
	}
	ln.Close()
	l.Stop()

	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l = NewLiveCluster(LiveConfig{Groups: 1, PerGroup: 1, BasePort: port, DataDir: file})
	if err := l.Start(); err == nil {
		t.Fatal("Start over an unopenable data dir succeeded")
	}
	l.Stop()
}

// TestHealthzReportsFaults: /healthz answers ok on a clean cluster and
// 503 once CheckProperties has found a §2.2 violation or a state
// transfer was abandoned. The cluster is never started, so no cluster
// port is bound.
func TestHealthzReportsFaults(t *testing.T) {
	l := NewLiveCluster(LiveConfig{Groups: 2, PerGroup: 3, BasePort: 1, Check: true})
	defer l.Stop()
	srv, err := harness.ServeTelemetry("127.0.0.1:0", l.TelemetrySource("test", nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	healthz := func() (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if v := l.CheckProperties(); len(v) != 0 {
		t.Fatalf("fresh cluster reports violations: %v", v)
	}
	if code, body := healthz(); code != http.StatusOK {
		t.Fatalf("clean cluster: /healthz %d %q, want 200", code, body)
	}

	// Forge a delivery of a message that was never cast: uniform
	// integrity fails.
	l.mu.Lock()
	l.checker.RecordDeliver(l.Topology().AllProcesses()[0], MessageID{Origin: 99, Seq: 999})
	l.mu.Unlock()
	if v := l.CheckProperties(); len(v) == 0 {
		t.Fatal("injected violation not detected")
	}
	if code, body := healthz(); code != http.StatusServiceUnavailable || !strings.Contains(body, "violation") {
		t.Fatalf("after a violation: /healthz %d %q, want 503 naming the violation", code, body)
	}

	l.syncFailed("a1 state transfer abandoned at p0")
	if code, body := healthz(); code != http.StatusServiceUnavailable || !strings.Contains(body, "state transfer") {
		t.Fatalf("after a failed sync: /healthz %d %q, want 503 naming it", code, body)
	}
}
