package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestParseShape(t *testing.T) {
	good := map[string]Shape{
		"200x5":  {Groups: 200, PerGroup: 5},
		" 50x3 ": {Groups: 50, PerGroup: 3},
		"1x1":    {Groups: 1, PerGroup: 1},
	}
	for spec, want := range good {
		got, err := ParseShape(spec)
		if err != nil {
			t.Fatalf("ParseShape(%q): %v", spec, err)
		}
		if got != want {
			t.Fatalf("ParseShape(%q) = %v, want %v", spec, got, want)
		}
	}
	for _, spec := range []string{"", "200", "x5", "200x", "0x3", "3x0", "-1x3", "3x-1", "axb", "3x3x3"} {
		if _, err := ParseShape(spec); err == nil {
			t.Fatalf("ParseShape(%q) accepted a bad shape", spec)
		}
	}
}

func TestParseSweep(t *testing.T) {
	shapes, err := ParseSweep("4x3,50x3,200x5")
	if err != nil {
		t.Fatal(err)
	}
	want := []Shape{{4, 3}, {50, 3}, {200, 5}}
	if len(shapes) != len(want) {
		t.Fatalf("got %d shapes, want %d", len(shapes), len(want))
	}
	for i := range want {
		if shapes[i] != want[i] {
			t.Fatalf("shape %d = %v, want %v", i, shapes[i], want[i])
		}
	}
	if _, err := ParseSweep("4x3,,50x3"); err == nil {
		t.Fatal("ParseSweep accepted an empty element")
	}
}

// TestRunScaleSweepMeasures smokes one small sweep point end to end: the
// run must execute events, report a positive throughput and wall clock,
// and pass the §2.2 property checks.
func TestRunScaleSweepMeasures(t *testing.T) {
	pts := RunScaleSweep(AlgoA1, Options{
		Inter: 20 * time.Millisecond, Intra: time.Millisecond, Seed: 1,
	}, []Shape{{Groups: 3, PerGroup: 3}}, 10)
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1", len(pts))
	}
	p := pts[0]
	if p.Events == 0 || p.EventsPerSec <= 0 || p.Wall <= 0 {
		t.Fatalf("sweep point measured nothing: %+v", p)
	}
	if p.Violations != 0 {
		t.Fatalf("sweep run violated ordering properties: %+v", p)
	}
	rec := p.BenchRecord("sim-sweep-a1", 1)
	if rec.Topology != "3x3" || rec.Events != p.Events || rec.Seed != 1 {
		t.Fatalf("bench record mismatch: %+v", rec)
	}

	// The appended record carries its provenance: BENCH_sim.json sweep
	// records once stored cores: 0.
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := AppendBenchJSON(path, rec); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []BenchResult
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Cores <= 0 {
		t.Fatalf("appended sweep record lacks a core count: %s", data)
	}
}

// BenchmarkSimScale reports the simulation runtime's whole-run throughput
// at the sweep's canonical shapes. b.N counts casts; custom metrics carry
// what the sweep table prints: events/s and allocs/event.
func BenchmarkSimScale(b *testing.B) {
	for _, sh := range []Shape{{4, 3}, {50, 3}, {200, 5}} {
		b.Run(sh.String(), func(b *testing.B) {
			opts := Options{Inter: 100 * time.Millisecond, Intra: time.Millisecond,
				Jitter: 10 * time.Millisecond, Seed: 1}
			b.ReportAllocs()
			b.ResetTimer()
			pts := RunScaleSweep(AlgoA1, opts, []Shape{sh}, b.N)
			b.StopTimer()
			p := pts[0]
			b.ReportMetric(p.EventsPerSec, "events/s")
			b.ReportMetric(p.AllocsPerEvent, "allocs/event")
			b.ReportMetric(float64(p.Events)/float64(b.N), "events/cast")
		})
	}
}
