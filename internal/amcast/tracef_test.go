package amcast

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wanamcast/internal/network"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
)

// TestDisarmedDeliverCostsNothing pins the debug-trace guard on A1's
// A-Deliver: with no trace sink the Tracef call must not box its
// arguments, so a repeated delivery allocates nothing. Armed, the line
// still comes out.
func TestDisarmedDeliverCostsNothing(t *testing.T) {
	topo := types.NewTopology(1, 1)
	rt := node.NewRuntime(topo, network.Model{IntraGroup: time.Millisecond}, 1, nil)
	a := New(Config{Host: rt.Proc(0), Detector: rt.Oracle(), SkipStages: true})
	rt.Start()
	rec := DeliverRec{ID: types.MessageID{Origin: 0, Seq: 1000}, Dest: topo.AllGroups(), TS: 1 << 20}
	// Fill the catch-up archive past its bound, so its trims stop growing it.
	for i := 0; i < 10000; i++ {
		a.deliver(rec, false)
	}
	if allocs := testing.AllocsPerRun(1000, func() { a.deliver(rec, false) }); allocs != 0 {
		t.Fatalf("disarmed A-Deliver allocated %.2f times per delivery, want 0", allocs)
	}

	var lines []string
	rt.Trace = func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	a.deliver(rec, false)
	want := fmt.Sprintf("a1: A-Deliver %v ts=%d", rec.ID, rec.TS)
	if len(lines) != 1 || !strings.HasSuffix(lines[0], want) {
		t.Fatalf("armed A-Deliver traced %q, want one line ending %q", lines, want)
	}
}
