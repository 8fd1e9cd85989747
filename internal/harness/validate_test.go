package harness

import (
	"testing"
	"time"
)

// TestOptionsValidate: option values that would panic deep inside a run
// are rejected up front, and defaultable zero values pass.
func TestOptionsValidate(t *testing.T) {
	good := []Options{
		{},
		{Groups: 3, PerGroup: 3, Inter: time.Second, MaxBatch: 64, A1Pipeline: 4},
		{DataDir: "/tmp/x", NoFsync: true, SnapshotEvery: 128},
		{DataDir: "/tmp/x", SnapshotEvery: -1}, // negative = snapshots off
		{Bandwidth: "50mbit", CompressMin: 4096},
		{Bandwidth: "6.25MB/s"},
		{CompressMin: -1}, // negative = compression off
	}
	for i, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("good[%d]: unexpected error %v", i, err)
		}
	}
	bad := map[string]Options{
		"neg groups":            {Groups: -1},
		"neg pergroup":          {PerGroup: -2},
		"neg inter":             {Inter: -time.Second},
		"neg jitter":            {Jitter: -1},
		"neg maxbatch":          {MaxBatch: -1},
		"neg pipeline":          {A1Pipeline: -1},
		"neg keepalive":         {A2KeepAlive: -1},
		"neg sendqueue":         {SendQueue: -1},
		"neg flush":             {FlushEvery: -time.Millisecond},
		"neg retry":             {ConsensusRetry: -1},
		"nofsync w/o datadir":   {NoFsync: true},
		"snapshots w/o datadir": {SnapshotEvery: 64},
		"garbage bandwidth":     {Bandwidth: "fifty"},
		"bad bandwidth unit":    {Bandwidth: "50parsecs"},
		"negative bandwidth":    {Bandwidth: "-3mb"},
		"sub-byte bandwidth":    {Bandwidth: "0.5bit"},
		"compressmin below MTU": {CompressMin: 512},
	}
	for name, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, o)
		}
	}
}
