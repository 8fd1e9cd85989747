package harness

import (
	"testing"
	"time"
)

// TestOptionsValidate: simulator option values that would panic deep
// inside a run are rejected up front, and defaultable zero values pass.
// Live cluster settings are covered by the root package's
// TestLiveConfigValidate.
func TestOptionsValidate(t *testing.T) {
	good := []Options{
		{},
		{Groups: 3, PerGroup: 3, Inter: time.Second, MaxBatch: 64, A1Pipeline: 4},
		{Bandwidth: "50mbit", Lanes: 4},
		{Bandwidth: "6.25MB/s"},
	}
	for i, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("good[%d]: unexpected error %v", i, err)
		}
	}
	bad := map[string]Options{
		"neg groups":         {Groups: -1},
		"neg pergroup":       {PerGroup: -2},
		"neg inter":          {Inter: -time.Second},
		"neg jitter":         {Jitter: -1},
		"neg maxbatch":       {MaxBatch: -1},
		"neg pipeline":       {A1Pipeline: -1},
		"neg keepalive":      {A2KeepAlive: -1},
		"neg retry":          {ConsensusRetry: -1},
		"neg lanes":          {Lanes: -1},
		"garbage bandwidth":  {Bandwidth: "fifty"},
		"bad bandwidth unit": {Bandwidth: "50parsecs"},
		"negative bandwidth": {Bandwidth: "-3mb"},
		"sub-byte bandwidth": {Bandwidth: "0.5bit"},
	}
	for name, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, o)
		}
	}
}
