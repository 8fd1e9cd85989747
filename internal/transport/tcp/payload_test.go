package tcp

// Application payloads of a type with no wire codec ride the KindGob
// fallback inside an ordinary wire frame. These tests drive such a payload
// through the default transport's writer and reader, both as a lone plain
// frame and packed into a batch envelope, and through A2 to A-Delivery.

import (
	"encoding/gob"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"wanamcast/internal/abcast"
	"wanamcast/internal/node"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

// appPayload is an application struct with no wire codec; only this test
// file gob-registers it.
type appPayload struct {
	Key  string
	Vals []int
	Tags map[string]float64
}

func init() { gob.Register(appPayload{}) }

func mkPayload(i int) appPayload {
	return appPayload{
		Key:  fmt.Sprintf("key-%d", i),
		Vals: []int{i, i * i, -i},
		Tags: map[string]float64{"w": float64(i) / 4},
	}
}

// envelopeLog records every envelope a runtime reads: its wire size and
// the kind and size of each message it carried. A plain frame is an
// envelope of one message whose body spans the whole frame.
type envelopeLog struct {
	node.NopRecorder
	mu   sync.Mutex
	envs []envelopeIn
}

type envelopeIn struct {
	n     int
	kinds []wire.Kind
	sizes []int
}

func (e *envelopeLog) OnWireSend(byte, int)      {}
func (e *envelopeLog) OnWireFlush(int, int, int) {}
func (e *envelopeLog) OnWireEnvelopeIn(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.envs = append(e.envs, envelopeIn{n: n})
}
func (e *envelopeLog) OnWireRecv(kind byte, n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.envs) > 0 {
		last := &e.envs[len(e.envs)-1]
		last.kinds = append(last.kinds, wire.Kind(kind))
		last.sizes = append(last.sizes, n)
	}
}

// gobEnvelopes returns the envelopes read so far that carried gob values.
func (e *envelopeLog) gobEnvelopes() []envelopeIn {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []envelopeIn
	for _, env := range e.envs {
		for _, k := range env.kinds {
			if k == wire.KindGob {
				out = append(out, env)
				break
			}
		}
	}
	return out
}

func (env envelopeIn) plain() bool { return len(env.kinds) == 1 && env.sizes[0] == env.n-4 }

// TestGobPayloadPlainAndEnveloped sends codec-less payloads over one link
// of the default transport: a lone frame goes out plain, a burst queued in
// one loop turn goes out as a batch envelope, and the receiver gets every
// value intact either way. The receiving runtime hosts one process fed by
// one connection, so its envelope log is in wire order.
func TestGobPayloadPlainAndEnveloped(t *testing.T) {
	if k := wire.KindOf(appPayload{}); k != wire.KindGob {
		t.Fatalf("appPayload encodes as kind %d, want the gob fallback", k)
	}
	topo := types.NewTopology(1, 2)
	const basePort = 21910
	flush := 5 * time.Millisecond
	rec := &envelopeLog{}
	rtA := New(Config{Topo: topo, Local: []types.ProcessID{0}, BasePort: basePort, FlushEvery: flush})
	rtB := New(Config{Topo: topo, Local: []types.ProcessID{1}, BasePort: basePort, FlushEvery: flush, Recorder: rec})
	sink := &sinkProto{name: "t"}
	rtB.Proc(1).Register(sink)
	if err := rtB.Start(); err != nil {
		t.Fatal(err)
	}
	defer rtB.Stop()
	if err := rtA.Start(); err != nil {
		t.Fatal(err)
	}
	defer rtA.Stop()

	// Establish the link with basic-typed frames first: a frame sent while
	// the first dial is still backing off is legitimately dropped.
	waitFor(t, 5*time.Second, func() bool {
		rtA.Run(0, func() { rtA.Transmit(0, 1, "t", "warm", 0) })
		time.Sleep(5 * time.Millisecond)
		return sink.count() > 0
	})
	time.Sleep(4 * flush) // let stray warm-up frames land before the reset
	sink.mu.Lock()
	sink.got = nil
	sink.mu.Unlock()

	const burst = 8
	want := []any{mkPayload(0)}
	rtA.Run(0, func() { rtA.Transmit(0, 1, "t", want[0], 0) })
	waitFor(t, 5*time.Second, func() bool { return sink.count() == 1 })
	rtA.Run(0, func() {
		for i := 1; i <= burst; i++ {
			rtA.Transmit(0, 1, "t", mkPayload(i), 0)
		}
	})
	for i := 1; i <= burst; i++ {
		want = append(want, mkPayload(i))
	}
	waitFor(t, 5*time.Second, func() bool { return sink.count() == len(want) })

	sink.mu.Lock()
	got := append([]any(nil), sink.got...)
	sink.mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("payloads did not survive the wire:\n got  %#v\n want %#v", got, want)
	}
	// The writer may pick up the burst's first frame before the rest are
	// queued, so only require that some envelope after the lone frame
	// carried several of them.
	envs := rec.gobEnvelopes()
	if len(envs) < 2 || !envs[0].plain() {
		t.Fatalf("envelopes carrying gob values = %+v, want a lone plain frame first", envs)
	}
	batched := false
	for _, env := range envs[1:] {
		batched = batched || len(env.kinds) >= 2
	}
	if !batched {
		t.Fatalf("envelopes carrying gob values = %+v, want one carrying several", envs)
	}
}

// TestGobPayloadADelivered: codec-less payloads are A-Delivered intact at
// every process over the default transport, for a lone cast on an idle
// cluster and for a burst cast in one loop turn (whose rmcast frames share
// envelopes).
func TestGobPayloadADelivered(t *testing.T) {
	topo := types.NewTopology(2, 2)
	rt := New(Config{Topo: topo, BasePort: 21900, WANDelay: 10 * time.Millisecond})
	var mu sync.Mutex
	got := make(map[types.ProcessID][]any)
	eps := make([]*abcast.Bcast, topo.N())
	for _, id := range topo.AllProcesses() {
		id := id
		eps[id] = abcast.New(abcast.Config{
			Host:     rt.Proc(id),
			Detector: rt.Detector(id),
			OnDeliver: func(_ types.MessageID, p any) {
				mu.Lock()
				got[id] = append(got[id], p)
				mu.Unlock()
			},
		})
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	delivered := func(n int) func() bool {
		return func() bool {
			mu.Lock()
			defer mu.Unlock()
			for _, p := range topo.AllProcesses() {
				if len(got[p]) < n {
					return false
				}
			}
			return true
		}
	}
	want := []any{mkPayload(0)}
	rt.Run(0, func() { eps[0].ABCast(want[0]) })
	waitFor(t, 10*time.Second, delivered(1))
	const burst = 16
	rt.Run(0, func() {
		for i := 1; i <= burst; i++ {
			eps[0].ABCast(mkPayload(i))
		}
	})
	for i := 1; i <= burst; i++ {
		want = append(want, mkPayload(i))
	}
	waitFor(t, 10*time.Second, delivered(len(want)))

	// A2 orders the burst but need not keep its cast order: every process
	// must deliver the same sequence, holding each payload intact.
	mu.Lock()
	defer mu.Unlock()
	for _, p := range topo.AllProcesses() {
		if !reflect.DeepEqual(got[p], got[0]) {
			t.Fatalf("process %v delivered %#v, process 0 %#v", p, got[p], got[0])
		}
	}
	byKey := func(s []any) []any {
		s = append([]any(nil), s...)
		sort.Slice(s, func(i, j int) bool { return s[i].(appPayload).Key < s[j].(appPayload).Key })
		return s
	}
	if g, w := byKey(got[0]), byKey(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("delivered payloads %#v, want %#v", g, w)
	}
}
