package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"wanamcast/internal/types"
)

// Span names: one per boundary the traced run times from outside the
// program. Each is a call into a layer, or the interval between two
// observable events of one message or client op.
const (
	spanSimRun        = "sim.run"        // Runtime.Run of one simulated rep
	spanSimCast       = "sim.cast"       // System.Cast: the protocol's cast step
	spanLiveOp        = "live.op"        // one message: due time → last addressee's delivery
	spanGenLate       = "gen.late"       // due time → the generator's Multicast call
	spanGenCastCall   = "gen.cast_call"  // LiveCluster.Multicast: loop hand-off + A1 cast step
	spanOrderFirst    = "order.first"    // Multicast return → first addressee's delivery
	spanOrderFanin    = "order.fanin"    // first → last addressee's delivery
	spanStorageAppend = "storage.append" // Store.Append
	spanStorageCommit = "storage.commit" // Store.Commit (the fsync barrier)
	spanKVWrite       = "kv.write"       // client Put: call → reply
	spanKVRead        = "kv.read"        // client lease read: call → reply
	spanSvcSubmit     = "svc.submit"     // the server's Multicast call
	spanSvcOrder      = "svc.order"      // submit return → delivery at the submitting replica
	spanSvcApply      = "svc.apply"      // StateMachine.Apply at the submitting replica
	spanSvcQuery      = "svc.query"      // QueryMachine.Query of a lease read
)

// selfTimed lists the spans whose self time the traced run reports, in
// print order.
var selfTimed = []string{
	spanSimRun, spanSimCast,
	spanGenLate, spanGenCastCall, spanOrderFirst, spanOrderFanin,
	spanStorageAppend, spanStorageCommit,
	spanKVWrite, spanKVRead, spanSvcSubmit, spanSvcOrder, spanSvcApply, spanSvcQuery,
}

// spanKey is what the spans of one unit of work share: a message's
// MessageID, a KV op's (session, seq) pair, or the process a storage call
// ran on.
type spanKey struct {
	kind byte // 'm' message, 'w' KV write, 'r' KV read, 'p' process, 0 none
	a, b uint64
}

func msgKey(id types.MessageID) spanKey { return spanKey{'m', uint64(id.Origin), id.Seq} }
func procKey(p types.ProcessID) spanKey { return spanKey{'p', uint64(p), 0} }

func (k spanKey) String() string {
	switch k.kind {
	case 'm':
		return fmt.Sprintf("msg p%d:%d", k.a, k.b)
	case 'w':
		return fmt.Sprintf("write s%d:%d", k.a, k.b)
	case 'r':
		return fmt.Sprintf("read s%d:%d", k.a, k.b)
	case 'p':
		return fmt.Sprintf("proc p%d", k.a)
	}
	return ""
}

type span struct {
	name       string
	key        spanKey
	start, end int64 // ns since the log's epoch
	parent     int32 // index of the parent span, -1 for a root
}

// spanLog keeps a run's spans in memory; they are written out once, when
// the run ends. A nil *spanLog records nothing, so untraced runs pay one
// nil check per boundary. Safe for concurrent use.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records one span and returns its index (-1 on a nil log).
func (l *spanLog) add(name string, key spanKey, parent int32, start, end time.Time) int32 {
	if l == nil {
		return -1
	}
	s := span{name: name, key: key, start: int64(start.Sub(l.epoch)), end: int64(end.Sub(l.epoch)), parent: parent}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, s)
	return int32(len(l.spans) - 1)
}

// finish sets the end of span i (a no-op on a nil log).
func (l *spanLog) finish(i int32, end time.Time) {
	if l == nil || i < 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].end = int64(end.Sub(l.epoch))
}

// adopt makes every root span named one of children a child of the span
// named root that shares its key — for spans recorded inside the program's
// calls before the client-side span that encloses them is known.
func (l *spanLog) adopt(root string, children ...string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	roots := make(map[spanKey]int32)
	for i, s := range l.spans {
		if s.name == root {
			roots[s.key] = int32(i)
		}
	}
	for i := range l.spans {
		s := &l.spans[i]
		if s.parent >= 0 {
			continue
		}
		for _, c := range children {
			if s.name == c {
				if r, ok := roots[s.key]; ok {
					s.parent = r
				}
				break
			}
		}
	}
}

// named returns the spans named name.
func (l *spanLog) named(name string) []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []span
	for _, s := range l.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// within returns the spans named name that start inside [from, to).
func (l *spanLog) within(name string, from, to time.Time) []span {
	lo, hi := int64(from.Sub(l.epoch)), int64(to.Sub(l.epoch))
	var out []span
	for _, s := range l.named(name) {
		if s.start >= lo && s.start < hi {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of spans, in the given unit.
func durations(spans []span, unit time.Duration) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.end-s.start) / float64(unit)
	}
	return out
}

// selfTimes returns, per span name, the summed self time in nanoseconds
// of the spans starting inside [from, to) — every span when both are
// zero: each span's duration minus the part of it its child spans cover.
func (l *spanLog) selfTimes(from, to time.Time) map[string]int64 {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	if !from.IsZero() {
		lo, hi = int64(from.Sub(l.epoch)), int64(to.Sub(l.epoch))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make([][]int32, len(l.spans))
	for i, s := range l.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make(map[string]int64)
	var ivs [][2]int64
	for i, s := range l.spans {
		if s.start < lo || s.start >= hi {
			continue
		}
		ivs = ivs[:0]
		for _, c := range children[i] {
			cs := l.spans[c]
			lo, hi := max(cs.start, s.start), min(cs.end, s.end)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		self[s.name] += (s.end - s.start) - covered(ivs)
	}
	return self
}

// covered returns the total length of the union of intervals (reordered
// in place).
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64
	for i, iv := range ivs {
		if i == 0 || iv[0] > end {
			total += iv[1] - iv[0]
			end = iv[1]
		} else if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// writeJSONL writes every span as one JSON object per line.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i, s := range l.spans {
		if err := enc.Encode(struct {
			ID      int    `json:"id"`
			Name    string `json:"name"`
			Key     string `json:"key,omitempty"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
			Parent  int32  `json:"parent"`
		}{i, s.name, s.key.String(), s.start, s.end, s.parent}); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
