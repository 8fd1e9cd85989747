package main

import (
	"sync"
	"sync/atomic"
	"time"

	"wanamcast/internal/storage"
	"wanamcast/internal/svc"
	"wanamcast/internal/types"
)

// The traced run times calls into the storage and svc layers by wrapping
// the values the program is handed at its public seams
// (LiveConfig.StoreFor, svc.ServeCluster, ServiceConfig.NewMachine). Each
// wrapper forwards every call unchanged; only the timing is added.

// timedStore is a disk store whose Append and Commit are recorded as
// spans. Embedding the SyncStore forwards Flush, Sync, Maintain and
// Fsyncs, so FsyncStats and group commit see the store unchanged.
type timedStore struct {
	storage.SyncStore
	proc  types.ProcessID
	spans *spanLog
}

func (s *timedStore) Append(rec storage.Record) error {
	t := time.Now()
	err := s.SyncStore.Append(rec)
	s.spans.add(spanStorageAppend, procKey(s.proc), -1, t, time.Now())
	return err
}

func (s *timedStore) Commit() error {
	t := time.Now()
	err := s.SyncStore.Commit()
	s.spans.add(spanStorageCommit, procKey(s.proc), -1, t, time.Now())
	return err
}

// kvKey is the span key of a KV write: the (session, seq) pair its
// svc.Command carries.
func kvKey(session, seq uint64) spanKey { return spanKey{'w', session, seq} }

// timedCluster is the svc.Cluster the traced kv-lease run hands to
// svc.ServeCluster. It times each server's Multicast call (svc.submit) and
// the wait from its return to the command's delivery at the submitting
// replica (svc.order), and tells that replica's machine which command it
// is applying.
type timedCluster struct {
	inner svc.Cluster
	spans *spanLog

	mu        sync.Mutex
	submitted map[types.MessageID]time.Time // Multicast returned, not yet delivered at the origin
	early     map[types.MessageID]bool      // delivered at the origin before Multicast returned

	// applying[p] is the key of the command process p is delivering, for
	// its machine's Apply; set and read only on p's event loop.
	applying []spanKey
}

func newTimedCluster(inner svc.Cluster, procs int, spans *spanLog) *timedCluster {
	return &timedCluster{
		inner: inner, spans: spans,
		submitted: make(map[types.MessageID]time.Time),
		early:     make(map[types.MessageID]bool),
		applying:  make([]spanKey, procs),
	}
}

func (c *timedCluster) Multicast(from types.ProcessID, payload any, groups ...types.GroupID) types.MessageID {
	t := time.Now()
	id := c.inner.Multicast(from, payload, groups...)
	ret := time.Now()
	cmd, ok := payload.(svc.Command)
	if !ok || id.IsZero() {
		return id
	}
	key := kvKey(cmd.Session, cmd.Seq)
	c.spans.add(spanSvcSubmit, key, -1, t, ret)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.early[id] {
		delete(c.early, id)
		c.spans.add(spanSvcOrder, key, -1, ret, ret) // no wait after the call
		return id
	}
	c.submitted[id] = ret
	return id
}

func (c *timedCluster) OnDeliverAt(p types.ProcessID, fn func(id types.MessageID, payload any)) {
	c.inner.OnDeliverAt(p, func(id types.MessageID, payload any) {
		// Message IDs are minted by the casting process, so a delivery at
		// the ID's origin is the delivery at the submitting replica.
		cmd, ok := payload.(svc.Command)
		if !ok || id.Origin != p {
			fn(id, payload)
			return
		}
		now := time.Now()
		key := kvKey(cmd.Session, cmd.Seq)
		c.mu.Lock()
		if ret, ok := c.submitted[id]; ok {
			delete(c.submitted, id)
			c.spans.add(spanSvcOrder, key, -1, ret, now)
		} else {
			c.early[id] = true
		}
		c.mu.Unlock()
		c.applying[p] = key
		fn(id, payload)
		c.applying[p] = spanKey{}
	})
}

// timedMachine is one replica's KV machine with Apply (at the submitting
// replica) and Query (of lease reads) recorded as spans.
type timedMachine struct {
	*svc.KVMachine
	proc    types.ProcessID
	cluster *timedCluster
	reading *atomic.Pointer[spanKey] // the read its group's session has in flight
	spans   *spanLog
}

func (m *timedMachine) Apply(op []byte) ([]byte, error) {
	key := m.cluster.applying[m.proc]
	if key.kind == 0 {
		return m.KVMachine.Apply(op)
	}
	t := time.Now()
	res, err := m.KVMachine.Apply(op)
	m.spans.add(spanSvcApply, key, -1, t, time.Now())
	return res, err
}

func (m *timedMachine) Query(op []byte) ([]byte, error) {
	t := time.Now()
	res, err := m.KVMachine.Query(op)
	if key := m.reading.Load(); key != nil {
		m.spans.add(spanSvcQuery, *key, -1, t, time.Now())
	}
	return res, err
}
