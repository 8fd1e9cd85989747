package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wanamcast"
	"wanamcast/internal/metrics"
	"wanamcast/internal/svc"
	"wanamcast/internal/types"
)

var kvLease = workload{
	name: "kv-lease",
	why:  "KV service on a live 3x3 cluster, 1 ms LAN, 2 closed-loop sessions: 90% lease reads of own keys, 10% writes with the mix. Loads svc, fd leases, transport/tcp, wire, amcast, consensus, rmcast",
	run:  runKVLease,
}

const (
	kvGroups     = 3
	kvPerGroup   = 3
	kvSessions   = 2
	kvKeys       = 16 // keys per session per shard
	kvReadShare  = 0.9
	kvSetups     = 5 // cluster set-ups per run; setup_s is their median
	kvLeaseWidth = 250 * time.Millisecond
	// kvLAN is the one-way delay inside a group, the sims' LAN. Without it
	// a single-group write is a few loopback hops (~0.15 ms) whose latency
	// is set by how fast an idle vCPU wakes, which varies from host to host.
	kvLAN = time.Millisecond
)

// kvRig is a live cluster serving the KV store, every shard's leader
// holding its read lease.
type kvRig struct {
	rig     *liveRig
	service *svc.Service
	stats   *metrics.Service
	setup   time.Duration // construction until every group's leader holds a lease
	traced  *timedCluster // nil on untraced runs
	// reading[g] is the lease read in flight at group g, for the traced
	// machines' Query spans: each shard is read by exactly one session.
	reading []atomic.Pointer[spanKey]
}

func startKV(env *runEnv) (*kvRig, error) {
	t0 := time.Now()
	n := kvGroups * kvPerGroup
	base, err := env.ports.block(2 * n)
	if err != nil {
		return nil, err
	}
	rig, err := startRig(wanamcast.LiveConfig{
		Groups: kvGroups, PerGroup: kvPerGroup, BasePort: base, WANDelay: liveWAN, LANDelay: kvLAN,
		LeaseDuration: kvLeaseWidth, MaxBatch: 64, Pipeline: 4, RetainDeliveries: 1024,
		TraceSpans: env.traced,
	}, false)
	if err != nil {
		return nil, err
	}
	k := &kvRig{rig: rig, stats: &metrics.Service{}, reading: make([]atomic.Pointer[spanKey], kvGroups)}
	route := svc.PrefixRoute(kvGroups)
	var cluster svc.Cluster = rig.l
	newMachine := func(_ types.ProcessID, g types.GroupID) svc.StateMachine { return svc.NewKVMachine(g, route) }
	if env.traced {
		k.traced = newTimedCluster(rig.l, n, env.spans)
		cluster = k.traced
		newMachine = func(p types.ProcessID, g types.GroupID) svc.StateMachine {
			return &timedMachine{KVMachine: svc.NewKVMachine(g, route), proc: p, cluster: k.traced, reading: &k.reading[g], spans: env.spans}
		}
	}
	k.service, err = svc.ServeCluster(cluster, rig.topo, svc.ServiceConfig{
		BasePort: base + n, NewMachine: newMachine, Stats: k.stats,
		LeaseFor: rig.l.ReadLease, Tracer: rig.l.Tracer(),
	})
	if err != nil {
		rig.l.Stop()
		return nil, fmt.Errorf("serve the KV store on ports %d..%d: %w", base+n, base+2*n-1, err)
	}
	deadline := time.Now().Add(drainTimeout)
	for g := range kvGroups {
		leader := rig.l.LeaderOf(rig.l.Process(types.GroupID(g), 0))
		for !rig.l.ReadLease(leader).Valid() {
			if time.Now().After(deadline) {
				k.stop()
				return nil, fmt.Errorf("group %d's leader %v holds no lease after %v", g, leader, drainTimeout)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	k.setup = time.Since(t0)
	return k, nil
}

// stop stops the service before the cluster, as svc.ServeCluster asks.
func (k *kvRig) stop() {
	k.service.Stop()
	k.rig.l.Stop()
}

// kvSession is what one closed-loop session did.
type kvSession struct {
	id                    uint64
	reads, writes         []float64 // latency of completed ops, ms
	readFails, writeFails int
	writeOK               int
	violations            []string
}

// runSession drives one session until the deadline: each op starts when
// the previous reply lands. Session i is homed on group i: its reads are
// lease reads of its own keys there, and its writes always include the
// home shard. Its address book holds only the home shard's servers — a
// client talks to its own region — so every write is coordinated at the
// shard its reads go to, and each read of an own key must return the
// session's last acknowledged write of that key.
func (k *kvRig) runSession(i int, seed int64, deadline time.Time, spans *spanLog) *kvSession {
	home := types.GroupID(i % kvGroups)
	s := &kvSession{id: uint64(i + 1)}
	client := svc.NewClient(svc.ClientConfig{
		Session: s.id,
		Addrs:   map[types.GroupID][]string{home: k.service.Addrs()[home]},
		Stats:   k.stats,
	})
	defer client.Close()
	route := svc.PrefixRoute(kvGroups)
	kv := &svc.KV{Client: client, Route: route}
	keys := make([][]string, kvGroups)
	for g := range keys {
		for j := range kvKeys {
			keys[g] = append(keys[g], fmt.Sprintf("g%d/s%d-k%d", g, s.id, j))
		}
	}
	// want[key] is the last acknowledged value of an own home key; a key
	// whose last write failed is unknown until the next acknowledged one.
	type keyState struct {
		val            string
		unknown, wrote bool
	}
	want := make(map[string]*keyState, kvKeys)
	rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
	for n := 0; time.Now().Before(deadline); n++ {
		if rng.Float64() < kvReadShare {
			key := keys[home][rng.Intn(kvKeys)]
			rk := spanKey{'r', s.id, uint64(n)}
			if spans != nil {
				k.reading[home].Store(&rk)
			}
			t := time.Now()
			v, found, err := kv.GetAt(key, svc.ConsistencyLease)
			took := time.Since(t)
			if spans != nil {
				k.reading[home].Store(nil)
				spans.add(spanKVRead, rk, -1, t, t.Add(took))
			}
			if err != nil {
				s.readFails++
				continue
			}
			s.reads = append(s.reads, float64(took)/1e6)
			switch st := want[key]; {
			case st == nil && found:
				s.violations = append(s.violations, fmt.Sprintf("session %d read %s = %q, never written", s.id, key, v))
			case st != nil && !st.unknown && (!found || v != st.val):
				s.violations = append(s.violations, fmt.Sprintf("session %d read %s = %q (found %v), last acknowledged write %q", s.id, key, v, found, st.val))
			}
			continue
		}
		dest := mixDest(rng, k.rig.topo, home, paperMix)
		val := fmt.Sprintf("s%d-op%d", s.id, n)
		sets := make(map[string]string, dest.Size())
		for _, g := range dest.Groups() {
			sets[keys[g][rng.Intn(kvKeys)]] = val
		}
		t := time.Now()
		_, err := kv.Put(sets)
		took := time.Since(t)
		if spans != nil {
			spans.add(spanKVWrite, kvKey(s.id, client.Seq()), -1, t, t.Add(took))
		}
		for key := range sets {
			if route(key) != home {
				continue
			}
			if want[key] == nil {
				want[key] = &keyState{}
			}
			st := want[key]
			st.unknown = err != nil
			if err == nil {
				st.val, st.wrote = val, true
			}
		}
		if err != nil {
			s.writeFails++
			continue
		}
		s.writeOK++
		s.writes = append(s.writes, float64(took)/1e6)
	}
	return s
}

// runKVLease times kvSetups set-ups, then runs the sessions on the last
// cluster for the budget.
func runKVLease(env *runEnv) (*outcome, error) {
	var setups []float64
	var k *kvRig
	for range kvSetups {
		if k != nil {
			k.stop()
		}
		var err error
		if k, err = startKV(env); err != nil {
			return nil, err
		}
		setups = append(setups, k.setup.Seconds())
	}

	runtime.GC()
	before := k.rig.l.Stats()
	w := openWindow()
	deadline := w.start.Add(env.budget)
	sessions := make([]*kvSession, kvSessions)
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sessions[i] = k.runSession(i, env.seed, deadline, env.spans)
		}()
	}
	wg.Wait()
	c := w.close()
	d := statsDelta(before, k.rig.l.Stats())
	var stages []metrics.StageSummary
	if tr := k.rig.l.Tracer(); tr != nil {
		stages = tr.Stats().Snapshot()
	}
	k.stop()
	sv := k.stats.Snapshot()

	o := newOutcome()
	var reads, writes []float64
	var readFails, writeFails, writesOK int
	for _, s := range sessions {
		reads = append(reads, s.reads...)
		writes = append(writes, s.writes...)
		readFails += s.readFails
		writeFails += s.writeFails
		writesOK += s.writeOK
		o.violations = append(o.violations, s.violations...)
	}
	o.attempted = len(reads) + len(writes) + readFails + writeFails
	o.failed = readFails + writeFails
	if len(o.violations) > 0 {
		return o, nil
	}
	ops := float64(len(reads) + len(writes))
	o.set("setup_s", median(setups))
	o.setRatio("ops_per_s", ops, c.wall.Seconds())
	wd := newDist(writes, writeFails)
	o.setQ("latency_p50_ms", wd, 1, 2)
	o.setQ("latency_p99_ms", wd, 99, 100)
	rd := newDist(reads, readFails)
	o.setQ("read_p50_ms", rd, 1, 2)
	o.setQ("read_p99_ms", rd, 99, 100)
	o.setCosts(c, ops)
	o.setRatio("failed_frac", float64(o.failed), float64(o.attempted))
	o.setRatio("wire_bytes_per_op", float64(d.Wire.BytesOut), ops)

	setProtocolCounts(o, "a1", "amcast", d, float64(writesOK))
	setWireCounts(o, d, ops)
	o.set("svc.retries", float64(sv.Retries))
	o.set("svc.redirects", float64(sv.Redirects))
	o.set("svc.duplicates", float64(sv.Duplicates))
	o.set("svc.stale_reads", float64(sv.StaleReads))
	o.setRatio("fd.lease_denied_frac", float64(sv.LeaseDenied), float64(len(reads)+readFails))
	if env.traced {
		setSvcTimings(o, env.spans)
		setStageTimings(o, stages)
	}
	o.selfOps = ops
	return o, nil
}

// setSvcTimings reports the svc spans and attributes each write: client
// latency minus its ordering and apply time is what the sockets and the
// svc request path cost (svc.rest).
func setSvcTimings(o *outcome, spans *spanLog) {
	spans.adopt(spanKVWrite, spanSvcSubmit, spanSvcOrder, spanSvcApply)
	spans.adopt(spanKVRead, spanSvcQuery)
	for _, t := range []struct {
		name, metric string
		unit         time.Duration
	}{
		{spanSvcSubmit, "svc.submit", time.Microsecond},
		{spanSvcOrder, "svc.order", time.Millisecond},
		{spanSvcApply, "svc.apply", time.Microsecond},
		{spanSvcQuery, "svc.query", time.Microsecond},
	} {
		suffix := "_us"
		if t.unit == time.Millisecond {
			suffix = "_ms"
		}
		d := newDist(durations(spans.named(t.name), t.unit), 0)
		o.setQ(t.metric+"_p50"+suffix, d, 1, 2)
		o.setQ(t.metric+"_p99"+suffix, d, 99, 100)
	}
	part := func(name string) map[spanKey]int64 {
		m := make(map[spanKey]int64)
		for _, s := range spans.named(name) {
			m[s.key] += s.end - s.start
		}
		return m
	}
	order, apply := part(spanSvcOrder), part(spanSvcApply)
	var rest []float64
	for _, s := range spans.named(spanKVWrite) {
		ord, ok1 := order[s.key]
		app, ok2 := apply[s.key]
		if ok1 && ok2 {
			rest = append(rest, float64(s.end-s.start-ord-app)/1e6)
		}
	}
	o.setQ("svc.rest_p50_ms", newDist(rest, 0), 1, 2)
}
