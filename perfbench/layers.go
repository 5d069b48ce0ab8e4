package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Message kinds timed separately in core.Peer.Receive. SessionAbort
// stands for the session-descriptor traffic besides GraphCompose; the
// membership messages (Join, JoinAccept, Leave, ...) fold into Other.
var kindNames = [...]string{
	"TaskSubmit", "TaskReject", "SessionAbort", "GraphCompose", "ComposeAck",
	"SessionStart", "Chunk", "SessionEnd", "HeartbeatReq", "HeartbeatAck",
	"ProfileUpdate", "BackupSync", "GossipDigest", "GossipSummaries",
	"FindNode", "FindValue", "Store", "Nodes", "Providers", "Other",
}

const numKinds = len(kindNames)

const (
	kTaskSubmit = iota
	kTaskReject
	kSessionAbort
	kGraphCompose
	kComposeAck
	kSessionStart
	kChunk
	kSessionEnd
	kHeartbeatReq
	kHeartbeatAck
	kProfileUpdate
	kBackupSync
	kGossipDigest
	kGossipSummaries
	kFindNode
	kFindValue
	kStore
	kNodes
	kProviders
	kOther
)

func kindOf(m env.Message) int {
	switch m.(type) {
	case proto.TaskSubmit:
		return kTaskSubmit
	case proto.TaskReject:
		return kTaskReject
	case proto.SessionAbort:
		return kSessionAbort
	case proto.GraphCompose:
		return kGraphCompose
	case proto.ComposeAck:
		return kComposeAck
	case proto.SessionStart:
		return kSessionStart
	case proto.Chunk:
		return kChunk
	case proto.SessionEnd:
		return kSessionEnd
	case proto.HeartbeatReq:
		return kHeartbeatReq
	case proto.HeartbeatAck:
		return kHeartbeatAck
	case proto.ProfileUpdate:
		return kProfileUpdate
	case proto.BackupSync:
		return kBackupSync
	case proto.GossipDigest:
		return kGossipDigest
	case proto.GossipSummaries:
		return kGossipSummaries
	case proto.FindNode:
		return kFindNode
	case proto.FindValue:
		return kFindValue
	case proto.Store:
		return kStore
	case proto.Nodes:
		return kNodes
	case proto.Providers:
		return kProviders
	}
	return kOther
}

func isDHTKind(k int) bool { return k >= kFindNode && k <= kProviders }

// counters are the per-layer tallies of the traced run. Fields are
// atomic because live nodes run on their own goroutines; under the
// simulator every add is uncontended.
type counters struct {
	recv      [numKinds]atomic.Int64
	recvNs    [numKinds]atomic.Int64
	timers    atomic.Int64
	timerNs   atomic.Int64
	actorNs   atomic.Int64 // Init and submissions: actor code outside Receive and timers
	sendNs    atomic.Int64
	alloc     atomic.Int64
	allocHit  atomic.Int64
	allocNs   atomic.Int64
	compare   atomic.Int64
	preemptAt atomic.Int64
}

// tally is a plain copy of counters, for deltas between two instants.
type tally struct {
	recv, recvNs                     [numKinds]int64
	timers, timerNs, actorNs         int64
	sendNs, alloc, allocHit, allocNs int64
	compare, preemptAt               int64
}

func (c *counters) snapshot() tally {
	var t tally
	for i := range c.recv {
		t.recv[i] = c.recv[i].Load()
		t.recvNs[i] = c.recvNs[i].Load()
	}
	t.timers, t.timerNs, t.actorNs = c.timers.Load(), c.timerNs.Load(), c.actorNs.Load()
	t.sendNs = c.sendNs.Load()
	t.alloc, t.allocHit, t.allocNs = c.alloc.Load(), c.allocHit.Load(), c.allocNs.Load()
	t.compare, t.preemptAt = c.compare.Load(), c.preemptAt.Load()
	return t
}

func (t tally) minus(o tally) tally {
	d := t
	for i := range d.recv {
		d.recv[i] -= o.recv[i]
		d.recvNs[i] -= o.recvNs[i]
	}
	d.timers -= o.timers
	d.timerNs -= o.timerNs
	d.actorNs -= o.actorNs
	d.sendNs -= o.sendNs
	d.alloc -= o.alloc
	d.allocHit -= o.allocHit
	d.allocNs -= o.allocNs
	d.compare -= o.compare
	d.preemptAt -= o.preemptAt
	return d
}

// handlerNs is the time spent in actor code: message handlers, timer
// callbacks, Init and submissions. Sends happen inside handlers, so
// their time is part of it.
func (t tally) handlerNs() int64 {
	var ns int64
	for _, v := range t.recvNs {
		ns += v
	}
	return ns + t.timerNs + t.actorNs
}

func (t tally) dhtRecvNs() int64 {
	var ns int64
	for k := kFindNode; k <= kProviders; k++ {
		ns += t.recvNs[k]
	}
	return ns
}

// probe is everything a workload hooks into the program: the traced
// counters (nil when untraced), the correctness checker, and the
// send-side observers. One probe serves a whole fleet.
type probe struct {
	c     *counters // nil: untraced, no timing
	check *checker
	late  *lateness // live only: timer callback lateness
	sent  atomic.Int64
}

// actor wraps a core.Peer: it hands the peer a wrapped Context and, when
// traced, times every Receive by message kind.
type actor struct {
	p  *core.Peer
	pr *probe
}

func (a *actor) Init(ctx env.Context) {
	w := &ctxWrap{Context: ctx, pr: a.pr}
	if c := a.pr.c; c != nil {
		t0 := time.Now()
		a.p.Init(w)
		c.actorNs.Add(int64(time.Since(t0)))
		return
	}
	a.p.Init(w)
}

func (a *actor) Receive(from env.NodeID, m env.Message) {
	c := a.pr.c
	if c == nil {
		a.p.Receive(from, m)
		return
	}
	k := kindOf(m)
	t0 := time.Now()
	a.p.Receive(from, m)
	c.recvNs[k].Add(int64(time.Since(t0)))
	c.recv[k].Add(1)
}

func (a *actor) Stop() { a.p.Stop() }

// submit runs a user submission on the peer, timed as actor code.
func (a *actor) submit(spec proto.TaskSpec) {
	if c := a.pr.c; c != nil {
		t0 := time.Now()
		a.p.SubmitTask(spec)
		c.actorNs.Add(int64(time.Since(t0)))
		return
	}
	a.p.SubmitTask(spec)
}

// ctxWrap wraps the runtime's env.Context: every Send passes the
// checker's observers and is counted; when traced, sends and timer
// callbacks are timed, and live timer lateness is recorded.
type ctxWrap struct {
	env.Context
	pr *probe
}

func (x *ctxWrap) Send(to env.NodeID, m env.Message) {
	pr := x.pr
	pr.sent.Add(1)
	pr.check.observeSend(x.Self(), to, m)
	c := pr.c
	if c == nil {
		x.Context.Send(to, m)
		return
	}
	t0 := time.Now()
	x.Context.Send(to, m)
	c.sendNs.Add(int64(time.Since(t0)))
}

func (x *ctxWrap) After(d sim.Time, fn func()) env.Cancel {
	c := x.pr.c
	if c == nil {
		return x.Context.After(d, fn)
	}
	late := x.pr.late
	var due time.Time
	if late != nil {
		due = time.Now().Add(time.Duration(d) * time.Microsecond)
	}
	return x.Context.After(d, func() {
		t0 := time.Now()
		if late != nil {
			late.add(t0.Sub(due))
		}
		fn()
		c.timerNs.Add(int64(time.Since(t0)))
		c.timers.Add(1)
	})
}

// allocator delegates to graph.FairnessBFS, checks every path it returns
// and, when traced, counts and times the calls.
type allocator struct {
	inner graph.FairnessBFS
	pr    *probe
}

func (a allocator) Name() string { return a.inner.Name() }

func (a allocator) Allocate(g *graph.ResourceGraph, req graph.Request, pv *graph.PeerView) (graph.Allocation, error) {
	var t0 time.Time
	if a.pr.c != nil {
		t0 = time.Now()
	}
	al, err := a.inner.Allocate(g, req, pv)
	if c := a.pr.c; c != nil {
		c.allocNs.Add(int64(time.Since(t0)))
		c.alloc.Add(1)
		if err == nil {
			c.allocHit.Add(1)
		}
	}
	if err == nil {
		a.pr.check.checkAllocation(g, req, al)
	}
	return al, err
}

// policy delegates to sched.LLS and counts its calls.
type policy struct {
	inner sched.LLS
	c     *counters
}

func (p policy) Name() string { return p.inner.Name() }

func (p policy) Less(a, b *sched.Task, now sim.Time, speed float64) bool {
	p.c.compare.Add(1)
	return p.inner.Less(a, b, now, speed)
}

func (p policy) PreemptAt(running *sched.Task, queued []*sched.Task, now sim.Time, speed float64) sim.Time {
	p.c.preemptAt.Add(1)
	return p.inner.PreemptAt(running, queued, now, speed)
}

// configure installs the probe's allocator and, when traced, the
// counting scheduling policy.
func (pr *probe) configure(cfg *core.Config) {
	cfg.Allocator = allocator{pr: pr}
	if pr.c != nil {
		cfg.SchedPolicy = policy{c: pr.c}
	}
}

// lateness collects how late live timer callbacks ran against their
// due time (mailbox wait plus timer slack).
type lateness struct {
	mu sync.Mutex
	ms []float64
}

func (l *lateness) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d)/1e6)
	l.mu.Unlock()
}

func (l *lateness) take() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.ms
	l.ms = nil
	return out
}
