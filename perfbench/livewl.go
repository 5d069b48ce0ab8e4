package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/live"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The live-tcp workload: two live.Runtimes in this process joined over
// loopback TCP, peers alternating between them so control and chunk
// messages cross the wire, and submissions arriving open-loop at a
// fixed rate below capacity.
const (
	livePeers     = 48
	liveDomain    = 16
	liveRate      = 100.0 // submissions per second
	liveSessions  = 2000  // per measured phase; a traced run's three phases have half as many
	liveSetups    = 3     // set-ups per untraced run; set-up time is their median
	liveCapture   = 16    // keep one in this many sent messages for the codec check
	liveDrainWait = 30 * time.Second
)

// liveFleet is one set-up of the live workload.
type liveFleet struct {
	rts    [2]*live.Runtime
	trs    [2]*live.TCPTransport
	peers  []*core.Peer
	actors []*actor
	events *core.Events
	pr     *probe
}

// livePhase is what one measured phase of the live workload saw.
type livePhase struct {
	setup     time.Duration
	cost      cost
	layers    tally
	sent      int64
	ledger    ledger
	frames    uint64
	batches   uint64
	drops     uint64
	lateMs    []float64
	genLate   time.Duration
	composed  int64 // GraphCompose messages checked
	nCaptured int   // messages whose codec round trip was checked
	captured  []env.Message
}

func liveInputs(seed uint64, sessions int) ([]proto.PeerInfo, []task) {
	r := rng.New(seed)
	fr, tr := r.Split(), r.Split()
	infos := make([]proto.PeerInfo, livePeers)
	for i := range infos {
		infos[i] = peerInfo(fr, i, liveDomain, 20, ladder)
		infos[i].Objects = []media.Object{{Name: fmt.Sprintf("l%d", i), Format: fMid,
			Bytes: int64(30 * fMid.BitrateKbps * 1000 / 8)}}
	}
	tasks := make([]task, sessions)
	for i := range tasks {
		origin := tr.Intn(livePeers)
		tasks[i] = task{
			at:     sim.Time(float64(i) / liveRate * 1e6),
			origin: origin,
			spec: proto.TaskSpec{
				ID:             fmt.Sprintf("l%d", i),
				Origin:         env.NodeID(origin),
				ObjectName:     fmt.Sprintf("l%d", tr.Intn(livePeers)),
				Constraint:     oneHop,
				DeadlineMicros: 2_000_000,
				DurationSec:    2,
				ChunkSec:       0.5,
			},
		}
	}
	return infos, tasks
}

// liveConfig is the protocol configuration of the live workload: the
// defaults, with domains of 16 and a 250 ms gossip period so that a
// converged overlay is reached in a fraction of a second.
func liveConfig(pr *probe) core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxDomainPeers = liveDomain
	cfg.GossipPeriod = 250 * sim.Millisecond
	cfg.Nanotime = live.Nanotime
	pr.configure(&cfg)
	return cfg
}

// startLive builds and converges one fleet. reg, when non-nil, is the
// metrics registry every deployment attaches.
func startLive(seed uint64, infos []proto.PeerInfo, pr *probe, reg *metrics.Registry, rep *report) (*liveFleet, time.Duration) {
	cfg := liveConfig(pr)
	f := &liveFleet{events: &core.Events{}, pr: pr}
	// The sinks a p2prm.Live deployment attaches; the registry is left out
	// only to measure its cost.
	sk := stats.NewSet(0, 0, 0)
	f.events.AttachSketches(sk)
	f.events.AttachDecisions(core.NewDecisionLog(0))
	begin()
	t0 := time.Now()
	if reg != nil {
		f.events.AttachMetrics(reg)
	}
	var addrs [2]string
	for i := range f.rts {
		f.rts[i] = live.NewRuntime(rng.Derive(seed, uint64(i)))
		f.trs[i] = live.NewTCPTransportOpts(f.rts[i], live.TransportConfig{}, reg, nil)
		f.trs[i].AttachSketches(sk)
		addr, err := f.trs[i].Listen("127.0.0.1:0")
		if err != nil {
			rep.problem("live: listen: %v", err)
			return f, 0
		}
		addrs[i] = addr
	}
	for id := range infos {
		f.trs[1-id%2].Register(env.NodeID(id), addrs[id%2])
	}
	for id, info := range infos {
		p := core.New(cfg, info, bootstrapOf(id, liveDomain), f.events)
		a := &actor{p: p, pr: pr}
		f.peers = append(f.peers, p)
		f.actors = append(f.actors, a)
		f.rts[id%2].AddNodeWithID(env.NodeID(id), a)
		time.Sleep(2 * time.Millisecond)
	}
	limit := time.Now().Add(30 * time.Second)
	for !f.converged() {
		if time.Now().After(limit) {
			rep.problem("live: overlay did not converge within 30s")
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return f, time.Since(t0)
}

// onLoop runs fn on peer id's event loop and waits for it.
func (f *liveFleet) onLoop(id int, fn func()) bool {
	return f.rts[id%2].Call(env.NodeID(id), fn)
}

// converged: every peer joined, every RM holds a summary of every other
// domain.
func (f *liveFleet) converged() bool {
	rms := 0
	known := make([]int, len(f.peers))
	for id, p := range f.peers {
		joined, rm, k := false, false, 0
		f.onLoop(id, func() { joined, rm, k = p.Joined(), p.IsRM(), p.DiscoveryDiag().Summaries })
		if !joined {
			return false
		}
		if rm {
			rms++
			known[id] = k
		} else {
			known[id] = -1
		}
	}
	for _, k := range known {
		if k >= 0 && k < rms-1 {
			return false
		}
	}
	return true
}

func (f *liveFleet) stop() {
	for i := range f.rts {
		if f.trs[i] != nil {
			f.trs[i].Close()
		}
		if f.rts[i] != nil {
			f.rts[i].Shutdown()
		}
	}
}

func (f *liveFleet) transportStats() (frames, batches, drops uint64) {
	for i := range f.trs {
		st := f.trs[i].Stats()
		frames += st.Sent
		batches += st.Batches
		for _, n := range st.Drops {
			drops += n
		}
		drops += f.rts[i].Dropped()
	}
	return
}

// phase submits every task open-loop at its due time and waits until
// each has an outcome.
func (f *liveFleet) phase(tasks []task, inv *inventory, rep *report) livePhase {
	var out livePhase
	ck := f.pr.check
	ck.reset()
	ev0 := f.events.Snapshot()
	fr0, ba0, dr0 := f.transportStats()
	sent0 := f.pr.sent.Load()
	var l0 tally
	if f.pr.c != nil {
		l0 = f.pr.c.snapshot()
		f.pr.late.take()
	}
	ids := make([]string, len(tasks))
	m := begin()
	start := time.Now()
	for i, t := range tasks {
		ids[i] = t.spec.ID
		due := start.Add(time.Duration(t.at) * time.Microsecond)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if late := time.Since(due); late > out.genLate {
			out.genLate = late
		}
		a, spec := f.actors[t.origin], t.spec
		if !f.onLoop(t.origin, func() { a.submit(spec) }) {
			rep.problem("live: peer %d is not running", t.origin)
		}
	}
	// Sessions last their duration after the last submission; poll for
	// outcomes only after that, so the polling costs little.
	time.Sleep(time.Duration(tasks[len(tasks)-1].spec.DurationSec * float64(time.Second)))
	limit := time.Now().Add(liveDrainWait)
	for {
		ev := f.events.Snapshot()
		if len(ev.Reports)-len(ev0.Reports)+ev.Rejected-ev0.Rejected+ev.Aborted-ev0.Aborted >= len(tasks) {
			break
		}
		if time.Now().After(limit) {
			rep.problem("live: tasks still unresolved %v after the last submission", liveDrainWait)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	out.cost = m.end()
	ev1 := f.events.Snapshot()
	fr1, ba1, dr1 := f.transportStats()
	out.frames, out.batches, out.drops = fr1-fr0, ba1-ba0, dr1-dr0
	out.sent = f.pr.sent.Load() - sent0
	if f.pr.c != nil {
		out.layers = f.pr.c.snapshot().minus(l0)
		out.lateMs = f.pr.late.take()
	}
	out.ledger = settle(inv, ids, ev1.Reports[len(ev0.Reports):], rejectReasons(f.events.Decisions()), ck, rep)
	rep.problems = append(rep.problems, ck.takeProblems()...)
	out.composed = ck.composes.Load()
	ck.mu.Lock()
	captured := ck.captured
	ck.mu.Unlock()
	for _, msg := range captured {
		if err := roundTrip(msg, proto.AppendMessage, proto.DecodeMessage); err != nil {
			rep.problem("%v", err)
		}
	}
	out.nCaptured = len(captured)
	if f.pr.c != nil {
		out.captured = captured // the codec timing's message mix
	}
	ck.reset()
	out.cost.heapMB = liveHeapMB()
	runtime.KeepAlive(f) // the fleet is the heap being measured
	return out
}

// liveRun sets up a fleet, runs one measured phase on it and stops it.
func liveRun(seed uint64, sessions int, traced bool, reg *metrics.Registry, rep *report) livePhase {
	infos, tasks := liveInputs(seed, sessions)
	inv := newInventory()
	for i, info := range infos {
		inv.addPeer(env.NodeID(i), info)
	}
	for _, t := range tasks {
		inv.specs[t.spec.ID] = t.spec
	}
	pr := &probe{check: newChecker(inv)}
	pr.check.captureEvery = liveCapture
	if traced {
		pr.c = &counters{}
		pr.late = &lateness{}
	}
	f, setup := startLive(seed, infos, pr, reg, rep)
	defer f.stop()
	out := f.phase(tasks, inv, rep)
	out.setup = setup
	return out
}

// runLiveTCP: an untraced run sets up liveSetups fleets (set-up time is
// their median) and measures the last; a traced run measures an
// untraced phase without the metrics registry, an untraced phase with
// it, and a traced phase.
func runLiveTCP(o runOpts) *report {
	rep := newReport()
	proto.RegisterMessages()
	account := func(p livePhase) {
		rep.attempted += p.ledger.completed + p.ledger.failed
		rep.failed += p.ledger.failed
		for k, v := range p.ledger.classes {
			rep.failures[k] += v
		}
	}
	if !o.trace {
		var setups []float64
		for i := 0; i < liveSetups-1; i++ {
			infos, _ := liveInputs(o.seed, 0)
			pr := &probe{check: newChecker(newInventory())}
			f, d := startLive(o.seed, infos, pr, metrics.NewRegistry(), rep)
			f.stop()
			setups = append(setups, d.Seconds())
		}
		p := liveRun(o.seed, liveSessions, false, metrics.NewRegistry(), rep)
		account(p)
		setups = append(setups, p.setup.Seconds())
		rep.note("set-ups %v; generator ran at most %v late; %d GraphCompose messages and %d messages (codec) checked", setups, p.genLate, p.composed, p.nCaptured)
		rep.note("%d sessions had late chunks; transport frames %d, drops %d", p.ledger.late, p.frames, p.drops)
		rep.setEndToEnd(setups, []float64{p.cost.wall.Seconds()}, []float64{p.cost.cpu.Seconds()},
			[]float64{p.cost.allocMB}, []float64{p.cost.heapMB}, p.ledger.startupMs, float64(p.sent), p.ledger.completed)
		return rep
	}
	bare := liveRun(o.seed, liveSessions/2, false, nil, rep)
	base := liveRun(o.seed, liveSessions/2, false, metrics.NewRegistry(), rep)
	t := liveRun(o.seed, liveSessions/2, true, metrics.NewRegistry(), rep)
	for _, p := range []livePhase{base, t, bare} {
		account(p)
	}
	rep.setPerLayer(t.layers, t.cost)
	m := rep.perLayer
	m["live.frames"] = metric{float64(t.frames), "count"}
	m["live.batches"] = metric{float64(t.batches), "count"}
	m["live.drops"] = metric{float64(t.drops), "count"}
	m["live.timer_late_ms_p50"] = metric{percentile(t.lateMs, 0.5).Value, "ms"}
	m["live.timer_late_ms_p99"] = metric{percentile(t.lateMs, 0.99).Value, "ms"}
	m["metrics.alloc_mb"] = metric{base.cost.allocMB - bare.cost.allocMB, "MB"}
	enc, dec, size := codecCost(t.captured)
	m["proto.encode_ns"] = metric{enc, "ns"}
	m["proto.decode_ns"] = metric{dec, "ns"}
	m["proto.bytes"] = metric{size, "bytes"}
	rep.overhead(base.cost, t.cost)
	return rep
}

// codecCost times the wire codec over a captured message mix: mean
// encode and decode time and mean encoded size per message.
func codecCost(msgs []env.Message) (encNs, decNs, bytes float64) {
	if len(msgs) == 0 {
		return 0, 0, 0
	}
	enc := make([][]byte, len(msgs))
	var total int
	for i, m := range msgs {
		enc[i], _ = proto.AppendMessage(nil, m)
		total += len(enc[i])
	}
	const reps = 200
	buf := make([]byte, 0, 4096)
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, m := range msgs {
			buf, _ = proto.AppendMessage(buf[:0], m)
		}
	}
	e := time.Since(t0)
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, b := range enc {
			if _, err := proto.DecodeMessage(b); err != nil {
				return 0, 0, 0
			}
		}
	}
	d := time.Since(t0)
	n := float64(reps * len(msgs))
	return float64(e) / n, float64(d) / n, float64(total) / float64(len(msgs))
}
