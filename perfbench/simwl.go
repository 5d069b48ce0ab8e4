package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// task is one scheduled user submission.
type task struct {
	at     sim.Time // offset from the start of the measured phase
	origin int      // peer index
	spec   proto.TaskSpec
}

// simWorkload describes one simulator workload: its fleet and its
// submissions, both drawn from the seed.
type simWorkload struct {
	name        string
	domain      int // peers per domain (see layoutDomains)
	config      func(*core.Config)
	joinSpacing sim.Time
	fleet       func(r *rng.Rand) []proto.PeerInfo
	tasks       func(r *rng.Rand, infos []proto.PeerInfo) []task
	dht         bool
}

// simFleet is one simulated overlay built by a round.
type simFleet struct {
	eng    *sim.Engine
	net    *netsim.Network
	events *core.Events
	sk     *stats.Set
	peers  []*core.Peer
	actors []*actor
}

// simRound is what one round measured.
type simRound struct {
	setup    time.Duration
	cost     cost
	layers   tally
	setupDHT int64  // ns in DHT-kind Receive during set-up
	msgs     uint64 // netsim transmissions
	sent     int64  // messages handed to Context.Send
	kbytes   float64
	fired    uint64
	ledger   ledger
	dhtLk    int
	dhtHits  int
	lookupMs [2]float64 // p50, p99 of phase DHT lookups
}

// netModel is the simulated network of both simulator workloads: 10 ms
// one-way latency with 20% jitter.
func netModel() netsim.Config {
	return netsim.Config{Latency: netsim.UniformLatency(10 * sim.Millisecond), JitterFrac: 0.2}
}

// round builds a fresh fleet from the seed, converges it (set-up), runs
// the submissions until every one has an outcome (measured phase) and
// settles the outcomes.
func (w *simWorkload) round(seed uint64, traced, first bool, rep *report) simRound {
	r := rng.New(seed)
	infos := w.fleet(r.Split())
	tasks := w.tasks(r.Split(), infos)

	inv := newInventory()
	for i, info := range infos {
		inv.addPeer(env.NodeID(i), info)
	}
	for _, t := range tasks {
		inv.specs[t.spec.ID] = t.spec
	}
	pr := &probe{check: newChecker(inv)}
	if traced {
		pr.c = &counters{}
	}
	cfg := core.DefaultConfig()
	cfg.MaxDomainPeers = w.domain
	w.config(&cfg)
	pr.configure(&cfg)

	var out simRound
	f := &simFleet{eng: sim.New(), events: &core.Events{}}
	// One window spanning the whole run, so phase quantiles can be
	// taken as the difference of two exports.
	f.sk = stats.NewSet(0, 1<<60, 1)
	f.events.AttachSketches(f.sk)
	f.events.AttachDecisions(core.NewDecisionLog(0))
	if w.dht {
		pr.check.domainOf = func(id env.NodeID) (proto.DomainID, bool) {
			p := f.peers[id]
			return p.Domain(), p.IsRM()
		}
	}

	// Set-up: start every peer and wait for a converged overlay.
	begin()
	t0 := time.Now()
	f.net = netsim.New(f.eng, rng.New(seed).Split(), netModel())
	for i, info := range infos {
		p := core.New(cfg, info, bootstrapOf(i, w.domain), f.events)
		a := &actor{p: p, pr: pr}
		if id := f.net.AddNode(a); id != env.NodeID(i) {
			panic(fmt.Sprintf("netsim assigned n%d to peer %d", id, i))
		}
		f.peers = append(f.peers, p)
		f.actors = append(f.actors, a)
		f.eng.RunUntil(f.eng.Now() + w.joinSpacing)
	}
	const settleTime, limit = 5 * sim.Second, 120 * sim.Second
	f.eng.RunUntil(f.eng.Now() + settleTime)
	for deadline := f.eng.Now() + limit; !f.converged(w.dht); f.eng.RunUntil(f.eng.Now() + sim.Second) {
		if f.eng.Now() > deadline {
			rep.problem("%s: overlay did not converge within %v of virtual time: %s", w.name, limit, f.laggards(w.dht))
			break
		}
	}
	out.setup = time.Since(t0)
	if first {
		sizes := map[proto.DomainID]int{}
		for _, p := range f.peers {
			sizes[p.Domain()]++
		}
		var hist []int
		for _, n := range sizes {
			hist = append(hist, n)
		}
		sort.Ints(hist)
		rep.note("%d domains, sizes %v", len(hist), hist)
	}
	var setupLayers tally
	if pr.c != nil {
		setupLayers = pr.c.snapshot()
		out.setupDHT = setupLayers.dhtRecvNs()
	}
	sk0 := exportSketch(f.sk, stats.SketchDHTLookup, int64(f.eng.Now()))
	ev0 := f.events.Snapshot()
	net0 := f.net.Stats()
	fired0 := f.eng.Fired()
	sent0 := pr.sent.Load()
	pr.check.reset()

	// Measured phase: the submissions, then drain until every task has
	// an outcome.
	start := f.eng.Now()
	var last sim.Time
	ids := make([]string, len(tasks))
	for i, t := range tasks {
		ids[i] = t.spec.ID
		if t.at > last {
			last = t.at
		}
		a := f.actors[t.origin]
		f.eng.At(start+t.at, func() { a.submit(t.spec) })
	}
	m := begin()
	f.eng.RunUntil(start + last)
	for drainLimit := start + last + 5*sim.Minute; ; f.eng.RunUntil(f.eng.Now() + 100*sim.Millisecond) {
		if f.resolved(ev0, len(tasks)) {
			break
		}
		if f.eng.Now() > drainLimit {
			rep.problem("%s: %d tasks still unresolved after the drain limit", w.name, len(tasks)-f.resolvedCount(ev0))
			break
		}
	}
	out.cost = m.end()

	ev1 := f.events.Snapshot()
	net1 := f.net.Stats()
	out.msgs = net1.Sent - net0.Sent
	out.sent = pr.sent.Load() - sent0
	out.kbytes = net1.KBytes - net0.KBytes
	out.fired = f.eng.Fired() - fired0
	out.dhtLk = ev1.DHTLookups - ev0.DHTLookups
	out.dhtHits = ev1.DHTLookupHits - ev0.DHTLookupHits
	if pr.c != nil {
		out.layers = pr.c.snapshot().minus(setupLayers)
	}
	out.lookupMs = phaseQuantiles(sk0, exportSketch(f.sk, stats.SketchDHTLookup, int64(f.eng.Now())))
	dec := f.events.Decisions()
	out.ledger = settle(inv, ids, ev1.Reports[len(ev0.Reports):], rejectReasons(dec), pr.check, rep)
	rep.problems = append(rep.problems, pr.check.takeProblems()...)
	if first {
		for _, id := range out.ledger.failedIDs {
			for _, d := range dec.Snapshot() {
				if d.Task == id {
					rep.note("failed %s (%+v): %s at n%d domain %d: %s %v", id, inv.specs[id], d.Action, d.Node, d.Domain, d.Reason, d.Candidates)
				}
			}
		}
		ck := pr.check
		rep.note("checked %d allocations, %d GraphCompose messages, %d DHT provider replies",
			ck.allocations.Load(), ck.composes.Load(), ck.providers.Load())
	} else {
		out.ledger.startupMs = nil // only the first round's are reported; later rounds repeat them
	}
	out.cost.heapMB = liveHeapMB()
	runtime.KeepAlive(f) // the fleet is the heap being measured
	return out
}

// converged reports whether every peer has joined a domain and the
// discovery layer is populated: with the DHT, every RM's cached
// directory lists every domain; with gossip, every RM holds a summary of
// every other domain.
func (f *simFleet) converged(useDHT bool) bool {
	rms := 0
	for _, p := range f.peers {
		if !p.Joined() {
			return false
		}
		if p.IsRM() {
			rms++
		}
	}
	for _, p := range f.peers {
		if !p.IsRM() {
			continue
		}
		d := p.DiscoveryDiag()
		if useDHT && d.DirCache != rms || !useDHT && d.Summaries < rms-1 {
			return false
		}
	}
	return true
}

// laggards describes the peers that keep the overlay from converging.
func (f *simFleet) laggards(useDHT bool) string {
	rms := 0
	for _, p := range f.peers {
		if p.IsRM() {
			rms++
		}
	}
	var out []string
	for i, p := range f.peers {
		switch {
		case !p.Joined():
			out = append(out, fmt.Sprintf("n%d not joined", i))
		case p.IsRM() && useDHT && p.DiscoveryDiag().DirCache != rms:
			out = append(out, fmt.Sprintf("RM n%d lists %d of %d domains", i, p.DiscoveryDiag().DirCache, rms))
		case p.IsRM() && !useDHT && p.DiscoveryDiag().Summaries < rms-1:
			out = append(out, fmt.Sprintf("RM n%d (domain of %d) has summaries of %d of %d other domains", i, p.DomainSize(), p.DiscoveryDiag().Summaries, rms-1))
		}
		if len(out) == 5 {
			break
		}
	}
	return strings.Join(out, "; ")
}

func (f *simFleet) resolvedCount(ev0 core.EventsData) int {
	e := &f.events.EventsData // the simulator is single-threaded: no lock needed
	return len(e.Reports) - len(ev0.Reports) + e.Rejected - ev0.Rejected + e.Aborted - ev0.Aborted
}

func (f *simFleet) resolved(ev0 core.EventsData, n int) bool { return f.resolvedCount(ev0) >= n }

// rejectReasons looks a task's reject reason up in the decision log.
func rejectReasons(dec *core.DecisionLog) func(string) string {
	snap := dec.Snapshot()
	why := map[string]string{}
	for _, d := range snap {
		if d.Action == core.DecisionReject {
			why[d.Task] = d.Reason
		}
	}
	return func(task string) string { return why[task] }
}

// exportSketch returns the named sketch's export (empty if absent).
func exportSketch(sk *stats.Set, name string, now int64) stats.SketchJSON {
	for _, e := range sk.Export(now) {
		if e.Name == name {
			return e
		}
	}
	return stats.SketchJSON{}
}

// phaseQuantiles subtracts two exports of one cumulative sketch and
// returns the p50 and p99 of the difference in milliseconds.
func phaseQuantiles(before, after stats.SketchJSON) [2]float64 {
	prev := map[int]uint64{}
	for i, k := range before.Keys {
		prev[k] = before.Vals[i]
	}
	d := stats.SketchJSON{Alpha: after.Alpha, Count: after.Count - before.Count,
		Zeros: after.Zeros - before.Zeros, Sum: after.Sum - before.Sum, Max: after.Max}
	for i, k := range after.Keys {
		if v := after.Vals[i] - prev[k]; v > 0 {
			d.Keys = append(d.Keys, k)
			d.Vals = append(d.Vals, v)
		}
	}
	if d.Count == 0 {
		return [2]float64{}
	}
	s, err := stats.Import(d)
	if err != nil {
		return [2]float64{}
	}
	return [2]float64{s.Quantile(0.5) * 1e3, s.Quantile(0.99) * 1e3}
}

// peerInfo describes peer i of a fleet laid out in domains of the given
// size: capacity drawn from r around speed, and the RM qualification
// (uptime) only for the first peer of each domain. Together with
// bootstrapOf this makes the overlay form domains of exactly that size:
// each qualified peer reaches a full domain and founds the next one,
// and the unqualified peers that follow join it. Without it, every
// qualified late joiner founds a domain of its own.
func peerInfo(r *rng.Rand, i, domain int, speed float64, services []media.Transcoder) proto.PeerInfo {
	info := proto.PeerInfo{
		SpeedWU:       speed * r.Uniform(0.8, 1.2),
		BandwidthKbps: r.Uniform(4000, 6000),
		UptimeSec:     r.Uniform(3600, 7200),
		Services:      services,
	}
	if i%domain != 0 {
		info.UptimeSec = r.Uniform(300, 1500)
	}
	return info
}

// bootstrapOf is the contact peer i joins through: the first peer of its
// domain, or for that peer the first peer of the previous domain.
func bootstrapOf(i, domain int) env.NodeID {
	switch {
	case i == 0:
		return env.NoNode
	case i%domain == 0:
		return env.NodeID(i - domain)
	}
	return env.NodeID(i - i%domain)
}

// oneHop asks for the MPEG-4 delivery format, which the ladder reaches
// from the 640x480 MPEG-2 source format by exactly one transcoder, so
// every session has a single transcoding stage.
var oneHop = media.Constraint{Codecs: []media.Codec{fTgt1.Codec}, MaxWidth: fTgt1.Width,
	MaxHeight: fTgt1.Height, MaxBitrateKbps: fTgt1.BitrateKbps}

// specialist returns the wide-lattice transcoders out of one input
// format, chosen by the peer's index so that every domain has the same
// mix of specialists (in proportion to how many transcoders leave each
// format) whatever the seed. A peer offering transcoders from a single
// input format never appears twice in one pipeline (see the FOUND note
// in CHANGES.md on pipelines that reuse a peer).
func specialist(i int) []media.Transcoder {
	from := wideLadder[i%len(wideLadder)].From
	var out []media.Transcoder
	for _, t := range wideLadder {
		if t.From == from {
			out = append(out, t)
		}
	}
	return out
}

// simDHT: many small domains, one object per peer, requests for objects
// in other domains, so admission runs an iterative DHT lookup and a
// redirect for almost every task.
var simDHT = &simWorkload{
	name:        "sim-dht-lookup",
	dht:         true,
	joinSpacing: 20 * sim.Millisecond,
	domain:      8,
	config: func(c *core.Config) {
		c.Discovery = core.DiscoveryDHT
	},
	fleet: func(r *rng.Rand) []proto.PeerInfo {
		const n = 128
		infos := make([]proto.PeerInfo, n)
		for i := range infos {
			infos[i] = peerInfo(r, i, 8, 10, ladder)
			infos[i].Objects = []media.Object{{Name: fmt.Sprintf("o%d", i), Format: fMid,
				Bytes: int64(30 * fMid.BitrateKbps * 1000 / 8)}}
		}
		return infos
	},
	tasks: func(r *rng.Rand, infos []proto.PeerInfo) []task {
		const n, rate = 2400, 40.0
		out := make([]task, n)
		var at float64
		for i := range out {
			at += r.Exp(1 / rate)
			origin := r.Intn(len(infos))
			holder := r.Intn(len(infos) - 1)
			if holder >= origin {
				holder++
			}
			out[i] = task{at: sim.FromSeconds(at), origin: origin, spec: proto.TaskSpec{
				ID:             fmt.Sprintf("d%d", i),
				Origin:         env.NodeID(origin),
				ObjectName:     infos[holder].Objects[0].Name,
				Constraint:     oneHop,
				DeadlineMicros: 5_000_000,
				DurationSec:    float64(2 + r.Intn(3)),
				ChunkSec:       1,
			}}
		}
		return out
	},
}

// simGossip: a few large domains, every peer offering the whole ladder,
// replicated objects and relaxed constraints, so each admission runs the
// Figure-3 allocator over many candidate paths and goals, long sessions
// load LLS and the data plane, and cross-domain requests follow Bloom
// summaries.
var simGossip = &simWorkload{
	name:        "sim-gossip-alloc",
	joinSpacing: 25 * sim.Millisecond,
	domain:      64,
	config:      func(c *core.Config) {},
	fleet: func(r *rng.Rand) []proto.PeerInfo {
		const n, objects, replicas = 1024, 96, 3
		infos := make([]proto.PeerInfo, n)
		for i := range infos {
			infos[i] = peerInfo(r, i, 64, 10, specialist(i))
		}
		for o := 0; o < objects; o++ {
			f := sources[o%len(sources)]
			obj := media.Object{Name: fmt.Sprintf("g%d", o), Format: f, Bytes: int64(60 * f.BitrateKbps * 1000 / 8)}
			for _, h := range r.Perm(n)[:replicas] {
				infos[h].Objects = append(infos[h].Objects, obj)
			}
		}
		return infos
	},
	tasks: func(r *rng.Rand, infos []proto.PeerInfo) []task {
		const n, rate = 4800, 40.0
		var names []string
		seen := map[string]bool{}
		for _, info := range infos {
			for _, o := range info.Objects {
				if !seen[o.Name] {
					seen[o.Name] = true
					names = append(names, o.Name)
				}
			}
		}
		out := make([]task, n)
		var at float64
		for i := range out {
			at += r.Exp(1 / rate)
			origin := r.Intn(len(infos))
			out[i] = task{at: sim.FromSeconds(at), origin: origin, spec: proto.TaskSpec{
				ID:             fmt.Sprintf("g%d", i),
				Origin:         env.NodeID(origin),
				ObjectName:     names[r.Intn(len(names))],
				Constraint:     media.Constraint{MaxWidth: 640, MaxHeight: 480, MaxBitrateKbps: 128},
				DeadlineMicros: 3_000_000,
				DurationSec:    float64(8 + 2*r.Intn(3)),
				ChunkSec:       0.5,
			}}
		}
		return out
	},
}

func runSimDHT(o runOpts) *report    { return runSim(simDHT, o) }
func runSimGossip(o runOpts) *report { return runSim(simGossip, o) }

// runSim measures rounds of one simulator workload until the budget is
// spent. Every round replays the same seed, so the rounds must agree on
// event count, message count and the digest of the session reports.
// Untraced runs report the medians of the rounds' timings; a traced run
// makes three rounds, the middle one traced, and reports the layers of
// the traced one and its CPU overhead over the others.
func runSim(w *simWorkload, o runOpts) *report {
	rep := newReport()
	stop := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	var rounds []simRound
	if o.trace {
		// The traced round sits between two untraced ones, whose mean is
		// the overhead baseline.
		for i := 0; i < 3; i++ {
			rounds = append(rounds, w.round(o.seed, i == 1, i == 0, rep))
		}
	}
	for !o.trace && (len(rounds) < 2 || time.Now().Before(stop)) {
		rounds = append(rounds, w.round(o.seed, false, len(rounds) == 0, rep))
	}
	first := rounds[0]
	var setup, wall, cpu, alloc, heap []float64
	for i, rd := range rounds {
		if rd.fired != first.fired || rd.msgs != first.msgs || rd.ledger.digest != first.ledger.digest {
			rep.problem("round %d diverged from round 0 on the same seed: events %d/%d, msgs %d/%d, reports %x/%x",
				i, rd.fired, first.fired, rd.msgs, first.msgs, rd.ledger.digest, first.ledger.digest)
		}
		rep.attempted += rd.ledger.completed + rd.ledger.failed
		rep.failed += rd.ledger.failed
		for k, v := range rd.ledger.classes {
			rep.failures[k] += v
		}
		setup = append(setup, rd.setup.Seconds())
		wall = append(wall, rd.cost.wall.Seconds())
		cpu = append(cpu, rd.cost.cpu.Seconds())
		alloc = append(alloc, rd.cost.allocMB)
		heap = append(heap, rd.cost.heapMB)
	}
	rep.note("%d rounds; setup_s %.3f; wall_s %.3f; %d sessions had late chunks", len(rounds), setup, wall, first.ledger.late)
	rep.setEndToEnd(setup, wall, cpu, alloc, heap, first.ledger.startupMs, float64(first.sent), first.ledger.completed)

	t := rounds[len(rounds)-1]
	if o.trace {
		t = rounds[1]
	}
	rep.setPerLayer(t.layers, t.cost)
	if o.trace {
		base := rounds[0].cost
		base.cpu = (rounds[0].cost.cpu + rounds[2].cost.cpu) / 2
		rep.overhead(base, t.cost)
	}
	m := rep.perLayer
	m["sim.events"] = metric{float64(t.fired), "count"}
	m["sim.self_ms"] = metric{float64(t.cost.wall-time.Duration(t.layers.handlerNs())) / 1e6, "ms"}
	m["netsim.msgs"] = metric{float64(t.msgs), "count"}
	m["netsim.kbytes"] = metric{t.kbytes, "KB"}
	m["netsim.send_ms"] = metric{float64(t.layers.sendNs) / 1e6, "ms"}
	m["dht.lookups"] = metric{float64(t.dhtLk), "count"}
	m["dht.lookup_hits"] = metric{float64(t.dhtHits), "count"}
	m["dht.lookup_ms_p50"] = metric{t.lookupMs[0], "ms"}
	m["dht.lookup_ms_p99"] = metric{t.lookupMs[1], "ms"}
	m["dht.setup_rpc_ms"] = metric{float64(t.setupDHT) / 1e6, "ms"}
	return rep
}
