package dht

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/env"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/sim"
)

// dhtActor hosts one Node on the simulated network — the minimal actor
// shell the core peer also wraps around the DHT.
type dhtActor struct {
	cfg       Config
	bootstrap []env.NodeID
	publisher bool
	node      *Node
	// seen, when set, observes every delivered message.
	seen func(from, to env.NodeID, m env.Message)
}

func (a *dhtActor) Init(ctx env.Context) {
	a.node = NewNode(ctx, a.cfg)
	a.node.Start()
	if a.publisher {
		a.node.StartPublisher()
	}
	a.node.Seed(a.bootstrap...)
}

func (a *dhtActor) Receive(from env.NodeID, m env.Message) {
	if a.seen != nil {
		a.seen(from, a.node.ctx.Self(), m)
	}
	if !a.node.HandleMessage(from, m) {
		panic(fmt.Sprintf("non-DHT message %T reached dhtActor", m))
	}
}

func (a *dhtActor) Stop() { a.node.Stop() }

// swarm spins up n DHT actors on one network, all bootstrapping off node
// 0, and runs the engine long enough for the overlay to converge.
type swarm struct {
	eng    *sim.Engine
	net    *netsim.Network
	actors []*dhtActor
}

func newSwarm(seed uint64, n int, netCfg netsim.Config, dhtCfg Config) *swarm {
	eng := sim.New()
	net := netsim.New(eng, rng.New(seed), netCfg)
	s := &swarm{eng: eng, net: net, actors: make([]*dhtActor, n)}
	for i := 0; i < n; i++ {
		a := &dhtActor{cfg: dhtCfg, publisher: true}
		if i > 0 {
			a.bootstrap = []env.NodeID{0}
		}
		s.actors[i] = a
		net.AddNode(a)
	}
	return s
}

func (s *swarm) run(d sim.Time) { s.eng.RunUntil(s.eng.Now() + d) }

func testNet() netsim.Config {
	return netsim.Config{Latency: netsim.UniformLatency(5 * sim.Millisecond), JitterFrac: 0.2}
}

func TestLookupConvergence(t *testing.T) {
	s := newSwarm(42, 64, testNet(), Config{})
	s.run(45 * sim.Second)

	for id, a := range s.actors {
		if a.node.Table().Len() == 0 {
			t.Fatalf("node %d has an empty routing table after convergence", id)
		}
	}

	key := Key("obj", "movie-7")
	want := proto.DHTProvider{Domain: 3, RM: 5, NumPeers: 4, AvgUtil: 0.25}
	s.actors[5].node.Publish(key, want)
	s.run(5 * sim.Second)

	var got []proto.DHTProvider
	fired := 0
	s.actors[60].node.LookupProviders(key, proto.TraceContext{}, func(vs []proto.DHTProvider) {
		fired++
		got = vs
	})
	s.run(10 * sim.Second)

	if fired != 1 {
		t.Fatalf("done fired %d times, want exactly once", fired)
	}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("lookup returned %+v, want [%+v]", got, want)
	}
	st := s.actors[60].node.Stats()
	if st.Lookups == 0 || st.LookupHits == 0 {
		t.Fatalf("stats not counted: %+v", st)
	}

	// A lookup for a key nobody published must miss cleanly.
	fired = 0
	s.actors[7].node.LookupProviders(Key("obj", "nope"), proto.TraceContext{}, func(vs []proto.DHTProvider) {
		fired++
		got = vs
	})
	s.run(10 * sim.Second)
	if fired != 1 || len(got) != 0 {
		t.Fatalf("absent-key lookup: fired=%d values=%+v, want 1/none", fired, got)
	}
}

func TestRepublishAndUnpublishStaleness(t *testing.T) {
	s := newSwarm(7, 32, testNet(), Config{})
	s.run(20 * sim.Second)

	key := Key("svc", "transcode")
	s.actors[3].node.Publish(key, proto.DHTProvider{Domain: 1, RM: 3})

	// Far past the 30s TTL: the 10s republish keeps the record alive.
	s.run(90 * sim.Second)
	hit := false
	s.actors[30].node.LookupProviders(key, proto.TraceContext{}, func(vs []proto.DHTProvider) {
		hit = len(vs) > 0
	})
	s.run(10 * sim.Second)
	if !hit {
		t.Fatal("republished record expired under its publisher")
	}

	// After Unpublish the stored copies age out within one TTL.
	s.actors[3].node.Unpublish(key)
	s.run(DefaultProviderTTL + 10*sim.Second)
	hit = false
	s.actors[30].node.LookupProviders(key, proto.TraceContext{}, func(vs []proto.DHTProvider) {
		hit = len(vs) > 0
	})
	s.run(10 * sim.Second)
	if hit {
		t.Fatal("unpublished record never expired")
	}
}

// TestLookupUnderChurnAndLoss drives a large overlay through message
// loss and node crashes, and asserts (a) a published record survives the
// loss of some of its holders, and (b) equal seeds give byte-identical
// outcomes — the determinism contract the sim runtime depends on.
func TestLookupUnderChurnAndLoss(t *testing.T) {
	n := 512
	if testing.Short() {
		n = 96
	}
	run := func() string {
		cfg := testNet()
		cfg.LossRate = 0.05
		s := newSwarm(1234, n, cfg, Config{})
		s.run(45 * sim.Second)

		key := Key("obj", "survivor")
		s.actors[9].node.Publish(key, proto.DHTProvider{Domain: 2, RM: 9})
		s.run(5 * sim.Second)

		// Crash 10% of the overlay (but never the publisher or prober).
		r := rng.New(99)
		crashed := 0
		for crashed < n/10 {
			id := env.NodeID(r.Intn(n))
			if id == 9 || id == env.NodeID(n-1) || !s.net.Alive(id) {
				continue
			}
			s.net.Crash(id)
			crashed++
		}
		// Two republish periods: the record re-settles on live holders.
		s.run(25 * sim.Second)

		hits, misses := 0, 0
		for i := 0; i < 5; i++ {
			s.actors[n-1].node.LookupProviders(key, proto.TraceContext{}, func(vs []proto.DHTProvider) {
				if len(vs) > 0 {
					hits++
				} else {
					misses++
				}
			})
			s.run(10 * sim.Second)
		}
		if hits == 0 {
			return fmt.Sprintf("FAIL: 0/%d probes resolved after churn", hits+misses)
		}
		st := s.net.Stats()
		probe := s.actors[n-1].node.Stats()
		return fmt.Sprintf("hits=%d misses=%d sent=%d delivered=%d dropped=%d kb=%.3f rpcs=%d timeouts=%d fired=%d now=%d",
			hits, misses, st.Sent, st.Delivered, st.Dropped, st.KBytes,
			probe.RPCsSent, probe.RPCTimeouts, s.eng.Fired(), s.eng.Now())
	}

	a, b := run(), run()
	if a != b {
		t.Fatalf("equal-seed runs diverged:\n  %s\n  %s", a, b)
	}
	if len(a) > 4 && a[:4] == "FAIL" {
		t.Fatal(a)
	}
	t.Log(a)
}

// TestMessageSequenceGolden pins the exact message sequence of a lossy,
// churned 64-node overlay — every delivery's time, endpoints and full
// contents, in order — to a digest. Routing-table and lookup internals
// may change freely, but any change to which RPCs are sent, to whom,
// when, or with what contact lists shows up here.
func TestMessageSequenceGolden(t *testing.T) {
	cfg := testNet()
	cfg.LossRate = 0.05
	s := newSwarm(2024, 64, cfg, Config{})
	h := fnv.New64a()
	msgs := 0
	for _, a := range s.actors {
		a.seen = func(from, to env.NodeID, m env.Message) {
			msgs++
			fmt.Fprintf(h, "%d %d>%d %#v\n", s.eng.Now(), from, to, m)
		}
	}
	s.run(30 * sim.Second)
	key := Key("obj", "golden")
	s.actors[5].node.Publish(key, proto.DHTProvider{Domain: 1, RM: 5})
	s.run(5 * sim.Second)
	for _, id := range []env.NodeID{11, 23, 42} {
		s.net.Crash(id)
	}
	for _, prober := range []int{7, 63, 30} {
		s.actors[prober].node.LookupProviders(key, proto.TraceContext{}, nil)
		s.actors[prober].node.LookupNode(Key("obj", "elsewhere"), nil)
	}
	s.run(20 * sim.Second)
	const want = "msgs=9688 digest=0xb85aaad60281154b"
	if got := fmt.Sprintf("msgs=%d digest=%#x", msgs, h.Sum64()); got != want {
		t.Fatalf("message sequence changed: %s, want %s", got, want)
	}
}
