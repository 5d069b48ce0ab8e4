package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/dht"
	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/media"
	"repro/internal/proto"
)

// The benchmark's own format lattice and transcoder ladder. Peers are
// given services from this ladder and objects in its source formats, so
// every check below is computed from the benchmark's tables, not from
// the program's state.
var (
	fSrc  = media.Format{Codec: media.MPEG2, Width: 800, Height: 600, BitrateKbps: 512}
	fMid  = media.Format{Codec: media.MPEG2, Width: 640, Height: 480, BitrateKbps: 256}
	fTgt1 = media.Format{Codec: media.MPEG4, Width: 640, Height: 480, BitrateKbps: 64}
	fTgt2 = media.Format{Codec: media.H263, Width: 320, Height: 240, BitrateKbps: 32}
	fMid2 = media.Format{Codec: media.H263, Width: 640, Height: 480, BitrateKbps: 128}

	sources = []media.Format{fSrc, fMid}
	ladder  = []media.Transcoder{
		{From: fSrc, To: fMid},
		{From: fMid, To: fTgt1},
		{From: fMid, To: fMid2},
		{From: fMid2, To: fTgt2},
		{From: fMid, To: fTgt2},
		{From: fSrc, To: fTgt1},
	}

	// A wider lattice for the allocator-heavy workload: more
	// intermediate formats, so a relaxed request has many goal formats
	// and each goal many paths.
	fD        = media.Format{Codec: media.MPEG2, Width: 480, Height: 360, BitrateKbps: 128}
	fA        = media.Format{Codec: media.MPEG4, Width: 480, Height: 360, BitrateKbps: 96}
	fB        = media.Format{Codec: media.H263, Width: 480, Height: 360, BitrateKbps: 64}
	fC        = media.Format{Codec: media.MPEG4, Width: 320, Height: 240, BitrateKbps: 48}
	wideExtra = []media.Transcoder{
		{From: fSrc, To: fD},
		{From: fMid, To: fD},
		{From: fD, To: fA},
		{From: fD, To: fB},
		{From: fD, To: fC},
		{From: fA, To: fC},
		{From: fB, To: fTgt2},
		{From: fMid2, To: fB},
		{From: fA, To: fTgt2},
	}
	wideLadder = append(append([]media.Transcoder(nil), ladder...), wideExtra...)
)

func formatKey(f media.Format) string {
	return fmt.Sprintf("%s/%dx%d/%d", f.Codec, f.Width, f.Height, f.BitrateKbps)
}

func serviceKey(t media.Transcoder) string { return formatKey(t.From) + "->" + formatKey(t.To) }

// service is one ladder transcoder with its format keys, formatted once
// when the inventory is built so that no check formats a string.
type service struct {
	t        media.Transcoder
	from, to string
}

// satisfies is the benchmark's reading of a request constraint.
func satisfies(f media.Format, c media.Constraint) bool {
	if len(c.Codecs) > 0 {
		ok := false
		for _, cd := range c.Codecs {
			ok = ok || cd == f.Codec
		}
		if !ok {
			return false
		}
	}
	return (c.MaxWidth == 0 || f.Width <= c.MaxWidth) &&
		(c.MaxHeight == 0 || f.Height <= c.MaxHeight) &&
		(c.MinBitrateKbps == 0 || f.BitrateKbps >= c.MinBitrateKbps) &&
		(c.MaxBitrateKbps == 0 || f.BitrateKbps <= c.MaxBitrateKbps)
}

// inventory is the benchmark's record of what it gave each peer and what
// it asked for. It is filled before the fleet starts and before each
// measured phase, and read-only while nodes run.
type inventory struct {
	services  map[env.NodeID]map[string]bool // peer -> offered transcoder keys
	holders   map[string][]env.NodeID        // object -> peers holding it
	objFormat map[string]media.Format
	objByKey  map[proto.DHTKey]string // DHT key of "obj"/name -> name
	dirKey    proto.DHTKey            // DHT key of the RM directory
	ladder    map[string]service
	formats   map[string]media.Format
	specs     map[string]proto.TaskSpec // task ID -> submitted spec
}

func newInventory() *inventory {
	inv := &inventory{
		services:  map[env.NodeID]map[string]bool{},
		holders:   map[string][]env.NodeID{},
		objFormat: map[string]media.Format{},
		objByKey:  map[proto.DHTKey]string{},
		dirKey:    dht.Key("dir", "rms"),
		ladder:    map[string]service{},
		formats:   map[string]media.Format{},
		specs:     map[string]proto.TaskSpec{},
	}
	for _, t := range wideLadder {
		inv.ladder[serviceKey(t)] = service{t: t, from: formatKey(t.From), to: formatKey(t.To)}
		inv.formats[formatKey(t.From)] = t.From
		inv.formats[formatKey(t.To)] = t.To
	}
	return inv
}

// addPeer records the services and objects of one peer.
func (inv *inventory) addPeer(id env.NodeID, info proto.PeerInfo) {
	svc := map[string]bool{}
	for _, t := range info.Services {
		svc[serviceKey(t)] = true
	}
	inv.services[id] = svc
	for _, o := range info.Objects {
		inv.holders[o.Name] = append(inv.holders[o.Name], id)
		inv.objFormat[o.Name] = o.Format
		inv.objByKey[dht.Key("obj", o.Name)] = o.Name
	}
}

// expectedChunks is the chunk count a spec implies: its duration cut
// into ChunkSec pieces.
func expectedChunks(s proto.TaskSpec) int {
	n := int(math.Round(s.DurationSec / s.ChunkSec))
	if n < 1 {
		n = 1
	}
	return n
}

// checkSession verifies a composed session against the inventory: the
// source holds the object, the stages form a contiguous format path
// from the object's stored format to a format the request accepts, each
// stage runs on a peer offering that transcoder, the sink is the
// requester and the chunk count is the one the spec implies.
func (inv *inventory) checkSession(d proto.SessionDesc) error {
	spec, ok := inv.specs[d.TaskID]
	if !ok {
		return fmt.Errorf("session %s: no such submitted task", d.TaskID)
	}
	if d.ObjectName != spec.ObjectName {
		return fmt.Errorf("session %s: object %q, requested %q", d.TaskID, d.ObjectName, spec.ObjectName)
	}
	if d.Origin != spec.Origin {
		return fmt.Errorf("session %s: sink n%d, requester n%d", d.TaskID, d.Origin, spec.Origin)
	}
	held := false
	for _, h := range inv.holders[d.ObjectName] {
		held = held || h == d.SourcePeer
	}
	if !held {
		return fmt.Errorf("session %s: source n%d does not hold %q", d.TaskID, d.SourcePeer, d.ObjectName)
	}
	if want := expectedChunks(spec); d.NumChunks != want {
		return fmt.Errorf("session %s: %d chunks, spec implies %d", d.TaskID, d.NumChunks, want)
	}
	cur := inv.objFormat[d.ObjectName]
	for i, st := range d.Stages {
		s, ok := inv.ladder[st.Service]
		if !ok {
			return fmt.Errorf("session %s stage %d: unknown service %q", d.TaskID, i, st.Service)
		}
		if !inv.services[st.Peer][st.Service] {
			return fmt.Errorf("session %s stage %d: n%d does not offer %q", d.TaskID, i, st.Peer, st.Service)
		}
		if s.t.From != cur {
			return fmt.Errorf("session %s stage %d: input %s, stream is %s", d.TaskID, i, s.from, formatKey(cur))
		}
		cur = s.t.To
	}
	if !satisfies(cur, spec.Constraint) {
		return fmt.Errorf("session %s: delivers %s, request wants %v", d.TaskID, formatKey(cur), spec.Constraint)
	}
	return nil
}

// checkPath verifies one allocator result: a contiguous path of
// ladder transcoders from the request's initial vertex to its goal. It
// allocates nothing unless the path is wrong.
func (inv *inventory) checkPath(g *graph.ResourceGraph, req graph.Request, al graph.Allocation) error {
	at := req.Init
	for i, eid := range al.Path {
		e := g.Edge(eid)
		if e.From != at {
			return fmt.Errorf("allocation edge %d leaves vertex %d, path is at %d", i, e.From, at)
		}
		s, ok := inv.ladder[e.Service]
		if !ok {
			return fmt.Errorf("allocation edge %d: unknown service %q", i, e.Service)
		}
		if from, to := g.Vertex(e.From).Key, g.Vertex(e.To).Key; from != s.from || to != s.to {
			return fmt.Errorf("allocation edge %d: %s->%s does not match service %q", i, from, to, e.Service)
		}
		at = e.To
	}
	if at != req.Goal {
		return fmt.Errorf("allocation ends at vertex %d, goal is %d", at, req.Goal)
	}
	if _, ok := inv.formats[g.Vertex(req.Goal).Key]; !ok {
		return fmt.Errorf("allocation goal %q is not a catalog format", g.Vertex(req.Goal).Key)
	}
	return nil
}

// rpcKey names one outstanding DHT FindValue: the asking node and its
// RPC number.
type rpcKey struct {
	node env.NodeID
	rpc  uint64
}

// checker runs the correctness checks on what nodes send and allocate
// while they run. On the success path a check only looks values up in
// the inventory's maps: it formats no string, allocates nothing and
// takes no lock, so its cost in the measured phase stays small (see
// README.md for the figure).
type checker struct {
	inv *inventory
	// domainOf reports a peer's current domain and whether it leads it.
	// The DHT workload sets it (the simulator is single-threaded, so it
	// may read peer state) to check provider records; nil elsewhere.
	domainOf func(env.NodeID) (proto.DomainID, bool)
	// captureEvery keeps one in n sent messages for the codec check
	// (0: none).
	captureEvery int64
	nSent        atomic.Int64

	allocations, composes, providers atomic.Int64 // checks made

	mu       sync.Mutex
	problems []string
	rejects  map[string]string // task -> reject reason sent to its requester
	aborts   map[string]string // task -> final abort reason
	pending  map[rpcKey]proto.DHTKey
	captured []env.Message
}

func newChecker(inv *inventory) *checker {
	ck := &checker{inv: inv, pending: map[rpcKey]proto.DHTKey{}}
	ck.reset()
	return ck
}

func (ck *checker) fail(err error) {
	ck.mu.Lock()
	if len(ck.problems) < 100 {
		ck.problems = append(ck.problems, err.Error())
	}
	ck.mu.Unlock()
}

// checkAllocation is called by the allocator wrapper from any node.
func (ck *checker) checkAllocation(g *graph.ResourceGraph, req graph.Request, al graph.Allocation) {
	ck.allocations.Add(1)
	if err := ck.inv.checkPath(g, req, al); err != nil {
		ck.fail(err)
	}
}

// observeSend checks or records one outgoing message. Every copy of a
// GraphCompose (one per pipeline member) is checked; the check is cheap
// and the copies agree.
func (ck *checker) observeSend(from, to env.NodeID, m env.Message) {
	switch v := m.(type) {
	case proto.GraphCompose:
		ck.composes.Add(1)
		if err := ck.inv.checkSession(v.Session); err != nil {
			ck.fail(err)
		}
	case proto.TaskReject:
		ck.mu.Lock()
		ck.rejects[v.TaskID] = v.Reason
		ck.mu.Unlock()
	case proto.SessionAbort:
		if v.Final {
			ck.mu.Lock()
			ck.aborts[v.TaskID] = v.Reason
			ck.mu.Unlock()
		}
	case proto.FindValue:
		if ck.domainOf != nil {
			ck.mu.Lock()
			ck.pending[rpcKey{from, v.RPC}] = v.Key
			ck.mu.Unlock()
		}
	case proto.Providers:
		if ck.domainOf != nil {
			ck.checkProviders(to, v)
		}
	}
	if ck.captureEvery > 0 && (ck.nSent.Add(1)-1)%ck.captureEvery == 0 {
		ck.mu.Lock()
		ck.captured = append(ck.captured, m)
		ck.mu.Unlock()
	}
}

// checkProviders verifies a DHT FindValue answer: every record under an
// object key names the domain of a peer that holds the object, and
// every record under the RM directory key names a current RM.
func (ck *checker) checkProviders(asker env.NodeID, v proto.Providers) {
	ck.mu.Lock()
	key, ok := ck.pending[rpcKey{asker, v.RPC}]
	delete(ck.pending, rpcKey{asker, v.RPC})
	ck.mu.Unlock()
	if !ok || len(v.Values) == 0 {
		return
	}
	ck.providers.Add(1)
	if key == ck.inv.dirKey {
		for _, p := range v.Values {
			if d, rm := ck.domainOf(p.RM); !rm || d != p.Domain {
				ck.fail(fmt.Errorf("directory record names n%d of domain %d, which does not lead it", p.RM, p.Domain))
			}
		}
		return
	}
	name, isObj := ck.inv.objByKey[key]
	if !isObj {
		return
	}
	for _, p := range v.Values {
		found := false
		for _, h := range ck.inv.holders[name] {
			if d, _ := ck.domainOf(h); d == p.Domain {
				found = true
			}
		}
		if !found {
			ck.fail(fmt.Errorf("provider record for %q names domain %d (RM n%d), which holds no copy", name, p.Domain, p.RM))
		}
	}
}

// takeProblems returns the check failures so far and forgets them.
func (ck *checker) takeProblems() []string {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	p := ck.problems
	ck.problems = nil
	return p
}

// reset clears per-phase observations (not problems, nor outstanding
// DHT requests, whose answers may come in the next phase).
func (ck *checker) reset() {
	ck.mu.Lock()
	ck.rejects = map[string]string{}
	ck.aborts = map[string]string{}
	ck.captured = nil
	ck.mu.Unlock()
	ck.nSent.Store(0)
	ck.allocations.Store(0)
	ck.composes.Store(0)
	ck.providers.Store(0)
}

// ledger tallies the outcome of every task submitted in a phase: each
// must end in exactly one session report that delivered every chunk.
// Everything else is a failure, classified for the report.
type ledger struct {
	completed int
	failed    int
	classes   map[string]int
	failedIDs []string // the first few failed tasks, for the run's account
	late      int      // completed sessions with chunks past their deadline
	startupMs []float64
	digest    uint64
}

// settle classifies the phase's submissions from the reports of the
// phase, the reject decisions and the requester-side observations. A
// session that delivered no chunk, or lost some, is a failed operation:
// its StartupMicros (0 when nothing arrived) stays out of the startup
// percentiles. An inconsistency (two reports, chunk counts that disagree
// with the spec) is a check failure, not an operation failure.
func settle(inv *inventory, ids []string, reports []proto.SessionReport, rejectReason func(string) string, ck *checker, r *report) ledger {
	l := ledger{classes: map[string]int{}}
	byTask := map[string][]proto.SessionReport{}
	for _, rep := range reports {
		if _, ok := inv.specs[rep.TaskID]; !ok {
			r.problem("report for unknown task %s", rep.TaskID)
			continue
		}
		byTask[rep.TaskID] = append(byTask[rep.TaskID], rep)
	}
	h := fnv.New64a()
	for _, id := range ids {
		reps := byTask[id]
		if len(reps) > 1 {
			r.problem("task %s has %d outcomes", id, len(reps))
		}
		ck.mu.Lock()
		rej, rejected := ck.rejects[id]
		abort, aborted := ck.aborts[id]
		ck.mu.Unlock()
		if len(reps) >= 1 && rejected {
			r.problem("task %s was both reported and rejected", id)
		}
		class := ""
		switch {
		case aborted:
			class = "aborted: " + abort
		case len(reps) == 0 && rejected:
			class = "rejected: " + rej
		case len(reps) == 0:
			class = "never reported"
			if why := rejectReason(id); why != "" {
				class = "rejected: " + why
			}
		default:
			rep := reps[0]
			if want := expectedChunks(inv.specs[id]); rep.Chunks != want {
				r.problem("task %s: report has %d chunks, spec implies %d", id, rep.Chunks, want)
			}
			if rep.Received > rep.Chunks || rep.Received < 0 {
				r.problem("task %s: received %d of %d chunks", id, rep.Received, rep.Chunks)
			}
			switch {
			case rep.Received == 0:
				class = "no chunk delivered"
			case rep.Received < rep.Chunks:
				class = "lost chunks"
			}
		}
		if class != "" {
			l.failed++
			l.classes[class]++
			if len(l.failedIDs) < 5 {
				l.failedIDs = append(l.failedIDs, id)
			}
		} else {
			rep := reps[0]
			l.completed++
			if rep.Missed > 0 {
				l.late++
			}
			l.startupMs = append(l.startupMs, float64(rep.StartupMicros)/1e3)
		}
		for _, rep := range reps {
			fmt.Fprintf(h, "%s|%d|%d|%d|%d|%v|%d|%d|%d;", rep.TaskID, rep.Chunks, rep.Received,
				rep.Missed, rep.StartupMicros, rep.MeanLatencyMicros, rep.Repaired, rep.FinishedMicros, rep.Hops)
		}
	}
	l.digest = h.Sum64()
	return l
}

// roundTrip encodes m with enc, decodes it with dec and reports any
// difference. It is the codec check applied to every captured message.
func roundTrip(m env.Message, enc func([]byte, env.Message) ([]byte, bool), dec func([]byte) (env.Message, error)) error {
	b, ok := enc(nil, m)
	if !ok {
		return fmt.Errorf("codec: %T has no encoding", m)
	}
	got, err := dec(b)
	if err != nil {
		return fmt.Errorf("codec: %T: %v", m, err)
	}
	if !sameValue(reflect.ValueOf(m), reflect.ValueOf(got)) {
		return fmt.Errorf("codec: %T changed in a round trip: %+v became %+v", m, m, got)
	}
	return nil
}

// sameValue is deep equality that treats nil and empty slices and maps
// alike, since the wire form does not distinguish them.
func sameValue(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() {
		return false
	}
	if !a.IsValid() {
		return true
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Interface, reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() || !sameValue(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	case reflect.Float32, reflect.Float64:
		return a.Float() == b.Float() || (math.IsNaN(a.Float()) && math.IsNaN(b.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	}
	return false
}
