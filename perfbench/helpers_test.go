package main

import (
	"strings"
	"testing"

	"repro/internal/env"
	"repro/internal/graph"
	"repro/internal/media"
	"repro/internal/proto"
)

func TestPercentileReportsSampleCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted input
	}
	p99 := percentile(xs, 0.99)
	if p99.Value != 990 || p99.N != 1000 || p99.Beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990, n 1000, 10 beyond", p99)
	}
	if p := percentile(xs[:999], 0.99); p.N != 999 || p.Beyond >= 10 {
		t.Fatalf("p99 of 999 samples = %+v, want fewer than 10 beyond", p)
	}
	if p := percentile(nil, 0.5); p.N != 0 {
		t.Fatalf("empty sample reported n=%d", p.N)
	}
	if xs[0] != 1000 {
		t.Fatal("percentile modified its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// testInventory is one peer offering the whole ladder and one holding an
// object in the 800x600 source format, with one request for MPEG-4.
func testInventory() *inventory {
	inv := newInventory()
	inv.addPeer(1, proto.PeerInfo{Services: ladder})
	inv.addPeer(2, proto.PeerInfo{Objects: []media.Object{{Name: "movie", Format: fSrc}}})
	inv.addPeer(3, proto.PeerInfo{Services: []media.Transcoder{{From: fSrc, To: fMid}}})
	inv.specs["t1"] = proto.TaskSpec{ID: "t1", Origin: 9, ObjectName: "movie", Constraint: oneHop,
		DurationSec: 4, ChunkSec: 0.5}
	return inv
}

func stage(peer env.NodeID, t media.Transcoder) proto.StageDesc {
	return proto.StageDesc{Peer: peer, Service: serviceKey(t)}
}

func TestSessionCheckerRejectsInvalidPaths(t *testing.T) {
	inv := testInventory()
	good := proto.SessionDesc{TaskID: "t1", Origin: 9, SourcePeer: 2, ObjectName: "movie", NumChunks: 8,
		Stages: []proto.StageDesc{stage(3, ladder[0]), stage(1, ladder[1])}}
	if err := inv.checkSession(good); err != nil {
		t.Fatalf("valid session rejected: %v", err)
	}
	cases := map[string]func(d *proto.SessionDesc){
		"gap in the format path": func(d *proto.SessionDesc) { d.Stages = []proto.StageDesc{stage(1, ladder[1])} },
		"peer without the service": func(d *proto.SessionDesc) {
			d.Stages = []proto.StageDesc{stage(3, ladder[0]), stage(3, ladder[1])}
		},
		"wrong delivered format": func(d *proto.SessionDesc) { d.Stages = d.Stages[:1] },
		"source not a holder":    func(d *proto.SessionDesc) { d.SourcePeer = 1 },
		"chunk count":            func(d *proto.SessionDesc) { d.NumChunks = 4 },
		"unknown service": func(d *proto.SessionDesc) {
			d.Stages = []proto.StageDesc{{Peer: 1, Service: "MPEG-2/800x600/512->RAW/1x1/1"}}
		},
	}
	for name, mutate := range cases {
		d := good
		d.Stages = append([]proto.StageDesc(nil), good.Stages...)
		mutate(&d)
		if err := inv.checkSession(d); err == nil {
			t.Errorf("%s: invalid session accepted", name)
		}
	}
}

func TestPathCheckerRejectsInvalidAllocation(t *testing.T) {
	inv := testInventory()
	g := graph.NewResourceGraph()
	src := g.AddVertex(formatKey(fSrc), "")
	mid := g.AddVertex(formatKey(fMid), "")
	tgt := g.AddVertex(formatKey(fTgt1), "")
	e1 := g.AddEdge(graph.Edge{From: src, To: mid, Service: serviceKey(ladder[0]), Work: 1})
	e2 := g.AddEdge(graph.Edge{From: mid, To: tgt, Service: serviceKey(ladder[1]), Work: 1})
	bad := g.AddEdge(graph.Edge{From: src, To: tgt, Service: serviceKey(ladder[0]), Work: 1})
	req := graph.Request{Init: src, Goal: tgt}
	if err := inv.checkPath(g, req, graph.Allocation{Path: []graph.EdgeID{e1, e2}}); err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}
	for name, path := range map[string][]graph.EdgeID{
		"not contiguous":             {e2, e1},
		"stops short of the goal":    {e1},
		"service does not match hop": {bad},
	} {
		if err := inv.checkPath(g, req, graph.Allocation{Path: path}); err == nil {
			t.Errorf("%s: invalid path accepted", name)
		}
	}
}

func TestSettleFailsSessionsWithoutEveryChunk(t *testing.T) {
	inv := testInventory()
	for _, id := range []string{"t2", "t3"} {
		spec := inv.specs["t1"]
		spec.ID = id
		inv.specs[id] = spec
	}
	// t1 delivered every chunk, t2 none (a pipeline that never installed
	// its stages ends by the sink watchdog with StartupMicros 0), t3 lost
	// one chunk.
	reports := []proto.SessionReport{
		{TaskID: "t1", Chunks: 8, Received: 8, StartupMicros: 120_000},
		{TaskID: "t2", Chunks: 8, Received: 0, Missed: 8},
		{TaskID: "t3", Chunks: 8, Received: 7, Missed: 1, StartupMicros: 90_000},
	}
	r := newReport()
	l := settle(inv, []string{"t1", "t2", "t3"}, reports, func(string) string { return "" }, newChecker(inv), r)
	if len(r.problems) != 0 {
		t.Fatalf("check problems: %v", r.problems)
	}
	if l.completed != 1 || l.failed != 2 {
		t.Fatalf("completed %d, failed %d; want 1 and 2", l.completed, l.failed)
	}
	if l.classes["no chunk delivered"] != 1 || l.classes["lost chunks"] != 1 {
		t.Fatalf("failure classes %v", l.classes)
	}
	if len(l.startupMs) != 1 || l.startupMs[0] != 120 {
		t.Fatalf("startup samples %v, want only the complete session's 120 ms", l.startupMs)
	}
}

func TestRoundTripCatchesMutatedMessage(t *testing.T) {
	msgs := []env.Message{
		proto.TaskSubmit{Spec: proto.TaskSpec{ID: "t1", ObjectName: "movie", Constraint: oneHop, DurationSec: 2, ChunkSec: 0.5}, Hops: 1},
		proto.Chunk{TaskID: "t1", Index: 3, SizeKBv: 16, Deadline: 42},
		proto.HeartbeatReq{Seq: 7, Backup: 3},
	}
	for _, m := range msgs {
		if err := roundTrip(m, proto.AppendMessage, proto.DecodeMessage); err != nil {
			t.Fatalf("faithful codec flagged: %v", err)
		}
		mutating := func(b []byte) (env.Message, error) {
			got, err := proto.DecodeMessage(b)
			switch v := got.(type) {
			case proto.TaskSubmit:
				v.Spec.Constraint.MaxWidth++
				got = v
			case proto.Chunk:
				v.Index++
				got = v
			case proto.HeartbeatReq:
				v.Backup = env.NoNode
				got = v
			}
			return got, err
		}
		err := roundTrip(m, proto.AppendMessage, mutating)
		if err == nil || !strings.Contains(err.Error(), "changed") {
			t.Errorf("%T: mutated decode not caught (err %v)", m, err)
		}
	}
}
