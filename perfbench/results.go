package main

// setEndToEnd fills the end-to-end metrics every workload reports.
func (r *report) setEndToEnd(setupS, wallS, cpuS, allocMB, heapMB []float64, startup []float64, msgs float64, completed int) {
	m := r.endToEnd
	m["setup_s"] = metric{median(setupS), "s"}
	m["wall_s"] = metric{median(wallS), "s"}
	m["cpu_s"] = metric{median(cpuS), "s"}
	m["alloc_mb"] = metric{median(allocMB), "MB"}
	m["heap_live_mb"] = metric{median(heapMB), "MB"}
	p50, p99 := percentile(startup, 0.5), percentile(startup, 0.99)
	m["startup_ms_p50"] = metric{p50.Value, "ms"}
	m["startup_ms_p99"] = metric{p99.Value, "ms"}
	if completed > 0 {
		m["msgs_per_session"] = metric{msgs / float64(completed), "msgs"}
	}
	var qs []float64
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		qs = append(qs, percentile(startup, q).Value)
	}
	r.note("startup ms p10/p25/p50/p75/p90/p99 %v over n=%d sessions (%d beyond the p99 rank; at least 10 are needed)", qs, p99.N, p99.Beyond)
}

// setPerLayer fills every per-layer metric from a traced phase. Layers a
// workload does not use read zero; workload code overrides the rest.
func (r *report) setPerLayer(t tally, c cost) {
	m := r.perLayer
	count := func(name string, v float64) { m[name] = metric{v, "count"} }
	for _, name := range perLayerZero {
		m[name.n] = metric{0, name.u}
	}
	for k, name := range kindNames {
		count("core.recv."+name, float64(t.recv[k]))
		m["core.recv_ms."+name] = metric{float64(t.recvNs[k]) / 1e6, "ms"}
	}
	count("core.timers", float64(t.timers))
	m["core.timer_ms"] = metric{float64(t.timerNs) / 1e6, "ms"}
	count("graph.allocate", float64(t.alloc))
	count("graph.allocate_found", float64(t.allocHit))
	m["graph.allocate_ms"] = metric{float64(t.allocNs) / 1e6, "ms"}
	count("sched.compare", float64(t.compare))
	count("sched.preempt_at", float64(t.preemptAt))
	m["runtime.gc_cpu_ms"] = metric{c.gcCPUms, "ms"}
	count("runtime.gc_cycles", c.gcCycles)
	count("runtime.mallocs", c.mallocs)
}

// perLayerZero lists the metrics a workload may leave untouched, with
// their units; they read zero where the layer is bypassed.
var perLayerZero = []struct{ n, u string }{
	{"sim.events", "count"}, {"sim.self_ms", "ms"},
	{"netsim.msgs", "count"}, {"netsim.kbytes", "KB"}, {"netsim.send_ms", "ms"},
	{"dht.lookups", "count"}, {"dht.lookup_hits", "count"},
	{"dht.lookup_ms_p50", "ms"}, {"dht.lookup_ms_p99", "ms"}, {"dht.setup_rpc_ms", "ms"},
	{"proto.encode_ns", "ns"}, {"proto.decode_ns", "ns"}, {"proto.bytes", "bytes"},
	{"live.frames", "count"}, {"live.batches", "count"}, {"live.drops", "count"},
	{"live.timer_late_ms_p50", "ms"}, {"live.timer_late_ms_p99", "ms"},
	{"metrics.alloc_mb", "MB"}, {"trace.cpu_overhead_pct", "%"},
}

// overhead records the traced phase's CPU cost over the untraced one.
func (r *report) overhead(untraced, traced cost) {
	if untraced.cpu > 0 {
		r.perLayer["trace.cpu_overhead_pct"] = metric{(traced.cpu.Seconds()/untraced.cpu.Seconds() - 1) * 100, "%"}
	}
}
