package main

// The metric catalog. BENCHMARK.json at the repository root lists the
// same names and units; the self-test checks that the two agree, that
// every workload emits every metric, and that each per-layer metric's
// target names a real workload and end-to-end metric.

// metricDef is one end-to-end metric: every workload reports all of
// them, so each is defined for every workload (see README.md).
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"work_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// target is an end-to-end metric a layer metric should move, on one
// workload.
type target struct {
	workload, metric string
}

// layerDef is one per-layer metric from the traced run, with the
// end-to-end metrics it should move. A layer a workload never calls
// reports 0 on that workload.
type layerDef struct {
	name, unit, better string
	targets            []target
}

var (
	onReplay    = func(m string) target { return target{"replay-kube", m} }
	onLifecycle = func(m string) target { return target{"lifecycle-hostlo", m} }
	onWhatif    = func(m string) target { return target{"whatif-mix", m} }
	onFigures   = func(m string) target { return target{"figures-micro", m} }
)

var perLayer = []layerDef{
	// Trace parse.
	{"ctrace.next.self_s", "s", "lower", []target{onReplay("work_per_s")}},
	{"ctrace.events", "count", "higher", []target{onReplay("work_per_s")}},
	{"ctrace.ns_per_event", "ns", "lower", []target{onReplay("work_per_s")}},
	// Feed and route.
	{"ctrace.partition.self_s", "s", "lower", []target{onReplay("work_per_s")}},
	{"cluster.feed.self_s", "s", "lower", []target{onReplay("work_per_s")}},
	{"cluster.feed.calls", "count", "lower", []target{onReplay("work_per_s")}},
	// Engine step, schedule pass and capacity index.
	{"cluster.advance.self_s", "s", "lower", []target{onReplay("work_per_s"), onLifecycle("wall_s"), onWhatif("setup_s")}},
	{"cluster.advance.ns_per_pod", "ns", "lower", []target{onReplay("work_per_s"), onLifecycle("wall_s")}},
	{"cluster.advance.world_skew", "ratio", "lower", []target{onReplay("wall_s")}},
	// Digest and barrier.
	{"cluster.digest.self_s", "s", "lower", []target{onReplay("wall_s")}},
	{"cluster.finish.self_s", "s", "lower", []target{onReplay("wall_s"), onLifecycle("wall_s")}},
	{"cluster.merge.self_s", "s", "lower", []target{onReplay("wall_s")}},
	// Hostlo optimizer and packing cache.
	{"cluster.optimizer.runs", "count", "lower", []target{onLifecycle("wall_s"), onLifecycle("work_per_s")}},
	{"cluster.optimizer.full", "count", "lower", []target{onLifecycle("wall_s"), onLifecycle("work_per_s")}},
	{"cluster.optimizer.moves", "count", "lower", []target{onLifecycle("wall_s"), onLifecycle("work_per_s")}},
	{"cloudsim.packcache.hit_ratio", "ratio", "higher", []target{onLifecycle("wall_s"), onLifecycle("work_per_s"), onWhatif("wall_s")}},
	// Snapshot at set-up.
	{"cluster.capture.self_s", "s", "lower", []target{onWhatif("setup_s")}},
	{"snapshot.encode.self_s", "s", "lower", []target{onWhatif("setup_s")}},
	{"snapshot.decode.self_s", "s", "lower", []target{onWhatif("setup_s")}},
	{"snapshot.bytes", "B", "lower", []target{onWhatif("setup_s"), onWhatif("peak_rss_mb")}},
	// Snapshot per query.
	{"cluster.restore.self_s", "s", "lower", []target{onWhatif("wall_s"), onWhatif("work_per_s")}},
	{"cluster.delta.self_s", "s", "lower", []target{onWhatif("wall_s"), onWhatif("work_per_s")}},
	{"cluster.continue.self_s", "s", "lower", []target{onWhatif("wall_s"), onWhatif("work_per_s")}},
	{"cluster.audit.self_s", "s", "lower", []target{onWhatif("wall_s"), onLifecycle("wall_s")}},
	{"whatif.warm_hit_ratio", "ratio", "higher", []target{onWhatif("wall_s")}},
	// Waiting in the what-if service, and its client-side latency.
	{"whatif.wait_ms", "ms", "lower", []target{onWhatif("wall_s"), onWhatif("work_per_s")}},
	{"whatif.query_p50_ms", "ms", "lower", []target{onWhatif("wall_s")}},
	{"whatif.query_p99_ms", "ms", "lower", []target{onWhatif("wall_s")}},
	{"whatif.queries", "count", "higher", []target{onWhatif("work_per_s")}},
	// Packet path.
	{"scenario.build.self_s", "s", "lower", []target{onFigures("wall_s"), onFigures("setup_s")}},
	{"netperf.stream.self_s", "s", "lower", []target{onFigures("wall_s")}},
	{"netperf.rr.self_s", "s", "lower", []target{onFigures("wall_s")}},
	{"sim.steps", "count", "lower", []target{onFigures("wall_s")}},
	{"sim.ns_per_step", "ns", "lower", []target{onFigures("wall_s"), onFigures("work_per_s")}},
	// Go runtime, read around the traced operations.
	{"runtime.gc_cpu_s", "s", "lower", []target{onReplay("cpu_s"), onLifecycle("cpu_s")}},
	{"runtime.alloc_mb", "MB", "lower", []target{onReplay("peak_rss_mb"), onLifecycle("peak_rss_mb")}},
	{"runtime.allocs_per_pod", "count", "lower", []target{onReplay("cpu_s"), onLifecycle("cpu_s")}},
	// Cost of tracing itself: traced wall_s minus untraced wall_s.
	{"trace.overhead_s", "s", "lower", []target{onReplay("wall_s"), onLifecycle("wall_s"), onWhatif("wall_s"), onFigures("wall_s")}},
}

// unitOf returns the unit of a catalog metric and whether it exists.
func unitOf(name string) (string, bool) {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit, true
		}
	}
	for _, m := range perLayer {
		if m.name == name {
			return m.unit, true
		}
	}
	return "", false
}
