package main

// layerValues fills in the per-layer metrics every workload derives the
// same way from its tracer: collector, controller and disk. runs is the
// number of traced replays (1 for a serving window), ops the events or
// requests they covered.
func layerValues(t *Tracer, v map[string]float64, runs, ops float64) {
	collections := float64(t.Counter("gc.collections"))
	coll := t.Agg("gc.collect")
	v["gc.collections"] = collections / runs
	v["gc.collect_us_p50"] = coll.dur.quantile(0.50) / 1e3
	v["gc.collect_us_p99"] = coll.dur.quantile(0.99) / 1e3
	v["gc.reclaimed_kb_per_collection"] = ratio(float64(t.Counter("gc.reclaimed_bytes")), collections) / 1024
	v["gc.io_per_collection"] = ratio(float64(t.Counter("gc.io")), collections)
	v["gc.yield_frac"] = ratio(float64(t.Counter("gc.reclaimed_bytes")), float64(t.Counter("gc.examined_bytes")))

	triggers := float64(t.Counter("core.triggers"))
	v["core.should_collect_ns"] = meanSelf(t.Agg("core.should_collect"))
	v["core.after_collection_ns"] = meanSelf(t.Agg("core.after_collection"))
	v["core.estimate_ns"] = meanSelf(t.Agg("core.estimate"))
	v["core.triggers"] = triggers / runs
	v["core.empty_trigger_frac"] = ratio(float64(t.Counter("core.empty_triggers")), triggers)

	commits := t.Agg("disk.commit")
	ckpt := t.Agg("disk.checkpoint")
	wal, page := float64(t.Counter("disk.wal_bytes")), float64(t.Counter("disk.page_bytes"))
	v["disk.log_ns_per_record"] = meanSelf(t.Agg("disk.log"))
	v["disk.commit_us_p50"] = commits.dur.quantile(0.50) / 1e3
	v["disk.commit_us_p99"] = commits.dur.quantile(0.99) / 1e3
	v["disk.fsyncs_per_commit"] = ratio(float64(t.Counter("disk.commit_syncs")), float64(commits.count))
	v["disk.wal_bytes_per_op"] = wal / ops
	v["disk.page_bytes_per_op"] = page / ops
	v["disk.bytes_per_op"] = (wal + page) / ops
	v["disk.checkpoints"] = float64(ckpt.count) / runs
	v["disk.checkpoint_ms_p50"] = ckpt.dur.quantile(0.50) / 1e6

	v["bench.spans"] = float64(t.Count())
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// meanSelf is the mean self time of a span name, in ns.
func meanSelf(a agg) float64 { return ratio(float64(a.self), float64(a.count)) }
