package main

// metricDef names one metric with its unit and direction.
type metricDef struct {
	Name, Unit, Better string
}

// endToEndDefs are the metrics a user of the system would see. The
// first seven exist on every workload and repeat within their bounds;
// BENCHMARK.json bounds those. The rest exist only where the workload
// has such an op, or are tails that a single stall decides; they are
// printed and recorded, and reported to the driver as client.* layers.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"recover_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"server_cpu_ms_per_op", "ms", "lower"},
	{"server_rss_mb", "MB", "lower"},
	{"op_p99_ms", "ms", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"read_p99_ms", "ms", "lower"},
	{"search_p50_ms", "ms", "lower"},
	{"entity_p50_ms", "ms", "lower"},
	{"contribute_p50_ms", "ms", "lower"},
	{"contribute_p99_ms", "ms", "lower"},
	{"slo_miss_share", "share", "lower"},
	{"sweep_s", "s", "lower"},
}

// universal is how many of endToEndDefs every workload reports.
const universal = 7

// perLayerDefs are the single-layer metrics of the traced run, grouped
// by the package they measure. A layer a workload bypasses reports 0.
var perLayerDefs = []metricDef{
	// The harness and the network under it: the floor of every latency.
	{"loadgen.cpu_ms_per_op", "ms", "lower"},
	{"loadgen.late_p99_us", "us", "lower"},
	{"net.floor_us", "us", "lower"},
	{"net.conn_wait_us", "us", "lower"},
	{"net.ttfb_us", "us", "lower"},
	{"trace.overhead_share", "share", "lower"},
	// What each class of user waits for, where the workload has that class.
	{"client.op_p99_ms", "ms", "lower"},
	{"client.read_p50_ms", "ms", "lower"},
	{"client.read_p99_ms", "ms", "lower"},
	{"client.search_p50_ms", "ms", "lower"},
	{"client.entity_p50_ms", "ms", "lower"},
	{"client.contribute_p50_ms", "ms", "lower"},
	{"client.contribute_p99_ms", "ms", "lower"},
	{"client.slo_miss_share", "share", "lower"},
	{"client.sweep_s", "s", "lower"},
	// rspserver: handlers on a recorder, and the live request histogram.
	{"rspserver.serve_entity_us", "us", "lower"},
	{"rspserver.serve_search_us", "us", "lower"},
	{"rspserver.serve_reviews_us", "us", "lower"},
	{"rspserver.serve_directory_us", "us", "lower"},
	{"rspserver.serve_token_us", "us", "lower"},
	{"rspserver.serve_upload_us", "us", "lower"},
	{"rspserver.serve_review_post_us", "us", "lower"},
	{"rspserver.accept_upload_us", "us", "lower"},
	{"rspserver.chain_us", "us", "lower"},
	{"rspserver.search_codec_us", "us", "lower"},
	{"rspserver.upload_codec_us", "us", "lower"},
	{"rspserver.live_entity_us", "us", "lower"},
	{"rspserver.live_search_us", "us", "lower"},
	{"rspserver.live_token_us", "us", "lower"},
	{"rspserver.live_upload_us", "us", "lower"},
	{"rspserver.resp_bytes_per_op", "B", "lower"},
	{"rspserver.cpu_ms_per_op", "ms", "lower"},
	{"rspserver.sheds", "count", "lower"},
	{"rspserver.stall_max_ms", "ms", "lower"},
	{"readcache.hit_ratio", "share", "higher"},
	{"readcache.invalidations", "count", "lower"},
	{"readcache.get_ns", "ns", "lower"},
	{"readcache.put_ns", "ns", "lower"},
	{"search.search_us", "us", "lower"},
	{"search.candidates_per_query", "count", "lower"},
	{"search.describe_us", "us", "lower"},
	{"aggregate.build_us", "us", "lower"},
	{"history.by_entity_us", "us", "lower"},
	{"reviews.page_us", "us", "lower"},
	{"blindsig.sign_us", "us", "lower"},
	{"blindsig.redeem_us", "us", "lower"},
	{"rspclient.blind_us", "us", "lower"},
	{"store.commit_mem_us", "us", "lower"},
	{"store.commit_nosync_us", "us", "lower"},
	{"store.commit_fsync_us", "us", "lower"},
	{"store.commit_fsync_2x_us", "us", "lower"},
	{"store.ledger_begin_ns", "ns", "lower"},
	{"store.fsyncs_per_commit", "count", "lower"},
	{"store.fsync_mean_us", "us", "lower"},
	{"store.wal_bytes_per_commit", "B", "lower"},
	{"store.disk_write_bytes_per_commit", "B", "lower"},
	{"store.compactions", "count", "lower"},
	// Stop-the-world work, on a store of the preload's size.
	{"store.snapshot_ms", "ms", "lower"},
	{"store.compact_ms", "ms", "lower"},
	{"storage.write_ms", "ms", "lower"},
	{"storage.read_ms", "ms", "lower"},
	{"storage.snapshot_bytes", "B", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"store.recover_after_kill_ms", "ms", "lower"},
	{"rspserver.sweep_ms", "ms", "lower"},
	{"fraud.profile_ms", "ms", "lower"},
	{"fraud.filter_ms", "ms", "lower"},
	{"store.barrier_commit_ms", "ms", "lower"},
	{"rspserver.retrain_ms", "ms", "lower"},
	{"inference.trainset_ms", "ms", "lower"},
	{"cluster.partition_ns", "ns", "lower"},
	{"gather.fanout_mean_us", "us", "lower"},
	{"gather.cache_hit_ratio", "share", "higher"},
	{"gather.partials", "count", "lower"},
	{"gather.misroutes", "count", "lower"},
	{"world.catalog_ms", "ms", "lower"},
	{"world.preload_ms", "ms", "lower"},
	// What the rungs add up to beside what was measured live.
	{"ladder.search_sum_us", "us", "lower"},
	{"ladder.search_unattributed_us", "us", "lower"},
	{"ladder.contribute_sum_us", "us", "lower"},
	{"ladder.contribute_unattributed_us", "us", "lower"},
}

// liveLayers derives the per-layer metrics that come from outside the
// server process during the traced window: client spans, /metrics
// deltas and /proc. plain is the untraced window run just before.
func liveLayers(workload string, win, plain *window) map[string]float64 {
	out := make(map[string]float64)
	rec, m := win.rec, win.metrics
	ok := float64(rec.okOps)
	spans := win.tracer.Durations()
	spanUS := func(name string) float64 {
		if s := spans[name]; s != nil {
			return us(s.quantile(0.5))
		}
		return 0
	}

	out["loadgen.cpu_ms_per_op"] = ratio(ms(win.loadgen), ok)
	if rec.late.n() > 0 {
		late, _ := rec.late.tail(0.99)
		out["loadgen.late_p99_us"] = us(late)
	}
	out["net.floor_us"] = us(win.floor.quantile(0.5))
	out["net.conn_wait_us"] = spanUS("net.conn_wait")
	out["net.ttfb_us"] = spanUS("net.ttfb")
	tracedRate := ok / win.elapsed.Seconds()
	plainRate := float64(plain.rec.okOps) / plain.elapsed.Seconds()
	out["trace.overhead_share"] = ratio(plainRate-tracedRate, plainRate)

	e2e, _ := endToEnd([]*window{win}, 0, 0)
	for _, d := range endToEndDefs[universal:] {
		if v := e2e[d.Name]; v != nil {
			out["client."+d.Name] = *v
		}
	}

	route := func(r string) float64 { return m.histMeanUS("rsp_http_request_seconds", `{route="`+r+`"}`) }
	out["rspserver.live_entity_us"] = route("/api/entity")
	out["rspserver.live_search_us"] = route("/api/search")
	out["rspserver.live_token_us"] = route("/api/token")
	out["rspserver.live_upload_us"] = route("/api/upload")
	out["rspserver.resp_bytes_per_op"] = ratio(m.sum("rsp_http_response_bytes_total"), ok)
	out["rspserver.cpu_ms_per_op"] = ratio(ms(win.server.cpu), ok) // the whole window, maintenance included
	out["rspserver.sheds"] = m.sum("rsp_http_sheds_total")
	out["rspserver.stall_max_ms"] = ms(rec.worst)

	hits, misses := m.sum("readcache_hits_total"), m.sum("readcache_misses_total")
	out["readcache.hit_ratio"] = ratio(hits, hits+misses)
	out["readcache.invalidations"] = m.sum("readcache_invalidations_total")

	commits := m.sum("store_commits_total")
	out["store.fsyncs_per_commit"] = ratio(m.sum("wal_fsyncs_total"), commits)
	out["store.fsync_mean_us"] = m.histMeanUS("wal_fsync_seconds", "")
	out["store.wal_bytes_per_commit"] = ratio(m.sum("wal_appended_bytes_total"), commits)
	out["store.disk_write_bytes_per_commit"] = ratio(float64(win.server.writeBytes), commits)
	out["store.compactions"] = m.sum("wal_compactions_total")

	if workload == Ring3 {
		out["gather.fanout_mean_us"] = m.histMeanUS("cluster_fanout_partition_seconds", "")
		gathers, cached := m.sum("cluster_fanout_total"), m.sum("cluster_gather_cache_hits_total")
		out["gather.cache_hit_ratio"] = ratio(cached, gathers+cached)
		out["gather.partials"] = m.sum("cluster_fanout_partials_total")
		out["gather.misroutes"] = m.sum("cluster_misroutes_total")
	}
	return out
}
