package main

import "strings"

// layerMetricNames is every per-layer metric. Each workload reports all of
// them; a metric of a layer the workload does not exercise reads 0.
// README.md defines each one and says which end-to-end metric it should
// move on which workload.
var layerMetricNames = []string{
	// core: the dominance engine.
	"core.search_self_ms", "core.dominates_replay_us", "core.dominates_nofilter_us",
	"core.dominance_checks", "core.instance_comparisons", "core.stat_prunes",
	"core.mbr_validations", "core.sphere_validations", "core.level_decisions",
	"core.flow_solves", "core.heap_pops", "core.entry_prunes", "core.examined", "core.candidates",
	"core.allocs_per_query", "core.alloc_bytes_per_query",
	// rtree: the in-memory global tree.
	"rtree.expand_ms", "rtree.expands",
	// diskindex and pager: the read path.
	"diskindex.expand_ms", "diskindex.expand_self_ms", "diskindex.resolve_ms", "diskindex.resolve_self_ms",
	"diskindex.expands", "diskindex.resolves", "diskindex.objcache_hits", "diskindex.objcache_evictions",
	"pager.file_read_ms", "pager.file_reads", "pager.pool_hits", "pager.pool_misses", "pager.pool_hit_ratio",
	"diskindex.allocs_per_query", "diskindex.file_bytes_per_user_byte", "diskindex.build_s", "diskindex.open_s",
	// diskindex and wal: the write path.
	"diskindex.insert_p50_us", "diskindex.delete_p50_us", "diskindex.commit_self_us", "diskindex.query_p50_ms",
	"diskindex.checkpoints_per_1k_commits", "diskindex.checkpoint_stall_ms",
	"wal.write_us_per_commit", "wal.sync_us_per_commit", "wal.syncs_per_commit", "wal.writes_per_commit",
	"wal.bytes_per_commit", "pager.page_writes_per_commit",
	// server and front: the serving tier.
	"http.roundtrip_self_us", "front.handler_self_us", "server.codec_self_us", "front.door_self_us",
	"front.hit_p50_us", "front.miss_p50_ms", "server.insert_p50_us", "server.delete_p50_us",
	"front.cache_hit_ratio", "front.invalidations_per_write", "front.cache_entries", "front.cache_bytes",
	"front.coalesce_hits", "server.req_bytes_per_query", "server.resp_bytes_per_query", "server.allocs_per_request",
	// set-up and the harness itself.
	"setup.build_s", "setup.warm_s", "trace.overhead_pct", "trace.residual_pct",
}

// layerUnit reads a per-layer metric's unit off its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"), strings.HasSuffix(name, "_us_per_commit"):
		return "us"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_per_user_byte"):
		return "ratio"
	case strings.Contains(name, "bytes"):
		return "bytes"
	}
	return "count"
}
