package main

// spec names one reported metric. BENCHMARK.json declares the same
// names, units and directions, plus each end-to-end bound; README.md
// says which end-to-end metric each per-layer metric should move.
type spec struct{ name, unit, better string }

// endToEnd is what a user of the system sees, from tracing-off runs.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"ckpt_mbps", "MB/s", "higher"},
	{"write_p50_us", "us", "lower"},
	{"write_p99_us", "us", "lower"},
	{"restart_mbps", "MB/s", "higher"},
	{"read_p50_us", "us", "lower"},
	{"read_p99_us", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is each layer's work, time and failures, per traced round.
var perLayer = []spec{
	{"core.write_calls", "count", "lower"},
	{"core.write_busy_s", "s", "lower"},
	{"core.pool_waits", "count", "lower"},
	{"core.close_wait_s", "s", "lower"},
	{"core.open_s", "s", "lower"},
	{"core.read_calls", "count", "lower"},
	{"core.read_busy_s", "s", "lower"},
	{"core.prefetch_hit_ratio", "ratio", "higher"},
	{"core.prefetch_wasted", "count", "lower"},
	{"chunker.aggregation_ratio", "ratio", "higher"},
	{"chunker.chunks_flushed", "count", "lower"},
	{"codec.encode_calls", "count", "lower"},
	{"codec.encode_busy_s", "s", "lower"},
	{"codec.ratio", "ratio", "higher"},
	{"codec.raw_frames", "count", "lower"},
	{"osfs.write_calls", "count", "lower"},
	{"osfs.write_bytes", "B", "lower"},
	{"osfs.write_busy_s", "s", "lower"},
	{"osfs.write_p50_us", "us", "lower"},
	{"osfs.write_p99_us", "us", "lower"},
	{"osfs.bytes_per_user_byte", "ratio", "lower"},
	{"osfs.read_calls", "count", "lower"},
	{"osfs.read_busy_s", "s", "lower"},
	{"osfs.direct_mbps", "MB/s", "higher"},
	{"client.put_calls", "count", "lower"},
	{"client.put_p50_ms", "ms", "lower"},
	{"client.put_p99_ms", "ms", "lower"},
	{"client.get_calls", "count", "lower"},
	{"client.get_p50_ms", "ms", "lower"},
	{"client.get_p99_ms", "ms", "lower"},
	{"client.errors", "count", "lower"},
	{"server.requests", "count", "lower"},
	{"server.request_errors", "count", "lower"},
	{"server.bytes_in", "B", "lower"},
	{"server.bytes_out", "B", "lower"},
	{"server.osfs_write_busy_s", "s", "lower"},
	{"stripe.node_busy_ratio", "ratio", "higher"},
	{"stripe.chunks_put", "count", "lower"},
	{"stripe.chunks_got", "count", "lower"},
	{"stripe.replica_fallbacks", "count", "lower"},
	{"stripe.checksum_failed", "count", "lower"},
	{"obs.trace_overhead_pct", "%", "lower"},
}

// layerValues turns the counters summed over the traced rounds into the
// per-layer metrics: counts, bytes and busy times per round, ratios of
// the sums, percentiles of the traced calls.
func layerValues(t tally, rounds int, p *probe, userBytes int64, direct, overheadPct float64) map[string]float64 {
	per := func(k string) float64 { return ratio(float64(t[k]), float64(rounds)) }
	secs := func(k string) float64 { return per(k) / 1e9 }
	pct := func(s *samples, q, unit float64) float64 { return quantile(s.snapshot(), q) / unit }
	return map[string]float64{
		"core.write_calls":          per("core.writes"),
		"core.write_busy_s":         secs("core.write_ns"),
		"core.pool_waits":           per("core.pool_waits"),
		"core.close_wait_s":         secs("core.close_ns"),
		"core.open_s":               secs("core.open_ns"),
		"core.read_calls":           per("core.reads"),
		"core.read_busy_s":          secs("core.read_ns"),
		"core.prefetch_hit_ratio":   ratio(per("core.prefetch_hits"), per("core.prefetch_hits")+per("core.prefetch_misses")),
		"core.prefetch_wasted":      per("core.prefetch_wasted"),
		"chunker.aggregation_ratio": ratio(per("core.writes"), per("core.backend_writes")),
		"chunker.chunks_flushed":    per("core.chunks_flushed"),
		"codec.encode_calls":        per("codec.encode_calls"),
		"codec.encode_busy_s":       secs("codec.encode_ns"),
		"codec.ratio":               ratio(per("codec.bytes_in"), per("codec.bytes_out")),
		"codec.raw_frames":          per("codec.raw_frames"),
		"osfs.write_calls":          per("osfs.write_calls"),
		"osfs.write_bytes":          per("osfs.write_bytes"),
		"osfs.write_busy_s":         secs("osfs.write_ns"),
		"osfs.write_p50_us":         pct(&p.osfsWriteLat, 0.50, 1e3),
		"osfs.write_p99_us":         pct(&p.osfsWriteLat, 0.99, 1e3),
		"osfs.bytes_per_user_byte":  ratio(per("osfs.write_bytes"), float64(userBytes)),
		"osfs.read_calls":           per("osfs.read_calls"),
		"osfs.read_busy_s":          secs("osfs.read_ns"),
		"osfs.direct_mbps":          direct,
		"client.put_calls":          per("client.put_calls"),
		"client.put_p50_ms":         pct(&p.putLat, 0.50, 1e6),
		"client.put_p99_ms":         pct(&p.putLat, 0.99, 1e6),
		"client.get_calls":          per("client.get_calls"),
		"client.get_p50_ms":         pct(&p.getLat, 0.50, 1e6),
		"client.get_p99_ms":         pct(&p.getLat, 0.99, 1e6),
		"client.errors":             per("client.errors"),
		"server.requests":           per("server.requests"),
		"server.request_errors":     per("server.request_errors"),
		"server.bytes_in":           per("server.bytes_in"),
		"server.bytes_out":          per("server.bytes_out"),
		"server.osfs_write_busy_s":  secs("server.osfs_write_ns"),
		"stripe.node_busy_ratio":    ratio(per("stripe.node_busy_ns"), stripeNodes*per("stripe.wall_ns")),
		"stripe.chunks_put":         per("stripe.chunks_put"),
		"stripe.chunks_got":         per("stripe.chunks_got"),
		"stripe.replica_fallbacks":  per("stripe.replica_fallbacks"),
		"stripe.checksum_failed":    per("stripe.checksum_failed"),
		"obs.trace_overhead_pct":    overheadPct,
	}
}

// ratio is a/b, or 0 when b is 0, so no metric is ever NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
