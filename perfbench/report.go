package main

import (
	"time"

	"stir/perfbench/harness"
)

// perLayer derives the per-layer metrics of a traced phase. Every metric is
// reported on every workload; a layer the workload bypasses reads 0. Counts
// are per pass (one replay of the collection), so they do not depend on the
// run's length.
func perLayer(b bench, l *layers, plain, tr *phase, generateS, compileS float64) map[string]metric {
	spans := l.rec.Spans()
	self := harness.SelfTimes(spans)
	durs := func(name string) []float64 {
		var out []float64
		for _, s := range spans {
			if s.Name == name {
				out = append(out, float64(s.End-s.Start)/1e6)
			}
		}
		return out
	}
	meanMs := func(name string) float64 { return ratio(float64(self[name].Total)/1e6, float64(self[name].Count)) }
	selfMs := func(name string) float64 { return ratio(float64(self[name].Self)/1e6, float64(self[name].Count)) }
	usPer := func(ns int64, n int64) float64 { return ratio(float64(ns)/1e3, float64(n)) }

	tweets := float64(tr.tweets)
	passes := float64(max(tr.passes, 1))
	in := b.inputs()

	ckptName := "worker.checkpoint"
	if _, ok := b.(*firehose); ok {
		ckptName = "stream.checkpoint"
	}
	ckpt := durs(ckptName)

	// Time inside Engine.Ingest: measured at the stream.Source seam on
	// firehose, from the block profile on geo-routed, where workers call
	// Ingest with no seam between.
	ingestNs := l.ingestNs.Load()
	if _, ok := b.(*geoRouted); ok {
		ingestNs = int64(harness.BlockedIn("stir/internal/stream.(*Engine).Ingest"))
	}

	var collectMs, runMs, pipeSelfMs float64
	if bt, ok := b.(*batch); ok {
		collectMs = float64(bt.collectNs.Load()) / 1e6 / passes
		runMs = float64(bt.runNs.Load()) / 1e6 / passes
		pipeSelfMs = float64(bt.runNs.Load()-bt.runResolverNs.Load()) / 1e6 / passes
	}

	plainRate, tracedRate := harness.Median(plain.rates), harness.Median(tr.rates)
	queries := float64(self["router.groups"].Count)

	return map[string]metric{
		"twitter.post_us_per_tweet":        {usPer(l.postNs.Load(), l.posts.Load()), "us"},
		"twitter.read_decode_us_per_tweet": {usPer(l.readGapNs.Load(), l.delivered.Load()), "us"},

		"stream.ingest_blocked_us_per_tweet": {ratio(float64(ingestNs)/1e3, tweets), "us"},
		"stream.profile_calls":               {float64(l.profiles.Load()) / passes, "count"},
		"stream.profile_us_per_call":         {usPer(l.profileNs.Load(), l.profiles.Load()), "us"},
		"stream.geo_share":                   {in.GeoShare, "ratio"},
		"stream.admitted_users":              {harness.Median(tr.admitted), "count"},

		"geocode.reverse_calls":       {float64(l.reverses.Load()) / passes, "count"},
		"geocode.reverse_ns_per_call": {ratio(float64(l.reverseNs.Load()), float64(l.reverses.Load())), "ns"},
		"geocode.nomatch_ratio":       {ratio(float64(l.noMatch.Load()), float64(l.reverses.Load())), "ratio"},
		"geofast.compile_s":           {compileS, "s"},
		"synth.generate_s":            {generateS, "s"},

		"storage.checkpoint_ms_p50":       {percentileOr0(ckpt, 50), "ms"},
		"storage.checkpoint_ms_max":       {harness.Max(ckpt), "ms"},
		"storage.checkpoint_dirty_users":  {ratio(float64(l.dirtyUsers.Load()), float64(l.ckpts.Load())), "count"},
		"storage.bytes_written_per_tweet": {ratio(float64(l.bytesWritten.Load()), tweets), "bytes"},
		"storage.syncs":                   {float64(l.syncs.Load()) / passes, "count"},

		"cluster.ingest_ms_per_batch":        {meanMs("cluster.ingest_batch"), "ms"},
		"cluster.worker_ingest_ms_per_batch": {meanMs("worker.ingest"), "ms"},
		"cluster.router_self_ms_per_batch":   {selfMs("cluster.ingest_batch"), "ms"},
		"cluster.forward_bytes_per_tweet":    {ratio(float64(l.forwardBytes.Load()), tweets), "bytes"},
		"cluster.scatter_bytes_per_query":    {ratio(float64(l.scatterBytes.Load()), queries), "bytes"},
		"cluster.worker_groupings_ms":        {meanMs("worker.groupings"), "ms"},
		"cluster.scatter_merge_ms":           {selfMs("router.groups"), "ms"},

		"pipeline.collect_ms": {collectMs, "ms"},
		"pipeline.run_ms":     {runMs, "ms"},
		"pipeline.self_ms":    {pipeSelfMs, "ms"},

		"proc.alloc_bytes_per_tweet": {ratio(float64(tr.use.Alloc), tweets), "bytes"},
		"proc.gc_cycles":             {float64(tr.use.GCs) / passes, "count"},

		"harness.query_late_ms_p90":        {percentileOr0(tr.lateness(), 90), "ms"},
		"harness.window_wait_us_per_tweet": {ratio(float64(tr.windowWait)/float64(time.Microsecond), tweets), "us"},
		"harness.untraced_tweets_per_s":    {plainRate, "tweets/s"},
		"harness.traced_tweets_per_s":      {tracedRate, "tweets/s"},
		"harness.trace_overhead_pct":       {100 * (plainRate - tracedRate) / plainRate, "%"},
	}
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func percentileOr0(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return harness.Percentile(xs, p)
}
