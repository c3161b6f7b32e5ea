package serve

import (
	"repro/internal/serve/journal"
	"repro/internal/serve/metrics"
)

// RegisterBackendMetrics exposes a serving backend's counters as
// carserve_* Prometheus series. The whole export is one lock-free
// Stats() call per scrape — no second bookkeeping layer that could drift
// from /v1/stats, and no scrape-time contention with rank traffic.
func RegisterBackendMetrics(reg *metrics.Registry, b Backend) {
	reg.Collect(func(w *metrics.Writer) {
		st := b.Stats()
		gauge := func(name, help string, v float64) {
			w.Family(name, "gauge", help)
			w.Sample(name, v)
		}
		counter := func(name, help string, v float64) {
			w.Family(name, "counter", help)
			w.Sample(name, v)
		}

		gauge("carserve_uptime_seconds", "Seconds since the backend started.", st.UptimeSeconds)
		gauge("carserve_epoch", "Current facade epoch (vocabulary/data version).", float64(st.Epoch))
		gauge("carserve_rules", "Registered preference rules.", float64(st.Rules))
		gauge("carserve_sessions", "Live sessions.", float64(st.Sessions))
		gauge("carserve_events", "Declared basic events (growth = event leak).", float64(st.Events))
		counter("carserve_rank_requests_total", "Rank requests (single + batch items).", float64(st.Requests))

		w.Family("carserve_rank_latency_seconds", "histogram", "Rank call latency.")
		if len(st.Latency.Buckets) > 0 {
			// The recorder tracks an exact all-time sum in microseconds via
			// the mean; reconstruct seconds for the histogram _sum line.
			sum := st.Latency.MeanMicros * float64(st.Latency.Count) / 1e6
			w.Histogram("carserve_rank_latency_seconds", RankLatencyBuckets, st.Latency.Buckets, sum)
		}

		exportCache(counter, gauge, "carserve_rank_cache", "rank-result", st.Cache)
		exportCache(counter, gauge, "carserve_plan_cache", "compiled-rank-plan", st.Plans)

		if j := st.Journal; j != nil {
			exportJournal(w, counter, gauge, *j)
		}

		if c := st.Checkpoints; c != nil {
			counter("carserve_checkpoints_total", "Completed background checkpoints.", float64(c.Count))
			counter("carserve_checkpoint_failures_total", "Failed background checkpoint attempts.", float64(c.Failures))
			gauge("carserve_checkpoint_last_unixtime", "Completion time of the last successful checkpoint.", float64(c.LastUnix))
			gauge("carserve_checkpoint_last_duration_seconds", "Wall time of the last successful checkpoint.", c.LastDurationMicros/1e6)
			gauge("carserve_checkpoint_last_seq", "Highest journal sequence the last checkpoint covered.", float64(c.LastSeq))
		}

		if rs := st.Recovery; rs != nil {
			counter("carserve_recovery_records_total", "WAL records read during boot-time recovery.", float64(rs.Records))
			w.Family("carserve_recovery_applied_total", "counter", "Recovery records re-applied, by kind.")
			w.Sample("carserve_recovery_applied_total", float64(rs.Users), "kind", "session")
			w.Sample("carserve_recovery_applied_total", float64(rs.VocabApplied()), "kind", "vocab")
			w.Family("carserve_recovery_skipped_total", "counter", "Recovery records skipped, by reason.")
			w.Sample("carserve_recovery_skipped_total", float64(rs.SkippedCheckpoint), "reason", "checkpoint_covered")
			w.Sample("carserve_recovery_skipped_total", float64(rs.SkippedDuplicate), "reason", "duplicate_broadcast")
			counter("carserve_recovery_failed_total", "Recovery records whose re-apply failed (preserved in the WAL).", float64(rs.Failed))
		}

		if hp := st.HotPath; hp != nil {
			// Process-global rank hot-path counters (see core.HotPathStats).
			w.Family("carserve_rank_scratch_total", "counter", "Rank scratch-arena acquisitions, by provenance (fresh = pool had to allocate).")
			w.Sample("carserve_rank_scratch_total", float64(hp.ScratchGets-hp.ScratchNews), "result", "pooled")
			w.Sample("carserve_rank_scratch_total", float64(hp.ScratchNews), "result", "fresh")
			w.Family("carserve_doc_dist_cache_total", "counter", "Plan document-distribution cache lookups.")
			w.Sample("carserve_doc_dist_cache_total", float64(hp.DocCacheHits), "result", "hit")
			w.Sample("carserve_doc_dist_cache_total", float64(hp.DocCacheMisses), "result", "miss")
		}

		if sub := st.Subs; sub != nil {
			gauge("carserve_subscriptions_active", "Registered standing rank subscriptions.", float64(sub.Active))
			counter("carserve_subscription_events_total", "Subscription events pushed (snapshots + deltas + errors).", float64(sub.Events))
			w.Family("carserve_subscription_evals_total", "counter", "Subscription re-rank evaluations, by outcome (skipped = state key unchanged).")
			w.Sample("carserve_subscription_evals_total", float64(sub.Evals), "result", "evaluated")
			w.Sample("carserve_subscription_evals_total", float64(sub.Skipped), "result", "skipped")
			counter("carserve_subscription_lag_events_total", "Events dropped because a stream consumer was behind (each run ends in a resync).", float64(sub.Lagged))
		}

		// Failure-domain series: the health state gauge, the recovered-panic
		// counter and the degraded-mode counters.
		counter("carserve_panics_total", "Panics recovered by the serving stack (per-request isolation) instead of killing the daemon.", float64(panicsTotal.Load()))
		if h := st.Health; h != nil {
			w.Family("carserve_health", "gauge", "Backend health by state (1 = the backend is in that state).")
			for _, state := range []string{StateHealthy, StateDegraded} {
				v := 0.0
				if h.State == state {
					v = 1.0
				}
				w.Sample("carserve_health", v, "state", state)
			}
			counter("carserve_degraded_recoveries_total", "Degraded-to-healthy transitions (the disk came back and the WAL re-armed).", float64(h.Recoveries))
			gauge("carserve_unjournaled_tail_records", "Applied-but-unjournaled records awaiting re-journal on disk recovery.", float64(h.UnjournaledTail))
		}
	})
}

// exportCache emits one cache's hit/miss/evict counters and occupancy +
// hit-ratio gauges under the given series prefix.
func exportCache(counter, gauge func(name, help string, v float64), prefix, what string, c CacheStats) {
	counter(prefix+"_hits_total", "Hits in the "+what+" cache.", float64(c.Hits))
	counter(prefix+"_misses_total", "Misses in the "+what+" cache.", float64(c.Misses))
	counter(prefix+"_evicted_total", "Evictions from the "+what+" cache.", float64(c.Evicted))
	gauge(prefix+"_size", "Entries in the "+what+" cache.", float64(c.Size))
	gauge(prefix+"_hit_ratio", "Hit fraction of the "+what+" cache since start.", c.HitRate)
}

// exportJournal emits the WAL counters and the group-commit batch-size
// histogram.
func exportJournal(w *metrics.Writer, counter, gauge func(name, help string, v float64), j journal.Stats) {
	counter("carserve_journal_appends_total", "Acknowledged WAL records.", float64(j.Appends))
	counter("carserve_journal_fsyncs_total", "WAL file syncs.", float64(j.Fsyncs))
	counter("carserve_journal_compactions_total", "WAL live-record rewrites.", float64(j.Compactions))
	counter("carserve_journal_compact_failures_total", "Failed WAL compaction attempts.", float64(j.CompactFailures))
	gauge("carserve_journal_bytes", "WAL file size.", float64(j.Bytes))
	gauge("carserve_journal_live_records", "Users with a live WAL record.", float64(j.LiveRecords))
	gauge("carserve_journal_vocab_records", "Vocabulary records awaiting a checkpoint.", float64(j.VocabRecords))
	gauge("carserve_journal_vocab_bytes", "WAL bytes of vocabulary records since the last checkpoint (the size trigger's input).", float64(j.VocabBytes))
	gauge("carserve_journal_checkpoint_seq", "Highest journal sequence covered by a checkpoint.", float64(j.CheckpointSeq))
	degraded := 0.0
	if j.Degraded {
		degraded = 1.0
	}
	gauge("carserve_journal_degraded", "1 while the WAL is sticky-failed and mutations are rejected.", degraded)
	counter("carserve_journal_resets_total", "Successful WAL re-arms after a sticky write error (ResetAfter).", float64(j.Resets))

	w.Family("carserve_journal_batch_records", "histogram",
		"Records per group commit: mass above 1 means concurrent applies share fsyncs.")
	if len(j.BatchSizes) > 0 {
		bounds := make([]float64, len(journal.BatchSizeBuckets))
		for i, b := range journal.BatchSizeBuckets {
			bounds[i] = float64(b)
		}
		// _sum is total records = Appends; _count is Batches.
		w.Histogram("carserve_journal_batch_records", bounds, j.BatchSizes, float64(j.Appends))
	}
}

// RegisterAdmissionMetrics exposes the admission controller's state.
// Safe to call with adm == nil: the series are emitted as zeros so
// dashboards and alerts need not special-case unlimited deployments.
func RegisterAdmissionMetrics(reg *metrics.Registry, adm *Admission) {
	reg.Collect(func(w *metrics.Writer) {
		st := adm.Stats()
		w.Family("carserve_inflight_requests", "gauge", "Requests currently executing past the admission gate.")
		w.Sample("carserve_inflight_requests", float64(st.InFlight))
		w.Family("carserve_queued_requests", "gauge", "Requests waiting for an in-flight slot.")
		w.Sample("carserve_queued_requests", float64(st.Queued))
		w.Family("carserve_admitted_total", "counter", "Requests admitted past the gate.")
		w.Sample("carserve_admitted_total", float64(st.Admitted))
		w.Family("carserve_shed_total", "counter", "Requests shed with 429, by reason.")
		w.Sample("carserve_shed_total", float64(st.ShedQueue), "reason", "queue_full")
		w.Sample("carserve_shed_total", float64(st.ShedUser), "reason", "rate_limit")
	})
}
