//! Ingestion and serving counters, surfaced by the `STATS` command.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic daemon counters. All relaxed: they are observability, not
/// synchronization — the `SYNC` barrier tolerates eventual visibility by
/// re-polling.
#[derive(Debug, Default)]
pub struct IngestStats {
    /// Shards admitted into the fold queue (socket + watcher).
    pub enqueued: AtomicU64,
    /// Shards folded into some version's state.
    pub folded: AtomicU64,
    /// Shards skipped as duplicates (sequence number already absorbed).
    pub duplicates: AtomicU64,
    /// Shards rejected because they did not decode at all.
    pub rejected_decode: AtomicU64,
    /// Shards rejected by the salvage policy (checksum-silent corruption,
    /// or too large a dropped fraction).
    pub rejected_salvage: AtomicU64,
    /// Damaged shards accepted under the drop-fraction budget.
    pub salvaged_accepted: AtomicU64,
    /// Shards whose fold failed after admission (unreachable when the
    /// state's parameters measure its own deltas; kept so the `SYNC`
    /// barrier stays sound even if it ever happens).
    pub fold_errors: AtomicU64,
    /// `-RETRY` responses sent because the admission queue was full.
    pub retry_busy: AtomicU64,
    /// Checkpoints written.
    pub checkpoints: AtomicU64,
    /// Layout queries answered.
    pub queries: AtomicU64,
    /// Sum of `RepairReport::declared` over all decoded shards.
    pub repair_declared: AtomicU64,
    /// Sum of `RepairReport::decoded` over all decoded shards.
    pub repair_decoded: AtomicU64,
    /// Sum of `RepairReport::dropped` over all decoded shards.
    pub repair_dropped: AtomicU64,
    /// Jobs currently sitting in the admission queue (gauge: incremented
    /// on enqueue, decremented when a worker drains the job).
    pub queue_depth: AtomicU64,
    /// `QUERY` commands shed with `-RETRY` while degraded.
    pub shed_queries: AtomicU64,
    /// Transitions into the degraded tier.
    pub degraded_entered: AtomicU64,
    /// Command lines rejected as malformed (unknown verb, bad arity,
    /// over-long or unparseable line).
    pub malformed_lines: AtomicU64,
    /// Watch-dir files quarantined after repeated unreadable sweeps.
    pub watch_quarantined: AtomicU64,
    /// Versions evicted by the state GC.
    pub evicted_versions: AtomicU64,
    /// Snapshot bytes freed by the state GC.
    pub evicted_bytes: AtomicU64,
    /// Checkpoint files quarantined during resume (torn/corrupt states).
    pub resume_quarantined: AtomicU64,
    /// Resumes that fell back to the previous checkpoint generation.
    pub resume_fallbacks: AtomicU64,
}

impl IngestStats {
    /// Bump a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Add to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// A named snapshot of every counter, in stable order (the `STATS`
    /// response body).
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        vec![
            ("enqueued", g(&self.enqueued)),
            ("folded", g(&self.folded)),
            ("duplicates", g(&self.duplicates)),
            ("rejected_decode", g(&self.rejected_decode)),
            ("rejected_salvage", g(&self.rejected_salvage)),
            ("salvaged_accepted", g(&self.salvaged_accepted)),
            ("fold_errors", g(&self.fold_errors)),
            ("retry_busy", g(&self.retry_busy)),
            ("checkpoints", g(&self.checkpoints)),
            ("queries", g(&self.queries)),
            ("repair_declared", g(&self.repair_declared)),
            ("repair_decoded", g(&self.repair_decoded)),
            ("repair_dropped", g(&self.repair_dropped)),
            ("queue_depth", g(&self.queue_depth)),
            ("shed_queries", g(&self.shed_queries)),
            ("degraded_entered", g(&self.degraded_entered)),
            ("malformed_lines", g(&self.malformed_lines)),
            ("watch_quarantined", g(&self.watch_quarantined)),
            ("evicted_versions", g(&self.evicted_versions)),
            ("evicted_bytes", g(&self.evicted_bytes)),
            ("resume_quarantined", g(&self.resume_quarantined)),
            ("resume_fallbacks", g(&self.resume_fallbacks)),
        ]
    }

    /// Decrement a gauge, saturating at zero.
    pub fn dec(counter: &AtomicU64) {
        let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(1))
        });
    }

    /// Count `n` shards as settled under `counter` (`folded`,
    /// `duplicates` or `fold_errors`). The `Release` pairs with the
    /// `Acquire` loads of [`IngestStats::settled`], so a `SYNC` that sees
    /// the count also sees the fold, checkpoint and GC work done before it.
    pub fn settle(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Release);
    }

    /// Shards whose admission outcome is settled past the queue: folded,
    /// recognized as duplicates, or failed to fold. The `SYNC` barrier
    /// waits for this to catch up with `enqueued`.
    pub fn settled(&self) -> u64 {
        self.folded.load(Ordering::Acquire)
            + self.duplicates.load(Ordering::Acquire)
            + self.fold_errors.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_names_are_unique_and_ordered() {
        let s = IngestStats::default();
        IngestStats::bump(&s.folded);
        IngestStats::add(&s.repair_declared, 5);
        let snap = s.snapshot();
        let names: Vec<_> = snap.iter().map(|(n, _)| *n).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(snap.iter().find(|(n, _)| *n == "folded").unwrap().1, 1);
        assert_eq!(
            snap.iter()
                .find(|(n, _)| *n == "repair_declared")
                .unwrap()
                .1,
            5
        );
        assert_eq!(s.settled(), 1);
    }
}
