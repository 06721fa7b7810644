//! Execution statistics: per user query, and per-tuple work per lane.
//!
//! Figures 7, 9, and 12 plot per-UQ running time; Table 4 reports
//! conjunctive queries executed; Figure 10 reports total input tuples
//! consumed. The ATC feeds the per-UQ ledger ([`ExecStats`]); the plan
//! graph's routing loop counts what each delivered tuple fans out into
//! ([`ExecWork`]).

use qsys_types::{CqId, RelId, UqId};
use std::collections::BTreeMap;

/// Per-user-query statistics.
#[derive(Debug, Clone)]
pub struct UqStats {
    /// The user query.
    pub uq: UqId,
    /// Virtual time when the query entered execution (µs).
    pub submitted_us: u64,
    /// Virtual time when its top-k was complete (µs).
    pub completed_us: Option<u64>,
    /// Results emitted.
    pub results: usize,
    /// Conjunctive queries the ATC actually activated (Table 4 metric).
    pub cqs_executed: Vec<CqId>,
    /// Relations this query reads that failed during its batch (empty on a
    /// clean run). Non-empty means the top-k is degraded: correct over
    /// everything the surviving sources delivered, but possibly missing
    /// answers that needed the failed relations.
    pub missing_rels: Vec<RelId>,
}

impl UqStats {
    /// Response time in virtual µs (None while running).
    pub fn response_us(&self) -> Option<u64> {
        self.completed_us
            .map(|c| c.saturating_sub(self.submitted_us))
    }
}

/// What the tuples a lane's streams delivered turned into on their way
/// through the plan graph — the work the virtual clock barely charges and
/// the host clock mostly spends. Plain counters on lane-local state (the
/// plan graph owns one), exact per workload and seed, identical at any
/// lane-thread count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecWork {
    /// Tuples delivered by stream leaves and routed (remote reads and
    /// replays of retained state alike).
    pub stream_reads: u64,
    /// Tuples handed to an m-join input.
    pub mjoin_inserts: u64,
    /// Access-module probes those inserts issued (stored and remote).
    pub mjoin_probes: u64,
    /// Partial results — the arriving tuple, or the output of a probe step
    /// that is not the last — dropped before they probed, because every
    /// rank-merge their completions would reach would reject them all (see
    /// the `mjoin` module docs). What they would have found is not counted
    /// anywhere below.
    pub partials_bounded_out: u64,
    /// Probe matches that passed every predicate and were materialised
    /// (`Tuple::join` calls: intermediate results, and the complete
    /// results some consumer could still keep).
    pub joins: u64,
    /// Complete join results m-joins found, built or not.
    pub mjoin_outputs: u64,
    /// … of which never built: every rank-merge they would have reached
    /// rejected them unbuilt (their verdicts are counted below like any
    /// other accept's).
    pub outputs_skipped: u64,
    /// Results offered to a rank-merge, built or not; always the sum of
    /// the three outcomes below.
    pub accepts: u64,
    /// … that reached an operator which had already emitted its k.
    pub after_k: u64,
    /// … that scored below the last pending candidate still needed.
    pub dominated: u64,
    /// … that entered the pending queue.
    pub enqueued: u64,
    /// Rank-merge maintenance cycles the ATC asked for.
    pub maintains: u64,
    /// … of which returned at once: nothing the cycle reads had changed
    /// since the operator's last one.
    pub maintains_skipped: u64,
    /// Probes the state manager issued at graft time, reconstructing a
    /// reused m-join's output history to prefill a new consumer (free on
    /// the virtual clock, not on the host's).
    pub recovery_probes: u64,
    /// Tuples those reconstructions materialised.
    pub recovery_joins: u64,
    /// Arrivals on storing m-join inputs, each charged to the virtual
    /// clock as one store.
    pub module_arrivals: u64,
    /// … of which wrote an entry: the first consumer of an m-join
    /// producer to see the result. The rest found the tuple already
    /// stored — by the stream leaf that read it, or by a sibling consumer
    /// of the same m-join — and only advanced their cursors (see the
    /// `access` module docs).
    pub module_pushes: u64,
    /// Storing inputs created at graft that attached to a module the
    /// producer's output already fills (every consumer of a stream leaf).
    pub inputs_attached: u64,
    /// … that got a new module, prefilled with an m-join producer's
    /// pre-epoch history (empty for one that has not emitted yet).
    pub inputs_prefilled: u64,
}

impl ExecWork {
    /// Add another lane's counters to these.
    pub fn absorb(&mut self, other: &ExecWork) {
        self.stream_reads += other.stream_reads;
        self.mjoin_inserts += other.mjoin_inserts;
        self.mjoin_probes += other.mjoin_probes;
        self.partials_bounded_out += other.partials_bounded_out;
        self.joins += other.joins;
        self.mjoin_outputs += other.mjoin_outputs;
        self.outputs_skipped += other.outputs_skipped;
        self.accepts += other.accepts;
        self.after_k += other.after_k;
        self.dominated += other.dominated;
        self.enqueued += other.enqueued;
        self.maintains += other.maintains;
        self.maintains_skipped += other.maintains_skipped;
        self.recovery_probes += other.recovery_probes;
        self.recovery_joins += other.recovery_joins;
        self.module_arrivals += other.module_arrivals;
        self.module_pushes += other.module_pushes;
        self.inputs_attached += other.inputs_attached;
        self.inputs_prefilled += other.inputs_prefilled;
    }
}

/// Ledger across user queries.
#[derive(Debug, Default, Clone)]
pub struct ExecStats {
    uqs: BTreeMap<UqId, UqStats>,
}

impl ExecStats {
    /// Fresh ledger.
    pub fn new() -> ExecStats {
        ExecStats::default()
    }

    /// Record submission.
    pub fn submit(&mut self, uq: UqId, now_us: u64) {
        self.uqs.entry(uq).or_insert(UqStats {
            uq,
            submitted_us: now_us,
            completed_us: None,
            results: 0,
            cqs_executed: Vec::new(),
            missing_rels: Vec::new(),
        });
    }

    /// Record completion (idempotent: the first completion wins).
    /// `missing_rels` lists relations the query reads that failed during
    /// its batch — empty means a full-fidelity top-k.
    pub fn complete(
        &mut self,
        uq: UqId,
        now_us: u64,
        results: usize,
        cqs: Vec<CqId>,
        missing_rels: Vec<RelId>,
    ) {
        if let Some(s) = self.uqs.get_mut(&uq) {
            if s.completed_us.is_none() {
                s.completed_us = Some(now_us);
                s.results = results;
                s.cqs_executed = cqs;
                s.missing_rels = missing_rels;
            }
        }
    }

    /// Stats for one UQ.
    pub fn uq(&self, uq: UqId) -> Option<&UqStats> {
        self.uqs.get(&uq)
    }

    /// Whether every submitted UQ has completed.
    #[cfg(test)]
    pub(crate) fn all_complete(&self) -> bool {
        self.uqs.values().all(|s| s.completed_us.is_some())
    }

    /// Merge another ledger (used when running multiple plan graphs /
    /// clustered ATCs).
    #[cfg(test)]
    pub(crate) fn merge(&mut self, other: ExecStats) {
        for (uq, s) in other.uqs {
            self.uqs.insert(uq, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_complete_response_time() {
        let mut st = ExecStats::new();
        st.submit(UqId::new(1), 100);
        assert!(!st.all_complete());
        st.complete(UqId::new(1), 500, 10, vec![CqId::new(0)], vec![]);
        let s = st.uq(UqId::new(1)).unwrap();
        assert_eq!(s.response_us(), Some(400));
        assert_eq!(s.results, 10);
        assert!(st.all_complete());
    }

    #[test]
    fn completion_is_idempotent() {
        let mut st = ExecStats::new();
        st.submit(UqId::new(1), 0);
        st.complete(UqId::new(1), 100, 5, vec![], vec![]);
        st.complete(
            UqId::new(1),
            999,
            7,
            vec![CqId::new(3)],
            vec![RelId::new(4)],
        );
        let s = st.uq(UqId::new(1)).unwrap();
        assert_eq!(s.completed_us, Some(100));
        assert_eq!(s.results, 5);
    }

    #[test]
    fn merge_combines_ledgers() {
        let mut a = ExecStats::new();
        a.submit(UqId::new(1), 0);
        let mut b = ExecStats::new();
        b.submit(UqId::new(2), 10);
        b.complete(UqId::new(2), 20, 1, vec![], vec![]);
        a.merge(b);
        assert!(a.uq(UqId::new(2)).is_some());
        assert!(!a.all_complete());
    }
}
