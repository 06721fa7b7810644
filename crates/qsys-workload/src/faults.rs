//! Fault-schedule generation for chaos experiments.
//!
//! [`FaultPlan`] assembles the fault-schedule strings the engine's
//! fault injector parses (`qsys_source::fault::FaultSpec`): deterministic
//! seeded transient-error rates, slow rounds, hard outage windows, and the
//! lane panic hook. The interface is the grammar *string* on purpose —
//! workload generation stays independent of the source layer, and
//! `FaultSpec::parse` turns the plan into `EngineConfig::faults`.
//!
//! ```
//! use qsys_workload::faults::FaultPlan;
//! let spec = FaultPlan::new(7)
//!     .transient(0.01)
//!     .outage(3, 0, None)
//!     .slow(5, 0.2, 6.0)
//!     .build();
//! assert_eq!(spec, "seed=7; transient=0.01; rel3:outage=0..; rel5:slow=0.2x6");
//! ```

/// Builder for one deterministic fault schedule.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    clauses: Vec<String>,
}

impl FaultPlan {
    /// Start a plan; `seed` drives every probabilistic draw the injector
    /// makes, so equal plans replay identically.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            clauses: Vec::new(),
        }
    }

    /// Default transient-error rate applied to every relation without its
    /// own scoped clause (`rate` in `[0, 1]`).
    pub fn transient(mut self, rate: f64) -> Self {
        self.clauses.push(format!("transient={rate}"));
        self
    }

    /// Default slow-round schedule: each fetch round is slowed with
    /// probability `rate`, its network delay multiplied by `mult`.
    #[cfg(test)]
    pub(crate) fn slow_default(mut self, rate: f64, mult: f64) -> Self {
        self.clauses.push(format!("slow={rate}x{mult}"));
        self
    }

    /// Transient-error rate for one relation (replaces the defaults for
    /// that relation).
    pub fn rel_transient(mut self, rel: u32, rate: f64) -> Self {
        self.clauses.push(format!("rel{rel}:transient={rate}"));
        self
    }

    /// Slow-round schedule for one relation.
    pub fn slow(mut self, rel: u32, rate: f64, mult: f64) -> Self {
        self.clauses.push(format!("rel{rel}:slow={rate}x{mult}"));
        self
    }

    /// Hard outage of one relation over `[start_us, end_us)` virtual time;
    /// `None` keeps it dark for the rest of the run.
    pub fn outage(mut self, rel: u32, start_us: u64, end_us: Option<u64>) -> Self {
        let end = end_us.map(|e| e.to_string()).unwrap_or_default();
        self.clauses
            .push(format!("rel{rel}:outage={start_us}..{end}"));
        self
    }

    /// Panic the lane on the first fetch touching `rel` (exercises the
    /// engine's lane panic isolation).
    pub fn panic_on(mut self, rel: u32) -> Self {
        self.clauses.push(format!("rel{rel}:panic"));
        self
    }

    /// Render the fault-schedule string (`FaultSpec::parse`'s grammar).
    pub fn build(&self) -> String {
        let mut out = format!("seed={}", self.seed);
        for clause in &self.clauses {
            out.push_str("; ");
            out.push_str(clause);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_only_plan() {
        assert_eq!(FaultPlan::new(41).build(), "seed=41");
    }

    #[test]
    fn clauses_render_in_insertion_order() {
        let spec = FaultPlan::new(7)
            .transient(0.05)
            .slow_default(0.1, 4.0)
            .rel_transient(2, 0.5)
            .outage(3, 1_000, Some(2_000))
            .outage(9, 0, None)
            .panic_on(11)
            .build();
        assert_eq!(
            spec,
            "seed=7; transient=0.05; slow=0.1x4; rel2:transient=0.5; \
             rel3:outage=1000..2000; rel9:outage=0..; rel11:panic"
        );
    }
}
