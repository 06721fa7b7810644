//! Retired subsystems' types, each with exactly one value.
//!
//! Lane sharding, adaptive mid-flight re-planning and the optimizer's warm
//! store are gone: ATC-CL runs one lane per cluster, every batch runs the
//! plan it was grafted with, and every batch derives its search inputs
//! afresh. Their `EngineConfig` fields and handles remain only because the
//! benchmark names them. ROADMAP item 1(b) un-pins the benchmark and
//! deletes this module with them.

/// The retired lane-sharding knob, carried by `EngineConfig::sharding`.
/// Its only value is [`ShardConfig::off`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardConfig(());

impl ShardConfig {
    /// The only value: every cluster runs on one lane.
    pub fn off() -> ShardConfig {
        ShardConfig(())
    }
}

/// The retired adaptive re-planning knob, carried by
/// `EngineConfig::adaptive`. Its only value is [`AdaptiveConfig::off`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveConfig(());

impl AdaptiveConfig {
    /// The only value: a batch runs the plan it was grafted with.
    pub fn off() -> AdaptiveConfig {
        AdaptiveConfig(())
    }
}

/// The retired optimizer warm store's handle, carried by
/// `QsManager::warm_cell` and accepted (and ignored) by
/// [`Optimizer::optimize_warm`](crate::Optimizer::optimize_warm). It holds
/// nothing: the store decided bit-identically to a cold search and ran no
/// faster.
#[derive(Debug, Default)]
pub struct WarmCell;
