//! Retired subsystems' config types, each with exactly one value.
//!
//! Lane sharding and adaptive mid-flight re-planning are gone: ATC-CL runs
//! one lane per cluster, and every batch runs the plan it was grafted with.
//! Their `EngineConfig` fields remain only because the benchmark's config
//! literal names every field. ROADMAP item 1(b) un-pins that literal and
//! deletes this module with the fields.

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
