//! Typed configuration for the serving engine.
//!
//! The engine builder takes three narrow option structs instead of one flat
//! config: [`PlanningOptions`] (everything that determines *which plan* is
//! served — these fields form the plan-cache key), [`BatchingOptions`]
//! (dynamic-batcher shape) and [`RuntimeOptions`] (fair-share weight, QoS
//! class and weight seed). Each struct validates
//! itself; [`ServeEngineBuilder::build`](crate::ServeEngineBuilder::build)
//! runs all three validations before any planning work starts.

use crate::{Result, ServeError};
use std::time::Duration;
use tdc::rank_select::RankSelectionConfig;
use tdc::tiling::TilingStrategy;
use tdc_exec::QosClass;
use tdc_gpu_sim::DeviceSpec;

/// Everything that determines which compression plan the engine serves.
///
/// # Examples
///
/// ```
/// use tdc_serve::PlanningOptions;
///
/// let planning = PlanningOptions {
///     budget: 0.4,
///     ..PlanningOptions::default()
/// };
/// assert!(planning.validate().is_ok());
/// assert!(PlanningOptions { budget: f64::NAN, ..planning }.validate().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct PlanningOptions {
    /// Target device model the planner's latency tables are built for.
    pub device: DeviceSpec,
    /// Tiling strategy used when planning.
    pub strategy: TilingStrategy,
    /// FLOPs-reduction budget for rank selection, in `[0, 1)`.
    pub budget: f64,
    /// Rank-candidate step (use small steps for miniature serving models).
    pub rank_step: usize,
    /// θ skip threshold for rank selection (0 decomposes whenever feasible).
    pub theta: f64,
}

impl Default for PlanningOptions {
    fn default() -> Self {
        PlanningOptions {
            device: DeviceSpec::a100(),
            strategy: TilingStrategy::Model,
            budget: 0.5,
            rank_step: 4,
            theta: 0.0,
        }
    }
}

impl PlanningOptions {
    /// Check the options; [`build`](crate::ServeEngineBuilder::build) calls
    /// this before planning.
    pub fn validate(&self) -> Result<()> {
        if !self.budget.is_finite() || !(0.0..1.0).contains(&self.budget) {
            return Err(ServeError::BadConfig {
                reason: format!("budget {} must be finite and in [0, 1)", self.budget),
            });
        }
        if !self.theta.is_finite() || self.theta < 0.0 {
            return Err(ServeError::BadConfig {
                reason: format!("theta {} must be finite and non-negative", self.theta),
            });
        }
        if self.rank_step == 0 {
            return Err(ServeError::BadConfig {
                reason: "rank_step must be > 0".into(),
            });
        }
        Ok(())
    }

    /// The rank-selection configuration these options describe.
    pub fn selection_config(&self) -> RankSelectionConfig {
        RankSelectionConfig {
            budget: self.budget,
            theta: self.theta,
            strategy: self.strategy,
            rank_step: self.rank_step,
        }
    }
}

/// Shape of the dynamic batcher and its admission bound.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use tdc_serve::BatchingOptions;
///
/// let batching = BatchingOptions {
///     max_batch_size: 16,
///     max_batch_delay: Duration::from_millis(1),
///     ..BatchingOptions::default()
/// };
/// assert!(batching.validate().is_ok());
/// assert!(BatchingOptions { max_batch_size: 0, ..batching }.validate().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct BatchingOptions {
    /// Maximum requests per batch.
    pub max_batch_size: usize,
    /// Longest the oldest queued request may wait for batch-mates.
    pub max_batch_delay: Duration,
    /// Admission bound: most requests the queue holds before
    /// [`submit`](crate::ServeEngine::submit) rejects with
    /// [`ServeError::Overloaded`]. Bounds both memory and worst-case queueing
    /// delay under overload; one overloaded model in a registry sheds load
    /// here instead of growing without limit. A bound below `max_batch_size`
    /// is allowed — batches are then capped at the bound and release on the
    /// delay deadline.
    pub max_queue_depth: usize,
    /// Default per-request deadline, applied to every request submitted
    /// without an explicit override
    /// ([`submit_with_deadline`](crate::ServeEngine::submit_with_deadline)
    /// overrides it per request). `None` — the default — disables deadline
    /// enforcement. An admitted request whose deadline passes before it can
    /// be served fails with
    /// [`ServeError::DeadlineExceeded`](crate::ServeError)
    /// instead of waiting for its batch without bound; the batcher drops
    /// expired requests before any executor work is spent on them, and a
    /// forming batch never waits past its earliest member's deadline. A
    /// deadline shorter than `max_batch_delay` can therefore only be met
    /// when a full batch forms early — an under-full batch releases exactly
    /// at the deadline, when the request is already expired.
    pub default_deadline: Option<Duration>,
}

impl Default for BatchingOptions {
    fn default() -> Self {
        BatchingOptions {
            max_batch_size: 8,
            max_batch_delay: Duration::from_millis(2),
            max_queue_depth: 1024,
            default_deadline: None,
        }
    }
}

impl BatchingOptions {
    /// Check the options; [`build`](crate::ServeEngineBuilder::build) calls
    /// this before planning.
    pub fn validate(&self) -> Result<()> {
        if self.max_batch_size == 0 {
            return Err(ServeError::BadConfig {
                reason: "max_batch_size must be > 0".into(),
            });
        }
        if self.max_queue_depth == 0 {
            return Err(ServeError::BadConfig {
                reason: "max_queue_depth must be > 0".into(),
            });
        }
        if self.default_deadline == Some(Duration::ZERO) {
            return Err(ServeError::BadConfig {
                reason: "default_deadline must be positive (use None to disable deadlines)".into(),
            });
        }
        Ok(())
    }
}

/// Scheduling share and weight materialization.
///
/// # Examples
///
/// ```
/// use tdc_exec::QosClass;
/// use tdc_serve::RuntimeOptions;
///
/// let runtime = RuntimeOptions {
///     workers: 4,
///     qos: QosClass::Interactive,
///     ..RuntimeOptions::default()
/// };
/// assert!(runtime.validate().is_ok());
/// assert_eq!(runtime.fair_share_weight(), 4);
/// assert!(RuntimeOptions { workers: 0, ..runtime }.validate().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct RuntimeOptions {
    /// The model's fair-share weight on the shared executor: how many
    /// batches one scheduling quantum runs before the model's dispatch
    /// token goes back to the end of its QoS band.
    ///
    /// Before the fleet-wide executor this field sized a dedicated
    /// per-engine worker pool, hence the name, which is kept as a
    /// deprecation shim (prefer reading it through
    /// [`fair_share_weight`](RuntimeOptions::fair_share_weight)). An engine
    /// built *without* a shared executor still spawns a private pool of
    /// this many workers, matching the legacy semantics exactly.
    pub workers: usize,
    /// QoS class the model registers under on the shared executor:
    /// [`QosClass::Interactive`](tdc_exec::QosClass) work is dispatched
    /// before `Standard`, which is dispatched before `Batch`.
    pub qos: QosClass,
    /// Seed for weight materialization.
    pub seed: u64,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            workers: 2,
            qos: QosClass::Standard,
            seed: 0x7DC,
        }
    }
}

impl RuntimeOptions {
    /// The model's fair-share weight on the shared executor (the renamed
    /// meaning of the [`workers`](RuntimeOptions::workers) field).
    pub fn fair_share_weight(&self) -> usize {
        self.workers
    }

    /// Check the options; [`build`](crate::ServeEngineBuilder::build) calls
    /// this before planning.
    pub fn validate(&self) -> Result<()> {
        if self.workers == 0 {
            return Err(ServeError::BadConfig {
                reason: "workers must be > 0".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(PlanningOptions::default().validate().is_ok());
        assert!(BatchingOptions::default().validate().is_ok());
        assert!(RuntimeOptions::default().validate().is_ok());
    }

    #[test]
    fn non_finite_budgets_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.1, 1.0] {
            let opts = PlanningOptions {
                budget: bad,
                ..PlanningOptions::default()
            };
            assert!(opts.validate().is_err(), "budget {bad} must be rejected");
        }
        let opts = PlanningOptions {
            theta: f64::NAN,
            ..PlanningOptions::default()
        };
        assert!(opts.validate().is_err());
        let opts = PlanningOptions {
            rank_step: 0,
            ..PlanningOptions::default()
        };
        assert!(opts.validate().is_err());
    }

    #[test]
    fn degenerate_queue_bounds_are_rejected() {
        let opts = BatchingOptions {
            max_queue_depth: 0,
            ..BatchingOptions::default()
        };
        assert!(opts.validate().is_err());
        // A bound below the batch size is legal: batches cap at the bound.
        let opts = BatchingOptions {
            max_batch_size: 8,
            max_queue_depth: 4,
            ..BatchingOptions::default()
        };
        assert!(opts.validate().is_ok());
    }

    #[test]
    fn zero_default_deadline_is_rejected() {
        let opts = BatchingOptions {
            default_deadline: Some(Duration::ZERO),
            ..BatchingOptions::default()
        };
        assert!(opts.validate().is_err());
        let opts = BatchingOptions {
            default_deadline: Some(Duration::from_millis(1)),
            ..BatchingOptions::default()
        };
        assert!(opts.validate().is_ok());
    }

    #[test]
    fn selection_config_mirrors_the_options() {
        let planning = PlanningOptions {
            budget: 0.3,
            theta: 0.1,
            rank_step: 8,
            ..PlanningOptions::default()
        };
        let cfg = planning.selection_config();
        assert_eq!(cfg.budget, 0.3);
        assert_eq!(cfg.theta, 0.1);
        assert_eq!(cfg.rank_step, 8);
        assert_eq!(cfg.strategy, planning.strategy);
    }
}
