// Tests assert by panicking on purpose.
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # tbpoint-pool
//!
//! The deterministic cross-launch job pool and the unified parallelism
//! API for the TBPoint workspace.
//!
//! TBPoint's pipelines are piles of *independent* work items — launches
//! inside `tbpoint_core::run_tbpoint`,
//! benchmarks inside a sweep, config points inside an ablation. This
//! crate is the workspace's one parallel axis: whole launches and whole
//! sweep units scheduled across worker threads; each launch's cycle loop
//! stays serial (DESIGN.md, "Parallelism").
//!
//! Three pieces:
//!
//! * [`runner`] — [`run_indexed`] / [`map_indexed`], a work-stealing
//!   pool over index-addressed jobs whose output is **bit-identical to
//!   a serial loop at every worker count** (canonical-order merge:
//!   results land in per-index slots and are assembled in index order;
//!   only scheduling order is timing-dependent); plus
//!   [`run_supervised`], the service-grade variant that contains a
//!   panicking unit to its own index ([`UnitError::Panicked`]) while
//!   the pool keeps draining.
//! * [`plan`] — [`ExecPlan`], the single validated home for the
//!   parallelism knob (`pool_workers`), resolved once with
//!   precedence CLI > environment > config > auto. Adjustments
//!   (zero or unparseable requests) surface as structured
//!   [`tbpoint_obs::EventKind::ExecPlanAdjusted`] events instead of
//!   free-form stderr prints.
//! * [`unit`](mod@unit) — the [`SweepUnit`] trait (id, run, serializable output)
//!   shared by the pool, the crash-safe resume manifest, and the
//!   future serve layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plan;
pub mod runner;
pub mod unit;

pub use plan::{
    resolve, resolve_from_env, ExecPlan, PlanInputs, PlanNote, PlanSource, ENV_POOL_WORKERS,
};
pub use runner::{map_indexed, run_indexed, run_supervised, UnitError};
pub use unit::SweepUnit;
