// Tests assert by panicking and compare exact floats on purpose.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::float_cmp,
        clippy::cast_possible_truncation
    )
)]

//! # tbpoint-core
//!
//! TBPoint proper: the two sampling techniques of the paper, built on the
//! profiler (`tbpoint-emu`), the timing simulator (`tbpoint-sim`) and the
//! clustering library (`tbpoint-cluster`).
//!
//! * [`inter`] — **inter-launch sampling** (Section III): each kernel
//!   launch becomes a 4-feature vector (Eq. 2: thread instructions, warp
//!   instructions, memory requests, CoV of thread-block sizes, each
//!   normalised by its cross-launch average); hierarchical clustering with
//!   distance threshold σ groups homogeneous launches; the launch closest
//!   to each cluster centre is the simulation point.
//! * [`intra`] — **homogeneous region identification** (Section IV-B1):
//!   thread blocks are grouped into epochs of `system occupancy` size
//!   (Eq. 4), epochs are clustered on their average stall probability
//!   (Eq. 5), epochs with a high variation factor (outlier TBs) are
//!   isolated, and maximal runs of same-cluster epochs become homogeneous
//!   regions stored in a region table (Table III).
//! * [`sampling`] — **homogeneous region sampling** (Section IV-B2): a
//!   [`tbpoint_sim::SamplingHook`] that tracks designated-thread-block
//!   sampling units, enters a region when every resident TB shares its
//!   region id, warms until consecutive unit IPCs agree within 10%, then
//!   fast-forwards (skips) the region's remaining TBs, predicting their
//!   cycles from the last warm unit's IPC.
//! * [`predict`] — the end-to-end pipeline and IPC / sample-size /
//!   skipped-instruction accounting behind Figs. 9-13 (Table IV).
//! * [`sampling::live`] — **live single-pass sampling**: the same
//!   epoch/cluster/region structure detected *online* from the
//!   simulator's retire-time feature stream, with no profiling pass
//!   (`TbpointConfig::mode = Live`).
//!
//! One entry point, [`run_tbpoint`] (and its tracing twin
//! [`run_tbpoint_traced`]), runs whichever mode the config selects and
//! returns [`TbError`] on invalid configs or mismatched profiles;
//! samplers are built with [`RegionSamplerBuilder`] and report into a
//! [`tbpoint_obs::Recorder`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod inter;
pub mod intra;
pub mod predict;
pub mod sampling;

pub use error::TbError;
pub use inter::{inter_launch_sample, InterConfig, InterResult};
pub use intra::{build_epochs, identify_regions, Epoch, IntraConfig, Region, RegionTable};
pub use predict::{
    run_tbpoint, run_tbpoint_traced, LaunchTrace, SamplingMode, SavingsBreakdown, TbpointConfig,
    TbpointResult,
};
#[doc(hidden)]
pub use predict::{run_tbpoint_live_plan, run_tbpoint_plan};
pub use sampling::live::{LiveOutcome, LiveSampler, LiveSamplerBuilder};
pub use sampling::{IntraOutcome, RegionSampler, RegionSamplerBuilder};
pub use tbpoint_pool::ExecPlan;
