//! `ExecPlan`: the single validated home for the parallelism knob.
//!
//! The workspace has one parallel axis: `pool_workers`, the number of
//! threads the [`runner`](crate::runner) pool uses to schedule whole
//! launches and sweep units. Each launch's cycle loop is serial.
//!
//! Resolution happens in exactly one place ([`resolve`]) with fixed
//! precedence: **CLI flag > environment variable > config > auto**. A
//! request of `0` or unparseable environment text resolves to serial
//! (`1`) and produces a [`PlanNote`]; the caller emits each note as one
//! structured [`EventKind::ExecPlanAdjusted`](tbpoint_obs::EventKind)
//! event — the replacement for the old free-form stderr warnings.
//!
//! The plan is an *execution* concern, deliberately kept out of
//! `TbpointConfig` and every serialized result artifact: results are
//! bit-identical at any worker count, so recording the worker count
//! with the result would break artifact-level byte comparison for no
//! information gain.

use serde::{Deserialize, Serialize};
use tbpoint_obs::{Event, EventKind, PlanAxis};

/// Environment variable for [`ExecPlan::pool_workers`].
pub const ENV_POOL_WORKERS: &str = "TBPOINT_POOL_WORKERS";

/// The parallelism plan: a worker count with serial (`1`) as the
/// neutral value; `0` never survives resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecPlan {
    /// Compatibility shim left from the removed intra-launch SM
    /// sharding, kept so existing struct literals still compile. Must
    /// be 1 (0 normalizes to 1); the pipeline entry points reject any
    /// other value with an `InvalidConfig` error.
    pub sim_jobs: usize,
    /// Cross-launch pool workers scheduling whole launches / sweep
    /// units (the `--pool-workers` knob).
    pub pool_workers: usize,
}

impl Default for ExecPlan {
    /// Serial.
    fn default() -> Self {
        ExecPlan {
            sim_jobs: 1,
            pool_workers: 1,
        }
    }
}

impl ExecPlan {
    /// Serial (alias for [`Default`], reads better at call sites).
    #[must_use]
    pub fn serial() -> Self {
        ExecPlan::default()
    }

    /// A plan with `pool_workers` workers.
    #[must_use]
    pub fn pool(pool_workers: usize) -> Self {
        ExecPlan {
            pool_workers,
            ..ExecPlan::default()
        }
    }

    /// The plan handed to work running *inside* one pool unit.
    ///
    /// The outermost scheduler spends the `pool_workers` budget once;
    /// nested fan-out would multiply thread counts (`workers x workers`
    /// oversubscription), so units run with `pool_workers = 1`.
    #[must_use]
    pub fn unit(self) -> Self {
        ExecPlan {
            pool_workers: 1,
            ..self
        }
    }

    /// Both fields clamped to at least one. Defensive normalization for
    /// plans that arrive from deserialized configs without passing
    /// through [`resolve`].
    #[must_use]
    pub fn normalized(self) -> Self {
        ExecPlan {
            sim_jobs: self.sim_jobs.max(1),
            pool_workers: self.pool_workers.max(1),
        }
    }
}

/// Where a resolved (and possibly adjusted) value came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// The `--pool-workers` CLI flag.
    Cli,
    /// The `TBPOINT_POOL_WORKERS` environment variable.
    Env,
    /// A config value carried by the caller.
    Config,
}

impl std::fmt::Display for PlanSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PlanSource::Cli => "command line",
            PlanSource::Env => "environment",
            PlanSource::Config => "config",
        })
    }
}

/// One adjustment made during resolution: the requested value was zero
/// or unparseable and the plan fell back to serial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNote {
    /// Which axis was adjusted.
    pub axis: PlanAxis,
    /// Which precedence level supplied the bad request.
    pub source: PlanSource,
    /// The request as written (flag value, raw environment text, or
    /// config field rendering).
    pub raw: String,
    /// Parsed numeric request; `0` when `raw` did not parse at all.
    pub requested: u64,
    /// The value resolution actually used.
    pub used: usize,
}

impl PlanNote {
    /// The structured observability event for this adjustment; callers
    /// render it with [`tbpoint_obs::event_line`]. Plan resolution has
    /// no simulated clock, so the event carries cycle 0.
    #[must_use]
    pub fn event(&self) -> Event {
        Event {
            cycle: 0,
            kind: EventKind::ExecPlanAdjusted {
                axis: self.axis,
                requested: self.requested,
                used: self.used as u64,
            },
        }
    }
}

impl std::fmt::Display for PlanNote {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let axis = match self.axis {
            PlanAxis::PoolWorkers => "pool_workers",
        };
        write!(
            f,
            "{axis}: requested `{}` via {}; using {} (serial)",
            self.raw, self.source, self.used
        )
    }
}

/// Everything [`resolve`] consults, gathered by the caller so the
/// decision itself is pure and unit-testable. `None` means "not
/// provided at this precedence level".
#[derive(Debug, Clone, Default)]
pub struct PlanInputs<'a> {
    /// `--pool-workers` flag value, if given.
    pub cli_pool_workers: Option<usize>,
    /// Raw `TBPOINT_POOL_WORKERS` text, if set.
    pub env_pool_workers: Option<&'a str>,
    /// A config-supplied plan (lowest explicit precedence).
    pub config: Option<ExecPlan>,
    /// Fallback when no level supplies a worker count. The default is
    /// serial; interactive drivers typically pass the host CPU count.
    pub auto: ExecPlan,
}

/// Resolve an [`ExecPlan`] from explicit inputs with precedence
/// **CLI > environment > config > auto**.
///
/// Returns the plan plus a [`PlanNote`] when the winning level supplied
/// an unusable request (zero or unparseable → serial).
#[must_use]
pub fn resolve(inputs: &PlanInputs<'_>) -> (ExecPlan, Vec<PlanNote>) {
    let mut notes = Vec::new();
    let mut note = |source: PlanSource, raw: &str| {
        notes.push(PlanNote {
            axis: PlanAxis::PoolWorkers,
            source,
            raw: raw.to_string(),
            requested: 0,
            used: 1,
        });
        1
    };
    let pool_workers = if let Some(v) = inputs.cli_pool_workers {
        if v == 0 {
            note(PlanSource::Cli, "0")
        } else {
            v
        }
    } else if let Some(raw) = inputs.env_pool_workers {
        // An explicit but unusable request resolves to serial rather
        // than falling through: the user *did* ask for something, and
        // silently substituting a lower level's value would hide that.
        match raw.trim().parse::<usize>() {
            Ok(v) if v > 0 => v,
            _ => note(PlanSource::Env, raw),
        }
    } else if let Some(c) = inputs.config {
        if c.pool_workers == 0 {
            note(PlanSource::Config, "0")
        } else {
            c.pool_workers
        }
    } else {
        inputs.auto.pool_workers.max(1)
    };
    (ExecPlan::pool(pool_workers), notes)
}

/// [`resolve`] with the environment level read from the live process
/// environment (`TBPOINT_POOL_WORKERS`).
#[must_use]
pub fn resolve_from_env(
    cli_pool_workers: Option<usize>,
    config: Option<ExecPlan>,
    auto: ExecPlan,
) -> (ExecPlan, Vec<PlanNote>) {
    let env_pool_workers = std::env::var(ENV_POOL_WORKERS).ok();
    resolve(&PlanInputs {
        cli_pool_workers,
        env_pool_workers: env_pool_workers.as_deref(),
        config,
        auto,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_of(inputs: &PlanInputs<'_>) -> ExecPlan {
        resolve(inputs).0
    }

    #[test]
    fn explicit_flag_wins_over_environment() {
        let (plan, notes) = resolve(&PlanInputs {
            cli_pool_workers: Some(5),
            env_pool_workers: Some("9"),
            ..PlanInputs::default()
        });
        assert_eq!(plan, ExecPlan::pool(5));
        assert!(notes.is_empty());
    }

    #[test]
    fn explicit_zero_clamps_to_serial_with_a_note() {
        let (plan, notes) = resolve(&PlanInputs {
            cli_pool_workers: Some(0),
            ..PlanInputs::default()
        });
        assert_eq!(plan, ExecPlan::serial());
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].axis, tbpoint_obs::PlanAxis::PoolWorkers);
        assert_eq!(notes[0].source, PlanSource::Cli);
        assert_eq!(notes[0].requested, 0);
        assert_eq!(notes[0].used, 1);
    }

    #[test]
    fn environment_applies_when_no_flag() {
        let plan = plan_of(&PlanInputs {
            env_pool_workers: Some(" 6 "),
            ..PlanInputs::default()
        });
        assert_eq!(plan, ExecPlan::pool(6));
    }

    #[test]
    fn bad_or_zero_environment_resolves_to_serial() {
        for raw in ["0", "banana", "-3", ""] {
            let (plan, notes) = resolve(&PlanInputs {
                env_pool_workers: Some(raw),
                ..PlanInputs::default()
            });
            assert_eq!(plan.pool_workers, 1, "raw={raw:?}");
            assert_eq!(notes.len(), 1, "raw={raw:?}");
            assert_eq!(notes[0].raw, raw);
        }
    }

    #[test]
    fn config_sits_below_environment_and_above_auto() {
        let cfg = Some(ExecPlan::pool(3));
        let auto = ExecPlan::pool(8);
        let plan = plan_of(&PlanInputs {
            config: cfg,
            auto,
            ..PlanInputs::default()
        });
        assert_eq!(plan, ExecPlan::pool(3));
        let plan = plan_of(&PlanInputs {
            env_pool_workers: Some("4"),
            config: cfg,
            auto,
            ..PlanInputs::default()
        });
        assert_eq!(plan, ExecPlan::pool(4));
    }

    #[test]
    fn auto_fills_last_and_is_never_zero() {
        assert_eq!(
            plan_of(&PlanInputs {
                auto: ExecPlan::pool(8),
                ..PlanInputs::default()
            }),
            ExecPlan::pool(8)
        );
        assert_eq!(
            plan_of(&PlanInputs {
                auto: ExecPlan::pool(0),
                ..PlanInputs::default()
            }),
            ExecPlan::serial()
        );
    }

    #[test]
    fn unit_plan_spends_the_pool_budget_once() {
        assert_eq!(ExecPlan::pool(8).unit(), ExecPlan::serial());
    }

    #[test]
    fn notes_render_as_structured_events() {
        let (_, notes) = resolve(&PlanInputs {
            env_pool_workers: Some("nope"),
            ..PlanInputs::default()
        });
        let line = tbpoint_obs::event_line(&notes[0].event());
        assert!(line.contains("ExecPlanAdjusted"), "line={line}");
        let back = tbpoint_obs::parse_event(&line).unwrap();
        assert_eq!(back, notes[0].event());
    }

    #[test]
    fn normalized_never_returns_zero() {
        let p = ExecPlan {
            sim_jobs: 0,
            pool_workers: 0,
        }
        .normalized();
        assert_eq!(p, ExecPlan::serial());
    }
}
