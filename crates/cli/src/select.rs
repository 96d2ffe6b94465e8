//! Scheduler selection from command-line names.

use crate::args::{ArgError, Args};
use adaptive_rl::{AdaptiveRlConfig, KernelPrecision};
use experiments::SchedulerKind;

/// Accepted scheduler names for `--scheduler`.
pub const SCHEDULER_CHOICES: &str = "adaptive, online, qplus, prediction, rr, greedy";

/// Accepted kernel precisions for `--precision`.
pub const PRECISION_CHOICES: &str = "f64, f32";

/// Resolves `--precision` (default `f64`).
pub fn precision_from(args: &Args) -> Result<KernelPrecision, ArgError> {
    let Some(name) = args.get("precision") else {
        return Ok(KernelPrecision::F64);
    };
    KernelPrecision::parse(name).ok_or_else(|| ArgError::UnknownChoice {
        flag: "precision".to_string(),
        value: name.to_string(),
        choices: PRECISION_CHOICES,
    })
}

/// Resolves `--scheduler` (default `adaptive`), applying the CLI's
/// Adaptive-RL modifiers (`--gating`, `--precision`).
pub fn scheduler_from(args: &Args) -> Result<SchedulerKind, ArgError> {
    let name = args.get("scheduler").unwrap_or("adaptive");
    let kind = match name {
        "adaptive" => {
            let cfg = AdaptiveRlConfig {
                power_gating: args.has("gating"),
                precision: precision_from(args)?,
                ..AdaptiveRlConfig::default()
            };
            SchedulerKind::Adaptive(cfg)
        }
        "online" => SchedulerKind::Online(Default::default()),
        "qplus" => SchedulerKind::QPlus(Default::default()),
        "prediction" => SchedulerKind::Prediction(Default::default()),
        "rr" => SchedulerKind::RoundRobin,
        "greedy" => SchedulerKind::GreedyEdf,
        other => {
            return Err(ArgError::UnknownChoice {
                flag: "scheduler".to_string(),
                value: other.to_string(),
                choices: SCHEDULER_CHOICES,
            })
        }
    };
    Ok(kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_adaptive() {
        let args = Args::parse(["simulate"]);
        assert!(matches!(
            scheduler_from(&args).unwrap(),
            SchedulerKind::Adaptive(_)
        ));
    }

    #[test]
    fn every_choice_resolves() {
        for (name, want) in [
            ("adaptive", "Adaptive RL"),
            ("online", "Online RL"),
            ("qplus", "Q+ learning"),
            ("prediction", "Prediction-based learning"),
            ("rr", "Round-robin"),
            ("greedy", "Greedy EDF"),
        ] {
            let args = Args::parse(["simulate", "--scheduler", name]);
            assert_eq!(scheduler_from(&args).unwrap().label(), want);
        }
    }

    #[test]
    fn gating_flag_configures_adaptive() {
        let args = Args::parse(["simulate", "--gating"]);
        match scheduler_from(&args).unwrap() {
            SchedulerKind::Adaptive(cfg) => assert!(cfg.power_gating),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precision_defaults_to_f64() {
        let args = Args::parse(["simulate"]);
        match scheduler_from(&args).unwrap() {
            SchedulerKind::Adaptive(cfg) => {
                assert_eq!(cfg.precision, KernelPrecision::F64);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn explicit_f64_precision_accepted() {
        let args = Args::parse(["simulate", "--precision", "f64"]);
        match scheduler_from(&args).unwrap() {
            SchedulerKind::Adaptive(cfg) => {
                assert_eq!(cfg.precision, KernelPrecision::F64);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn f32_precision_resolves() {
        let args = Args::parse(["simulate", "--precision", "f32"]);
        match scheduler_from(&args).unwrap() {
            SchedulerKind::Adaptive(cfg) => {
                assert_eq!(cfg.precision, KernelPrecision::F32);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bogus_precision_is_reported() {
        let args = Args::parse(["simulate", "--precision", "f16"]);
        assert!(matches!(
            scheduler_from(&args),
            Err(ArgError::UnknownChoice { .. })
        ));
    }

    #[test]
    fn unknown_scheduler_is_reported() {
        let args = Args::parse(["simulate", "--scheduler", "alien"]);
        assert!(matches!(
            scheduler_from(&args),
            Err(ArgError::UnknownChoice { .. })
        ));
    }
}
