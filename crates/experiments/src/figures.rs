//! One entry point per experiment of §V, each returning the corresponding
//! figure reports.

use crate::config::{Scenario, NOMINAL_REF_SPEED};
use crate::runner::{run_replicated, SchedulerKind};
use adaptive_rl::{AdaptiveRlConfig, PolicyKind};
use metrics::{energy_millions, utilisation_by_cycle_decile, FigureReport};
use platform::RunResult;
use simcore::Series;

/// Options for Experiment 1 (Figs. 7–8): response time and energy versus
/// the number of tasks.
#[derive(Debug, Clone)]
pub struct Exp1Options {
    /// Task counts forming the x axis (paper: 500–3000 step 500).
    pub task_counts: Vec<usize>,
    /// Replications per point.
    pub reps: u32,
    /// Base seed.
    pub seed: u64,
    /// Offered load at the largest task count; other counts scale
    /// proportionally (the paper holds the observation window fixed, so
    /// more tasks = proportionally higher arrival intensity).
    pub max_offered: f64,
    /// Policies to compare.
    pub schedulers: Vec<SchedulerKind>,
}

impl Default for Exp1Options {
    fn default() -> Self {
        Exp1Options {
            task_counts: vec![500, 1000, 1500, 2000, 2500, 3000],
            reps: 3,
            seed: 2011,
            max_offered: 1.0,
            schedulers: SchedulerKind::paper_four(),
        }
    }
}

impl Exp1Options {
    /// Reduced settings for smoke runs (`ARL_QUICK=1`).
    pub fn quick() -> Self {
        Exp1Options {
            task_counts: vec![500, 1500, 3000],
            reps: 1,
            ..Default::default()
        }
    }
}

/// Experiment 1: returns `(Fig. 7, Fig. 8)`.
pub fn experiment1(opts: &Exp1Options) -> (FigureReport, FigureReport) {
    let max_tasks = *opts
        .task_counts
        .iter()
        .max()
        .expect("need at least one task count") as f64;
    let mut fig7 = FigureReport::new(
        "Fig. 7",
        "Average response time with different learning approaches",
        "number of tasks",
        "average response time (t unit)",
    );
    let mut fig8 = FigureReport::new(
        "Fig. 8",
        "Average energy consumption with different learning approaches",
        "number of tasks",
        "energy consumption (in millions)",
    );
    for kind in &opts.schedulers {
        let mut rt = Series::new(kind.label());
        let mut ec = Series::new(kind.label());
        for &n in &opts.task_counts {
            let mut sc = Scenario::new(opts.seed, n, opts.max_offered * n as f64 / max_tasks);
            sc.exec.tick_interval = 1.0;
            let runs = run_replicated(&sc, kind, opts.reps);
            let mean_rt: f64 =
                runs.iter().map(RunResult::avg_response_time).sum::<f64>() / runs.len() as f64;
            let mean_ec: f64 = runs.iter().map(energy_millions).sum::<f64>() / runs.len() as f64;
            rt.push(n as f64, mean_rt);
            ec.push(n as f64, mean_ec);
        }
        fig7.push(rt);
        fig8.push(ec);
    }
    (fig7, fig8)
}

/// Options for Experiment 2 (Figs. 9–10): utilisation versus learning
/// cycles in heavily and lightly loaded states.
#[derive(Debug, Clone)]
pub struct Exp2Options {
    /// Heavy-state task count (paper: 3000).
    pub heavy_tasks: usize,
    /// Heavy-state offered load.
    pub heavy_offered: f64,
    /// Light-state task count (paper: 500).
    pub light_tasks: usize,
    /// Light-state offered load.
    pub light_offered: f64,
    /// Replications per curve.
    pub reps: u32,
    /// Base seed.
    pub seed: u64,
}

impl Default for Exp2Options {
    fn default() -> Self {
        Exp2Options {
            heavy_tasks: 3000,
            heavy_offered: 1.05,
            light_tasks: 500,
            light_offered: 0.65,
            reps: 3,
            seed: 2012,
        }
    }
}

impl Exp2Options {
    /// Reduced settings for smoke runs.
    pub fn quick() -> Self {
        Exp2Options {
            heavy_tasks: 1200,
            light_tasks: 300,
            reps: 1,
            ..Default::default()
        }
    }
}

/// Mean of several decile series, pointwise.
fn mean_series(label: &str, series: &[Series]) -> Series {
    let mut out = Series::new(label);
    if series.is_empty() || series[0].is_empty() {
        return out;
    }
    for (i, p) in series[0].points.iter().enumerate() {
        let mut sum = 0.0;
        let mut count = 0;
        for s in series {
            if let Some(q) = s.points.get(i) {
                sum += q.y;
                count += 1;
            }
        }
        out.push(p.x, sum / count as f64);
    }
    out
}

/// Experiment 2: returns `(Fig. 9 — heavy, Fig. 10 — light)`.
pub fn experiment2(opts: &Exp2Options) -> (FigureReport, FigureReport) {
    let adaptive = SchedulerKind::Adaptive(AdaptiveRlConfig::default());
    let online = SchedulerKind::Online(Default::default());
    let mut fig9 = FigureReport::new(
        "Fig. 9",
        "Utilisation rate, Adaptive-RL vs Online RL, heavily loaded",
        "% learning cycles",
        "utilisation rate",
    );
    let mut fig10 = FigureReport::new(
        "Fig. 10",
        "Utilisation rate, Adaptive-RL vs Online RL, lightly loaded",
        "% learning cycles",
        "utilisation rate",
    );
    for (fig, tasks, offered, tag) in [
        (
            &mut fig9,
            opts.heavy_tasks,
            opts.heavy_offered,
            "heavily-loaded",
        ),
        (
            &mut fig10,
            opts.light_tasks,
            opts.light_offered,
            "lightly-loaded",
        ),
    ] {
        for kind in [&adaptive, &online] {
            let mut sc = Scenario::new(opts.seed, tasks, offered);
            sc.exec.tick_interval = 1.0;
            let runs = run_replicated(&sc, kind, opts.reps);
            let curves: Vec<Series> = runs
                .iter()
                .map(|r| utilisation_by_cycle_decile(r, kind.label()))
                .collect();
            fig.push(mean_series(&format!("{} ({tag})", kind.label()), &curves));
        }
    }
    (fig9, fig10)
}

/// Options for Experiment 3 (Figs. 11–12): successful rate and energy
/// versus resource heterogeneity.
#[derive(Debug, Clone)]
pub struct Exp3Options {
    /// Service coefficient-of-variation levels (paper: 0.1–0.9).
    pub heterogeneity: Vec<f64>,
    /// Heavy-state task count and offered load.
    pub heavy: (usize, f64),
    /// Light-state task count and offered load.
    pub light: (usize, f64),
    /// Replications per point.
    pub reps: u32,
    /// Base seed.
    pub seed: u64,
}

impl Default for Exp3Options {
    fn default() -> Self {
        Exp3Options {
            heterogeneity: vec![0.1, 0.3, 0.5, 0.7, 0.9],
            heavy: (3000, 0.95),
            light: (500, 0.65),
            reps: 3,
            seed: 2013,
        }
    }
}

impl Exp3Options {
    /// Reduced settings for smoke runs.
    pub fn quick() -> Self {
        Exp3Options {
            heterogeneity: vec![0.1, 0.5, 0.9],
            heavy: (1200, 0.95),
            light: (300, 0.5),
            reps: 1,
            ..Default::default()
        }
    }
}

/// Experiment 3: returns `(Fig. 11, Fig. 12)` for Adaptive-RL.
pub fn experiment3(opts: &Exp3Options) -> (FigureReport, FigureReport) {
    let kind = SchedulerKind::Adaptive(AdaptiveRlConfig::default());
    let mut fig11 = FigureReport::new(
        "Fig. 11",
        "Successful rate of Adaptive-RL in lightly- and heavily-loaded states",
        "heterogeneity of resources",
        "successful rate",
    );
    let mut fig12 = FigureReport::new(
        "Fig. 12",
        "Average energy consumption of Adaptive-RL in lightly- and heavily-loaded states",
        "heterogeneity of resources",
        "energy consumption (in millions)",
    );
    for ((tasks, offered), tag) in [
        (opts.heavy, "Heavily-loaded"),
        (opts.light, "Lightly-loaded"),
    ] {
        let mut success = Series::new(tag);
        let mut energy = Series::new(tag);
        for &h in &opts.heterogeneity {
            let mut sc = Scenario::new(opts.seed, tasks, offered);
            sc.platform.heterogeneity_cv = Some(h);
            sc.deadline_ref_speed = Some(NOMINAL_REF_SPEED);
            sc.exec.tick_interval = 1.0;
            let runs = run_replicated(&sc, &kind, opts.reps);
            success.push(
                h,
                runs.iter().map(RunResult::success_rate).sum::<f64>() / runs.len() as f64,
            );
            energy.push(
                h,
                runs.iter().map(energy_millions).sum::<f64>() / runs.len() as f64,
            );
        }
        fig11.push(success);
        fig12.push(energy);
    }
    (fig11, fig12)
}

/// One ablation variant: label plus the Adaptive-RL configuration (and
/// split switch) it runs with.
#[derive(Debug, Clone)]
pub struct AblationVariant {
    /// Display label.
    pub label: &'static str,
    /// Scheduler configuration.
    pub cfg: AdaptiveRlConfig,
    /// Whether the engine's split process is enabled.
    pub split: bool,
}

/// The ablation set called out in DESIGN.md §5.
pub fn ablation_variants() -> Vec<AblationVariant> {
    let base = AdaptiveRlConfig::default();
    vec![
        AblationVariant {
            label: "full Adaptive-RL",
            cfg: base,
            split: true,
        },
        AblationVariant {
            label: "no shared memory",
            cfg: AdaptiveRlConfig {
                use_shared_memory: false,
                ..base
            },
            split: true,
        },
        AblationVariant {
            label: "no split process",
            cfg: base,
            split: false,
        },
        AblationVariant {
            label: "forced mixed merge",
            cfg: AdaptiveRlConfig {
                force_policy: Some(PolicyKind::Mixed),
                ..base
            },
            split: true,
        },
        AblationVariant {
            label: "forced identical merge",
            cfg: AdaptiveRlConfig {
                force_policy: Some(PolicyKind::Identical),
                ..base
            },
            split: true,
        },
        AblationVariant {
            label: "memory depth 1",
            cfg: AdaptiveRlConfig {
                memory_depth: 1,
                ..base
            },
            split: true,
        },
        AblationVariant {
            label: "memory depth 50",
            cfg: AdaptiveRlConfig {
                memory_depth: 50,
                ..base
            },
            split: true,
        },
        AblationVariant {
            label: "error feedback off",
            cfg: AdaptiveRlConfig {
                use_error_feedback: false,
                ..base
            },
            split: true,
        },
        AblationVariant {
            label: "reward feedback off",
            cfg: AdaptiveRlConfig {
                use_reward_feedback: false,
                ..base
            },
            split: true,
        },
    ]
}

/// Runs the ablation set on a heavy scenario; returns
/// `(label, aveRT, ECS millions, success rate)` rows.
pub fn ablation_table(
    tasks: usize,
    offered: f64,
    reps: u32,
    seed: u64,
) -> Vec<(String, f64, f64, f64)> {
    ablation_variants()
        .into_iter()
        .map(|v| {
            let mut sc = Scenario::new(seed, tasks, offered);
            sc.exec.split_enabled = v.split;
            sc.exec.tick_interval = 1.0;
            let kind = SchedulerKind::Adaptive(v.cfg);
            let runs = run_replicated(&sc, &kind, reps);
            let n = runs.len() as f64;
            (
                v.label.to_string(),
                runs.iter().map(RunResult::avg_response_time).sum::<f64>() / n,
                runs.iter().map(energy_millions).sum::<f64>() / n,
                runs.iter().map(RunResult::success_rate).sum::<f64>() / n,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_exp1() -> Exp1Options {
        Exp1Options {
            task_counts: vec![150, 300],
            reps: 1,
            seed: 77,
            max_offered: 0.9,
            schedulers: vec![
                SchedulerKind::Adaptive(AdaptiveRlConfig::default()),
                SchedulerKind::Online(Default::default()),
            ],
        }
    }

    #[test]
    fn experiment1_produces_full_reports() {
        let (fig7, fig8) = experiment1(&tiny_exp1());
        assert_eq!(fig7.series.len(), 2);
        assert_eq!(fig8.series.len(), 2);
        for s in fig7.series.iter().chain(&fig8.series) {
            assert_eq!(s.len(), 2, "one point per task count");
            assert!(s.points.iter().all(|p| p.y > 0.0));
        }
    }

    #[test]
    fn experiment2_produces_decile_curves() {
        let opts = Exp2Options {
            heavy_tasks: 300,
            heavy_offered: 1.0,
            light_tasks: 100,
            light_offered: 0.4,
            reps: 1,
            seed: 78,
        };
        let (fig9, fig10) = experiment2(&opts);
        for fig in [&fig9, &fig10] {
            assert_eq!(fig.series.len(), 2);
            for s in &fig.series {
                assert_eq!(s.len(), 10);
                assert!(s.points.iter().all(|p| (0.0..=1.0).contains(&p.y)));
            }
        }
    }

    #[test]
    fn experiment3_produces_sweeps() {
        let opts = Exp3Options {
            heterogeneity: vec![0.1, 0.9],
            heavy: (250, 0.9),
            light: (80, 0.4),
            reps: 1,
            seed: 79,
        };
        let (fig11, fig12) = experiment3(&opts);
        assert_eq!(fig11.series.len(), 2);
        assert_eq!(fig12.series.len(), 2);
        for s in &fig11.series {
            assert!(s.points.iter().all(|p| (0.0..=1.0).contains(&p.y)));
        }
        for s in &fig12.series {
            assert!(s.points.iter().all(|p| p.y > 0.0));
        }
    }

    #[test]
    fn ablation_set_is_complete_and_runs() {
        let variants = ablation_variants();
        assert!(variants.len() >= 9);
        let rows = ablation_table(120, 0.9, 1, 80);
        assert_eq!(rows.len(), variants.len());
        for (label, rt, ec, sr) in rows {
            assert!(rt > 0.0, "{label}");
            assert!(ec > 0.0, "{label}");
            assert!((0.0..=1.0).contains(&sr), "{label}");
        }
    }

    #[test]
    fn mean_series_is_pointwise() {
        let a = Series::from_xy("a", &[1.0, 2.0], &[0.2, 0.4]);
        let b = Series::from_xy("b", &[1.0, 2.0], &[0.4, 0.8]);
        let m = mean_series("m", &[a, b]);
        assert!((m.points[0].y - 0.3).abs() < 1e-12);
        assert!((m.points[1].y - 0.6).abs() < 1e-12);
    }
}
