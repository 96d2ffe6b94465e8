//! `perfbench`, the repository benchmark: one workload, one seed, one
//! result line.
//!
//! The benchmark reaches the program only through its public entry points
//! and checks what comes out. The traced run (`--trace 1`) splits a
//! workload's time into layers by timing calls into each layer from this
//! package, so no program code carries benchmark instrumentation.
//! `perfbench/run.py` builds everything and runs this binary; see
//! `perfbench/README.md` for the workloads and the metric definitions.

mod batch;
mod decor;
mod kernel;
mod loadgen;
mod report;
mod serve;
mod stats;

use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                     --run-dir DIR [--arls PATH]";

/// The workloads, named as in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperAdaptive,
    PaperBaselines,
    ScaleSharded,
    ServeOpen,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::PaperAdaptive,
        Workload::PaperBaselines,
        Workload::ScaleSharded,
        Workload::ServeOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperAdaptive => "paper-adaptive",
            Workload::PaperBaselines => "paper-baselines",
            Workload::ScaleSharded => "scale-sharded",
            Workload::ServeOpen => "serve-open",
        }
    }

    /// Threads the workload keeps busy, and so the threads the reference
    /// kernel runs on: the sharded engine's workers, otherwise one.
    pub fn threads(self) -> usize {
        match self {
            Workload::ScaleSharded => batch::SHARDS,
            _ => 1,
        }
    }
}

/// Command-line options, checked where they enter.
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Directory inside the checkout for port files and daemon logs.
    pub run_dir: PathBuf,
    /// The `arls` binary (`serve-open` only).
    pub arls: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut run_dir, mut arls) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => {
                let s = value.parse::<u64>();
                seed = Some(s.map_err(|_| format!("--seed {value:?} is not an unsigned integer"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds {value:?} is not a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is outside (0, 3600]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is neither 0 nor 1")),
                });
            }
            "--run-dir" => run_dir = Some(PathBuf::from(value)),
            "--arls" => arls = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        run_dir: run_dir.ok_or("--run-dir is required")?,
        arls,
    })
}

/// The only argument of a process that exits at once: the reference
/// start-up `serve-open` times next to each daemon start-up.
pub const REFERENCE_START: &str = "reference-start";

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some(REFERENCE_START) {
        return;
    }
    let opts = match parse_args(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    report::print_stamp(&opts);
    let outcome = match opts.workload {
        Workload::ServeOpen => serve::run(&opts),
        w => batch::run(w, &opts),
    };
    match outcome {
        Ok(rep) => {
            if !rep.finish(opts.trace) {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
