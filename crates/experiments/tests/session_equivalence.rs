//! A live session that admits each task at its arrival instant must
//! reproduce the batch run of the same stream.
//!
//! `arls serve` and the benchmark's in-process serve replay drive the
//! scheduler through [`ScheduleSession`]; the goldens pin the batch
//! engine. This test ties the two: for every policy, with faults off and
//! on, at a light and a heavy load, the session's `RunResult` equals the
//! batch one under [`platform::replay_divergence`].

use experiments::{runner, Monitor, Scenario, SchedulerKind};
use platform::{replay_divergence, FaultSpec, ScheduleSession};
use simcore::engine::RunOutcome;
use simcore::time::SimTime;
use workload::submit::SubmitTask;

fn scenario(load: f64, faults: bool) -> Scenario {
    let mut sc = Scenario::new(0x5E55, 400, load);
    if faults {
        sc.exec.faults = FaultSpec {
            enabled: true,
            proc_mtbf: 400.0,
            proc_mttr: 50.0,
            node_mtbf: 2000.0,
            node_mttr: 100.0,
            permanent_fraction: 0.1,
            max_retries: 3,
            horizon: 1500.0,
            seed: 0xFA17,
        };
    }
    sc
}

#[test]
fn a_session_admitting_at_arrival_reproduces_the_batch_run() {
    for kind in SchedulerKind::all_six() {
        for faults in [false, true] {
            for load in [0.3, 1.0] {
                let case = format!("{} faults {faults} load {load}", kind.label());
                let sc = scenario(load, faults);
                let (platform, mut tasks) = sc.build();
                // The session stamps `arrival + relative deadline`; the
                // batch side runs the same absolute deadlines.
                let subs: Vec<SubmitTask> = tasks
                    .iter_mut()
                    .map(|t| {
                        let rel = t.deadline.as_f64() - t.arrival.as_f64();
                        t.deadline = SimTime::new(t.arrival.as_f64() + rel);
                        SubmitTask {
                            size_mi: t.size_mi,
                            deadline: rel,
                            priority: t.priority,
                            site: t.site,
                        }
                    })
                    .collect();
                let seeded = kind.with_seed(sc.seed);
                let batch = runner::run_tasks(
                    platform.clone(),
                    tasks.clone(),
                    sc.exec,
                    &seeded,
                    &Monitor::default(),
                );

                let mut sched = seeded.build(platform.num_sites(), &Monitor::default());
                let engine = platform::ExecEngine::new(sc.exec);
                let mut session = ScheduleSession::new(&engine, platform, &mut *sched);
                let mut events = Vec::new();
                for (t, sub) in tasks.iter().zip(&subs) {
                    session.advance_to(t.arrival, &mut events);
                    let (at, ids) = session
                        .submit(std::slice::from_ref(sub))
                        .unwrap_or_else(|e| panic!("{case}: {e}"));
                    assert_eq!((at, ids[0]), (t.arrival, t.id), "{case}");
                }
                let mut horizon = tasks.last().expect("tasks").arrival.as_f64();
                loop {
                    horizon += 1_000.0;
                    let outcome = session.advance_to(SimTime::new(horizon), &mut events);
                    if outcome == RunOutcome::Drained && session.outstanding() == 0 {
                        break;
                    }
                    assert!(horizon < 1e7, "{case}: the session never drained");
                }
                if let Some(d) = replay_divergence(&batch, &session.finish()) {
                    panic!("{case}: the session diverged from the batch run: {d}");
                }
            }
        }
    }
}
