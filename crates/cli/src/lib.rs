//! Library half of the `arls` command-line tool.
//!
//! Everything the binary does is exposed as testable functions: argument
//! parsing ([`args`]), scheduler selection ([`select`]) and the command
//! implementations ([`commands`]). The `arls` binary itself is a thin
//! dispatcher.

#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod select;
pub mod serve;

pub use args::{ArgError, Args};

/// Top-level usage text.
pub const USAGE: &str = "\
arls — Adaptive-RL energy-aware scheduling simulator

USAGE:
  arls simulate [--scheduler S] [--tasks N] [--offered F] [--seed N]
                [--sites N] [--scale] [--shards {auto,N}] [--no-split]
                [--gating] [--precision P] [--csv] [--audit] [fault flags]
      run one scenario and print the run summary
      schedulers: adaptive (default), online, qplus, prediction, rr, greedy
      --precision selects the adaptive scheduler's value-network kernels:
      f64 (default, bit-reproducible) or f32 (vectorized)
      --audit runs the correctness oracle alongside the simulation
      (conservation invariants, shadow energy accounting, replay check)
      and exits non-zero on any violation
      --shards runs the sharded parallel engine: one shard per site,
      spread over N worker threads (auto = available cores); results are
      bit-identical for every N. does not compose with the trace /
      checkpoint / monitoring flags. with --audit, per-shard oracles and
      the cross-shard conservation check run at every epoch barrier and
      the replay uses a different worker count
      --scale selects the 100-site / ~100k-processor scaling platform
      (the sharding study's shape; --sites still overrides the count)

  fault flags (simulate, compare, trace generate, trace run):
      --faults                 enable fault injection (needs a source below)
      --fault-proc-mtbf T      mean time between per-processor failures (0 = off)
      --fault-proc-mttr T      mean per-processor repair time
      --fault-node-mtbf T      mean time between whole-node failures (0 = off)
      --fault-node-mttr T      mean whole-node repair time
      --fault-permanent F      fraction of failures that never recover [0, 1]
      --fault-retries N        re-dispatch budget per task before it is failed
      --fault-horizon T        stop injecting new faults after this time
      --fault-seed N           dedicated RNG seed for the fault timeline

  checkpoint flags (simulate):
      --checkpoint-every N     snapshot the full simulation state every N
                               processed events (atomic, CRC-checked files)
      --checkpoint-dir PATH    directory the snapshots land in

  telemetry flags (simulate, trace run):
      --trace PATH             write a structured trace to PATH
      --trace-format F         jsonl (default) or chrome — the chrome format
                               loads directly in Perfetto (ui.perfetto.dev)
      --trace-level L          cycles, decisions (default) or all
      --progress               live progress line on stderr while running

  monitoring flags (simulate):
      --metrics-addr HOST:PORT serve live Prometheus metrics on /metrics for
                               the duration of the run (port 0 picks a free
                               port; the bound address is printed to stderr)
      --metrics-out PATH       write a final Prometheus text-format dump
      --timeseries PATH        sample per-site power/energy/queue state into
                               a JSONL time series at PATH
      --sample-every T         time-series cadence in sim time units
                               (default 10; samples land on control ticks)
      --profile                time the hot-path phases (event pop/handle,
                               observation build, scoring, training,
                               checkpoint writes); prints a phase table and
                               writes a PROFILE_*.json artifact
      --profile-out PATH       where --profile writes its JSON artifact
                               (default PROFILE_simulate.json)

  arls resume SNAPSHOT
      restore a checkpoint file and drive the run to completion; the
      completed run is bit-identical to one that never stopped

  arls compare  [--tasks N] [--offered F] [--seed N] [--references]
      run every scheduler on the same scenario and print a comparison table

  arls trace generate --out PATH [--tasks N] [--offered F] [--seed N]
      generate a workload and save it as a binary trace

  arls trace show PATH
      print a profile summary of a trace file

  arls trace run PATH [--scheduler S] [--seed N] [--sites N]
      replay a trace file through a scheduler, on the platform
      `trace generate` builds from the same flags

  arls serve [--listen HOST:PORT] [--scheduler S] [--seed N] [--sites N]
             [--pace F] [--metrics-addr HOST:PORT] [--port-file PATH]
             [--checkpoint-dir D] [--checkpoint-every-secs F]
             [--resume-from SNAPSHOT] [--run-for-secs F]
      run the live scheduling daemon: task submissions arrive as
      line-delimited JSON over TCP (one {\"submit\":…} object per line)
      and placement/completion notifications stream back on the same
      connection; sim time advances at --pace sim time units per wall
      second (default 100; 0 freezes the clock). --metrics-addr serves
      the shared arls_* / arls_ingest_* families on /metrics.
      --checkpoint-dir snapshots the full live state on the
      --checkpoint-every-secs timer and once more on SIGTERM/SIGINT;
      --resume-from restarts bit-exactly from such a snapshot (the
      scheduler and its learning state come from the file). --port-file
      writes the bound addresses for scripts; --run-for-secs bounds the
      run for tests. drive it with the load_driver bin:
      cargo run --release -p arl-experiments --bin load_driver -- --addr …

  arls settings
      print the paper-vs-reproduction experiment settings table

  arls help
      this text

Figures and reproduction checks live in the arl-experiments binaries:
  cargo run --release -p arl-experiments --bin {fig7..fig12,all,ablation,validate}
";
