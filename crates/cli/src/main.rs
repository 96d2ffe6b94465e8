//! `arls` — the command-line front door. Thin dispatcher over
//! [`arl_cli::commands`].

use arl_cli::commands;
use arl_cli::Args;

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    let result = match args.command() {
        Some("simulate") => commands::simulate(&args),
        Some("resume") => commands::resume(&args),
        Some("compare") => commands::compare(&args),
        Some("trace") => commands::trace(&args),
        Some("serve") => arl_cli::serve::serve(&args),
        Some("settings") => {
            // Same content as the arl-experiments `settings` binary.
            let sc = experiments::Scenario::new(2011, 3000, 1.0);
            let platform = sc.build_platform();
            Ok(format!(
                "experiment platform: {} sites / {} nodes / {} processors\n\
                 heavy inter-arrival (3000 tasks, offered 1.0): {:.4} t.u.\n\
                 see `cargo run -p arl-experiments --bin settings` for the full table\n",
                platform.num_sites(),
                platform.num_nodes(),
                platform.num_processors(),
                sc.interarrival_for(&platform)
            ))
        }
        Some("help") | None => {
            println!("{}", arl_cli::USAGE);
            return;
        }
        Some(other) => Err(commands::CmdError::Other(format!(
            "unknown command {other:?}; try `arls help`"
        ))),
    };
    match result {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
