//! Regenerates the tables and figures of the PEAS paper (ICDCS 2003).
//!
//! ```text
//! Usage: paper <command> [--quick] [--seeds a,b,c]
//!
//! Commands:
//!   fig9 fig10 fig11 table1    deployment-number sweep artifacts
//!   fig12 fig13 fig14          failure-rate sweep artifacts
//!   sweep-n                    fig9 + fig10 + fig11 + table1 from one sweep
//!   sweep-f                    fig12 + fig13 + fig14 from one sweep
//!   kaccuracy adaptive gaps connectivity loss turnoff deployment irregular events
//!   rp lambdad baselines
//!   all                        everything above
//! ```
//!
//! The deployment sweep (Figures 9–11, Table 1) is the one
//! `scenarios/fig9.peas` declares, and the failure sweep (Figures 12–14)
//! the one `scenarios/fig12.peas` declares; a missing or sweep-less file
//! exits 1, naming it. `--seeds` replaces every experiment's seeds.
//! `--quick` keeps each sweep's first, middle and last values and two
//! seeds (3 × 2 runs per sweep) for CI-speed runs; without it, the
//! paper-scale sweeps (5 × 5 and 9 × 5 runs) take some seconds each.

use std::env;
use std::process::ExitCode;

use peas_bench::experiments::{self, ExperimentOpts, Sweep};
use peas_bench::{out, outln, Cli};

const CLI: Cli = Cli {
    usage: "usage: paper <command> [--quick] [--seeds a,b,c]\n\
            commands: fig9 fig10 fig11 table1 fig12 fig13 fig14 sweep-n sweep-f kaccuracy \
            adaptive gaps connectivity loss turnoff deployment irregular events rp lambdad \
            baselines all",
    values: &["--seeds"],
    switches: &["--quick", "--help", "-h"],
};

fn main() -> ExitCode {
    let raw: Vec<String> = env::args().skip(1).collect();
    let args = match CLI.parse(&raw) {
        Ok(args) => args,
        Err(code) => return code,
    };
    if args.has("help") || args.has("h") {
        outln!("{}", CLI.usage);
        return ExitCode::SUCCESS;
    }
    let [command] = &args.positional[..] else {
        return CLI.usage_error("expected one command");
    };
    let command = command.as_str();
    let mut opts = if args.has("quick") {
        ExperimentOpts::quick()
    } else {
        ExperimentOpts::full()
    };
    if let Some(list) = args.get("seeds") {
        match list
            .split(',')
            .map(str::parse)
            .collect::<Result<Vec<u64>, _>>()
        {
            Ok(seeds) if !seeds.is_empty() => opts.seeds = Some(seeds),
            _ => return CLI.usage_error("--seeds needs a comma-separated list of integers"),
        }
    }

    let t0 = std::time::Instant::now();
    match run(command, &opts) {
        Ok(true) => {}
        Ok(false) => return CLI.usage_error(&format!("unknown command `{command}`")),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("[paper] {command} finished in {:.1?}", t0.elapsed());
    ExitCode::SUCCESS
}

/// Prints the artifacts of `command`; `Ok(false)` when there is no such
/// command.
fn run(command: &str, opts: &ExperimentOpts) -> Result<bool, String> {
    let sweep = |scenario| opts.sweep(scenario).map(Sweep::run);
    let sweep_n = || -> Result<String, String> {
        let points = sweep("fig9")?;
        Ok(format!(
            "{}\n{}\n{}\n{}",
            experiments::fig9(&points),
            experiments::fig10(&points),
            experiments::fig11(&points),
            experiments::table1(&points)
        ))
    };
    let sweep_f = || -> Result<String, String> {
        let points = sweep("fig12")?;
        Ok(format!(
            "{}\n{}\n{}",
            experiments::fig12(&points),
            experiments::fig13(&points),
            experiments::fig14(&points)
        ))
    };
    match command {
        "fig9" => out!("{}", experiments::fig9(&sweep("fig9")?)),
        "fig10" => out!("{}", experiments::fig10(&sweep("fig9")?)),
        "fig11" => out!("{}", experiments::fig11(&sweep("fig9")?)),
        "table1" => out!("{}", experiments::table1(&sweep("fig9")?)),
        "fig12" => out!("{}", experiments::fig12(&sweep("fig12")?)),
        "fig13" => out!("{}", experiments::fig13(&sweep("fig12")?)),
        "fig14" => out!("{}", experiments::fig14(&sweep("fig12")?)),
        "sweep-n" => out!("{}", sweep_n()?),
        "sweep-f" => out!("{}", sweep_f()?),
        "kaccuracy" => out!("{}", experiments::kaccuracy()),
        "adaptive" => out!("{}", experiments::adaptive(opts)),
        "gaps" => out!("{}", experiments::gaps()),
        "connectivity" => out!("{}", experiments::connectivity(opts)),
        "loss" => out!("{}", experiments::loss(opts)),
        "deployment" => out!("{}", experiments::deployment_dist(opts)),
        "irregular" => out!("{}", experiments::irregular(opts)),
        "events" => out!("{}", experiments::events(opts)),
        "rp" => out!("{}", experiments::rp_sweep(opts)),
        "lambdad" => out!("{}", experiments::lambdad_sweep(opts)),
        "turnoff" => out!("{}", experiments::turnoff(opts)),
        "baselines" => out!("{}", experiments::baselines(opts)),
        "all" => {
            outln!("{}", sweep_n()?);
            outln!("{}", sweep_f()?);
            out!(
                "{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n",
                experiments::kaccuracy(),
                experiments::adaptive(opts),
                experiments::gaps(),
                experiments::connectivity(opts),
                experiments::loss(opts),
                experiments::turnoff(opts),
                experiments::deployment_dist(opts),
                experiments::irregular(opts),
                experiments::baselines(opts)
            );
            outln!("{}", experiments::events(opts));
            outln!("{}", experiments::rp_sweep(opts));
            outln!("{}", experiments::lambdad_sweep(opts));
        }
        _ => return Ok(false),
    }
    Ok(true)
}
