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
//! `--quick` shrinks the sweeps (3 deployment points, 3 failure rates,
//! 2 seeds) for CI-speed runs; without it, the paper-scale sweeps
//! (5 × 5 and 9 × 5 runs) take some minutes.

use std::env;
use std::process::ExitCode;

use peas_bench::experiments::{self, ExperimentOpts};
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
            Ok(seeds) if !seeds.is_empty() => opts.seeds = seeds,
            _ => return CLI.usage_error("--seeds needs a comma-separated list of integers"),
        }
    }

    let t0 = std::time::Instant::now();
    match command {
        "fig9" => out!("{}", experiments::fig9(&opts.run_deployment_sweep())),
        "fig10" => out!("{}", experiments::fig10(&opts.run_deployment_sweep())),
        "fig11" => out!("{}", experiments::fig11(&opts.run_deployment_sweep())),
        "table1" => out!("{}", experiments::table1(&opts.run_deployment_sweep())),
        "fig12" => out!("{}", experiments::fig12(&opts.run_failure_sweep())),
        "fig13" => out!("{}", experiments::fig13(&opts.run_failure_sweep())),
        "fig14" => out!("{}", experiments::fig14(&opts.run_failure_sweep())),
        "sweep-n" => {
            let points = opts.run_deployment_sweep();
            out!(
                "{}\n{}\n{}\n{}",
                experiments::fig9(&points),
                experiments::fig10(&points),
                experiments::fig11(&points),
                experiments::table1(&points)
            );
        }
        "sweep-f" => {
            let points = opts.run_failure_sweep();
            out!(
                "{}\n{}\n{}",
                experiments::fig12(&points),
                experiments::fig13(&points),
                experiments::fig14(&points)
            );
        }
        "kaccuracy" => out!("{}", experiments::kaccuracy()),
        "adaptive" => out!("{}", experiments::adaptive(&opts)),
        "gaps" => out!("{}", experiments::gaps()),
        "connectivity" => out!("{}", experiments::connectivity(&opts)),
        "loss" => out!("{}", experiments::loss(&opts)),
        "deployment" => out!("{}", experiments::deployment_dist(&opts)),
        "irregular" => out!("{}", experiments::irregular(&opts)),
        "events" => out!("{}", experiments::events(&opts)),
        "rp" => out!("{}", experiments::rp_sweep(&opts)),
        "lambdad" => out!("{}", experiments::lambdad_sweep(&opts)),
        "turnoff" => out!("{}", experiments::turnoff(&opts)),
        "baselines" => out!("{}", experiments::baselines(&opts)),
        "all" => {
            let points_n = opts.run_deployment_sweep();
            out!(
                "{}\n{}\n{}\n{}\n",
                experiments::fig9(&points_n),
                experiments::fig10(&points_n),
                experiments::fig11(&points_n),
                experiments::table1(&points_n)
            );
            let points_f = opts.run_failure_sweep();
            out!(
                "{}\n{}\n{}\n",
                experiments::fig12(&points_f),
                experiments::fig13(&points_f),
                experiments::fig14(&points_f)
            );
            out!(
                "{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n",
                experiments::kaccuracy(),
                experiments::adaptive(&opts),
                experiments::gaps(),
                experiments::connectivity(&opts),
                experiments::loss(&opts),
                experiments::turnoff(&opts),
                experiments::deployment_dist(&opts),
                experiments::irregular(&opts),
                experiments::baselines(&opts)
            );
            outln!("{}", experiments::events(&opts));
            outln!("{}", experiments::rp_sweep(&opts));
            outln!("{}", experiments::lambdad_sweep(&opts));
        }
        other => return CLI.usage_error(&format!("unknown command `{other}`")),
    }
    eprintln!("[paper] {command} finished in {:.1?}", t0.elapsed());
    ExitCode::SUCCESS
}
