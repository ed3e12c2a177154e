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
use peas_bench::Cli;

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
        println!("{}", CLI.usage);
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
        "fig9" => print!("{}", experiments::fig9(&opts.run_deployment_sweep())),
        "fig10" => print!("{}", experiments::fig10(&opts.run_deployment_sweep())),
        "fig11" => print!("{}", experiments::fig11(&opts.run_deployment_sweep())),
        "table1" => print!("{}", experiments::table1(&opts.run_deployment_sweep())),
        "fig12" => print!("{}", experiments::fig12(&opts.run_failure_sweep())),
        "fig13" => print!("{}", experiments::fig13(&opts.run_failure_sweep())),
        "fig14" => print!("{}", experiments::fig14(&opts.run_failure_sweep())),
        "sweep-n" => {
            let points = opts.run_deployment_sweep();
            print!(
                "{}\n{}\n{}\n{}",
                experiments::fig9(&points),
                experiments::fig10(&points),
                experiments::fig11(&points),
                experiments::table1(&points)
            );
        }
        "sweep-f" => {
            let points = opts.run_failure_sweep();
            print!(
                "{}\n{}\n{}",
                experiments::fig12(&points),
                experiments::fig13(&points),
                experiments::fig14(&points)
            );
        }
        "kaccuracy" => print!("{}", experiments::kaccuracy()),
        "adaptive" => print!("{}", experiments::adaptive(&opts)),
        "gaps" => print!("{}", experiments::gaps()),
        "connectivity" => print!("{}", experiments::connectivity(&opts)),
        "loss" => print!("{}", experiments::loss(&opts)),
        "deployment" => print!("{}", experiments::deployment_dist(&opts)),
        "irregular" => print!("{}", experiments::irregular(&opts)),
        "events" => print!("{}", experiments::events(&opts)),
        "rp" => print!("{}", experiments::rp_sweep(&opts)),
        "lambdad" => print!("{}", experiments::lambdad_sweep(&opts)),
        "turnoff" => print!("{}", experiments::turnoff(&opts)),
        "baselines" => print!("{}", experiments::baselines(&opts)),
        "all" => {
            let points_n = opts.run_deployment_sweep();
            print!(
                "{}\n{}\n{}\n{}\n",
                experiments::fig9(&points_n),
                experiments::fig10(&points_n),
                experiments::fig11(&points_n),
                experiments::table1(&points_n)
            );
            let points_f = opts.run_failure_sweep();
            print!(
                "{}\n{}\n{}\n",
                experiments::fig12(&points_f),
                experiments::fig13(&points_f),
                experiments::fig14(&points_f)
            );
            print!(
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
            println!("{}", experiments::events(&opts));
            println!("{}", experiments::rp_sweep(&opts));
            println!("{}", experiments::lambdad_sweep(&opts));
        }
        other => return CLI.usage_error(&format!("unknown command `{other}`")),
    }
    eprintln!("[paper] {command} finished in {:.1?}", t0.elapsed());
    ExitCode::SUCCESS
}
