//! Supplementary experiment S1 — state-space scaling.
//!
//! How the reachable state space and verification time of the Section 4
//! model grow with cluster size and with the replay budget. Not a paper
//! table (the paper fixes 4 nodes), but it substantiates the paper's
//! claim that the model is tractable and maps where it stops being so.
//!
//! Flags:
//!
//! * `--threads N` — run the S1 sweeps with the parallel BFS backend at
//!   `N` worker threads instead of sequential BFS.
//!
//! The times in the tables are single runs. For measured explorer
//! throughput (repeated runs, medians, the 2-thread speedup) use the
//! repository benchmark: `python3 perfbench/run.py --workload safety-n5`.

use std::time::Instant;
use tta_analysis::tables::Table;
use tta_bench::{fmt_duration, heading};
use tta_core::{verify_cluster_with, CheckStrategy, ClusterConfig, FaultBudget, Verdict};
use tta_guardian::CouplerAuthority;

/// Parses `[--threads N]` into the checking strategy.
fn parse_strategy() -> CheckStrategy {
    let mut strategy = CheckStrategy::Bfs;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threads" => {
                let value = iter
                    .next()
                    .unwrap_or_else(|| usage("--threads needs a value"));
                let threads = value
                    .parse()
                    .unwrap_or_else(|_| usage("--threads needs an integer"));
                strategy = CheckStrategy::ParallelBfs { threads };
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    strategy
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!("usage: exp_scaling [--threads N]");
    std::process::exit(2);
}

fn main() {
    let strategy = parse_strategy();

    heading("S1a — state space vs. cluster size (per coupler authority)");
    let mut table = Table::new(["nodes", "authority", "verdict", "states", "depth", "time"]);
    for nodes in 2..=5 {
        for authority in [
            CouplerAuthority::SmallShifting,
            CouplerAuthority::FullShifting,
        ] {
            let config = ClusterConfig {
                nodes,
                ..ClusterConfig::paper(authority)
            };
            // detlint: allow(DL02) reason=benchmark measurement; wall-clock is the quantity this binary reports
            let started = Instant::now();
            let report = verify_cluster_with(&config, strategy);
            table.row([
                nodes.to_string(),
                authority.to_string(),
                format!("{:?}", report.verdict),
                report.stats.states_explored.to_string(),
                report.stats.depth_reached.to_string(),
                fmt_duration(started.elapsed()),
            ]);
        }
    }
    println!("{table}");

    heading("S1b — replay budget vs. counterexample length (4 nodes, full shifting)");
    let mut table = Table::new(["budget", "verdict", "trace length", "states", "time"]);
    for budget in [
        FaultBudget::AtMost(0),
        FaultBudget::AtMost(1),
        FaultBudget::AtMost(2),
        FaultBudget::Unlimited,
    ] {
        let config = ClusterConfig {
            out_of_slot_budget: budget,
            ..ClusterConfig::paper(CouplerAuthority::FullShifting)
        };
        // detlint: allow(DL02) reason=benchmark measurement; wall-clock is the quantity this binary reports
        let started = Instant::now();
        let report = verify_cluster_with(&config, strategy);
        table.row([
            budget.to_string(),
            match report.verdict {
                Verdict::Holds => "holds".into(),
                Verdict::Violated => "VIOLATED".to_string(),
                Verdict::BudgetExhausted => "budget exhausted".into(),
            },
            report
                .counterexample_len()
                .map_or_else(|| "—".into(), |l| l.to_string()),
            report.stats.states_explored.to_string(),
            fmt_duration(started.elapsed()),
        ]);
    }
    println!("{table}");
    println!("a zero budget restores safety even for full shifting: the *capability to");
    println!("replay*, not the authority label, is what breaks the property. Constraining");
    println!("the budget lengthens the shortest counterexample, as the paper observes.");
}
