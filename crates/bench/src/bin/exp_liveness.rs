//! Supplementary experiment S4 — integration liveness under weak fairness.
//!
//! The paper's Section 5 property is pure safety ("no integrated node
//! freezes"); a cluster that never comes up satisfies it vacuously. This
//! experiment checks the complementary *liveness* property per node —
//! `listening(i) ~> integrated(i)` — under weak fairness on each node's
//! startup progress, for all four star-coupler authority levels.
//!
//! Expected rows: passive / time windows / small shifting → the leads-to
//! **holds** for every node; full shifting → a fair lasso counterexample
//! whose cycle keeps a correct node out of active membership forever.
//!
//! Usage:
//!
//! * `exp_liveness` — the S4 paper-style table plus the narrated lasso
//!   for the full-shifting violation.
//! * `exp_liveness [--artifacts DIR] SCENARIO.toml...` — check every
//!   scenario that declares `expect.liveness`; exit non-zero on any
//!   mismatch. With `--artifacts`, rendered lassos of violated runs are
//!   written to `DIR` (one `.lasso.txt` per scenario).
//!
//! The times in the table are single runs. For measured liveness
//! throughput (repeated runs, medians, build/check split, the 2-thread
//! build speedup) use the repository benchmark:
//! `python3 perfbench/run.py --workload liveness-s4`.

use std::path::{Path, PathBuf};
use std::time::Instant;
use tta_analysis::tables::Table;
use tta_bench::{fmt_duration, heading};
use tta_conformance::{ExpectedVerdict, Scenario};
use tta_core::{
    narrate_lasso, verify_cluster_liveness, ClusterConfig, ClusterModel, LivenessReport, Verdict,
};
use tta_guardian::CouplerAuthority;

fn main() {
    let mut artifacts: Option<PathBuf> = None;
    let mut scenarios: Vec<PathBuf> = Vec::new();
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--artifacts" => {
                let dir = iter
                    .next()
                    .unwrap_or_else(|| usage("--artifacts needs a directory"));
                artifacts = Some(PathBuf::from(dir));
            }
            other if other.starts_with("--") => usage(&format!("unknown flag {other}")),
            path => scenarios.push(PathBuf::from(path)),
        }
    }
    if scenarios.is_empty() {
        if artifacts.is_some() {
            usage("--artifacts only applies to scenario mode");
        }
        paper_table();
    } else {
        scenario_mode(&scenarios, artifacts.as_deref());
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!("usage: exp_liveness [--artifacts DIR] [SCENARIO.toml...]");
    std::process::exit(2);
}

fn verdict_word(verdict: Verdict) -> &'static str {
    match verdict {
        Verdict::Holds => "holds",
        Verdict::Violated => "VIOLATED",
        Verdict::BudgetExhausted => "budget exhausted",
    }
}

/// One-line per-node verdict summary, e.g. `✓✓✓✗`.
fn per_node_marks(report: &LivenessReport) -> String {
    report
        .per_node
        .iter()
        .map(|v| match v {
            Verdict::Holds => '✓',
            Verdict::Violated => '✗',
            Verdict::BudgetExhausted => '?',
        })
        .collect()
}

fn paper_table() {
    heading("S4 — integration liveness vs. star-coupler authority (4-node cluster)");
    println!("property: for every node i, listening(i) ~> integrated(i)");
    println!(
        "fairness: weak fairness on each node's startup progress (freeze→init, init→listen)\n"
    );

    let mut table = Table::new([
        "coupler authority",
        "liveness verdict",
        "per node",
        "states",
        "SCCs examined",
        "lasso (stem+cycle)",
        "time",
    ]);
    let mut violation: Option<(CouplerAuthority, LivenessReport)> = None;
    for authority in CouplerAuthority::all() {
        let config = ClusterConfig::paper(authority);
        // detlint: allow(DL02) reason=benchmark measurement; wall-clock is the quantity this binary reports
        let started = Instant::now();
        let report = verify_cluster_liveness(&config);
        let elapsed = started.elapsed();
        table.row([
            authority.to_string(),
            verdict_word(report.verdict).to_string(),
            per_node_marks(&report),
            report.stats.states.to_string(),
            report.stats.sccs_examined.to_string(),
            report.lasso.as_ref().map_or_else(
                || "—".to_string(),
                |l| format!("{}+{} slots", l.stem_len(), l.cycle_len()),
            ),
            fmt_duration(elapsed),
        ]);
        if report.verdict == Verdict::Violated && violation.is_none() {
            violation = Some((authority, report));
        }
    }
    println!("{table}");
    println!(
        "reading: under the three restrained authorities every correct node that starts\n\
         listening eventually attains active membership; a full-shifting coupler can replay\n\
         buffered frames so that a correct node is denied integration forever.\n"
    );

    if let Some((authority, report)) = violation {
        let node = report
            .violating_node
            .map_or_else(|| "?".to_string(), |n| n.to_string());
        heading(&format!(
            "fair lasso counterexample ({authority}, node {node} never integrates)"
        ));
        let model = ClusterModel::new(report.config);
        let lasso = report.lasso.as_ref().expect("violated ⇒ lasso");
        for line in narrate_lasso(&model, lasso) {
            println!("{line}");
        }
    }
}

fn scenario_mode(paths: &[PathBuf], artifacts: Option<&Path>) -> ! {
    let mut failures = 0usize;
    let mut checked = 0usize;
    for path in paths {
        let scenario = match Scenario::load(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                failures += 1;
                continue;
            }
        };
        let Some(expected) = scenario.expect.liveness else {
            println!("{}: no expect.liveness — skipped", scenario.name);
            continue;
        };
        checked += 1;
        let config = scenario.checker_config();
        let report = verify_cluster_liveness(&config);
        let ok = match expected {
            ExpectedVerdict::Holds => report.verdict == Verdict::Holds,
            ExpectedVerdict::Violated => report.verdict == Verdict::Violated,
        };
        println!(
            "{}: liveness {} (expected {expected}, {} states, {}) ... {}",
            scenario.name,
            verdict_word(report.verdict),
            report.stats.states,
            fmt_duration(report.stats.build_time + report.stats.check_time),
            if ok { "ok" } else { "FAILED" }
        );
        if !ok {
            failures += 1;
        }
        if let (Some(dir), Some(lasso)) = (artifacts, report.lasso.as_ref()) {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: cannot create {}: {e}", dir.display());
                std::process::exit(1);
            }
            let file = dir.join(format!("{}.lasso.txt", scenario.name));
            let model = ClusterModel::new(config);
            let mut text = format!(
                "scenario: {}\nviolating node: {}\n\n",
                scenario.name,
                report
                    .violating_node
                    .map_or_else(|| "?".to_string(), |n| n.to_string())
            );
            for line in narrate_lasso(&model, lasso) {
                text.push_str(&line);
                text.push('\n');
            }
            if let Err(e) = std::fs::write(&file, text) {
                eprintln!("error: cannot write {}: {e}", file.display());
                std::process::exit(1);
            }
            println!("  wrote {}", file.display());
        }
    }
    println!("\n{checked} scenario(s) checked, {failures} failure(s)");
    std::process::exit(i32::from(failures > 0));
}
