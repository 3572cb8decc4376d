//! Experiment E1/E2 — Section 5.2 verification results.
//!
//! Checks the paper's safety property (*no single coupler fault may
//! prevent any node from integrating or cost it its membership — an
//! integrated node never freezes*) for all four star-coupler authority
//! levels, printing verdicts, state-space sizes and wall-clock times.
//!
//! Paper rows reproduced: passive / time windows / small shifting →
//! property **holds**; full shifting → **counterexample** (frames
//! replayed out of slot).
//!
//! Flags:
//!
//! * `--json [PATH]` — additionally record the four rows machine-readably
//!   (verdict, counterexample length, full exploration statistics) to
//!   `PATH` (default `verification.json`) as hand-written JSON.

use std::time::Instant;
use tta_analysis::tables::Table;
use tta_bench::{fmt_duration, heading};
use tta_core::{verify_cluster, ClusterConfig, Verdict, VerificationReport};
use tta_guardian::CouplerAuthority;

fn parse_args() -> Option<String> {
    let mut json = None;
    let mut iter = std::env::args().skip(1).peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => {
                // Optional path operand; defaults to `verification.json`.
                let path = match iter.peek() {
                    Some(next) if !next.starts_with("--") => iter.next().expect("peeked"),
                    _ => "verification.json".to_string(),
                };
                json = Some(path);
            }
            other => {
                eprintln!("error: unknown argument {other}");
                eprintln!("usage: exp_verification [--json [PATH]]");
                std::process::exit(2);
            }
        }
    }
    json
}

fn verdict_word(verdict: Verdict) -> &'static str {
    match verdict {
        Verdict::Holds => "holds",
        Verdict::Violated => "violated",
        Verdict::BudgetExhausted => "budget_exhausted",
    }
}

/// One row as a hand-written JSON object (the stub `serde_json` the
/// offline build patches in cannot serialize maps).
fn json_row(authority: CouplerAuthority, report: &VerificationReport, seconds: f64) -> String {
    let stats = &report.stats;
    format!(
        "    {{\"authority\": \"{}\", \"verdict\": \"{}\", \"counterexample_len\": {}, \
         \"states_explored\": {}, \"transitions\": {}, \"frontier_peak\": {}, \
         \"depth_reached\": {}, \"visited_bytes\": {}, \"seconds\": {seconds:.6}}}",
        authority.to_string().replace(' ', "_"),
        verdict_word(report.verdict),
        report
            .counterexample_len()
            .map_or_else(|| "null".to_string(), |l| l.to_string()),
        stats.states_explored,
        stats.transitions,
        stats.frontier_peak,
        stats.depth_reached,
        stats.visited_bytes,
    )
}

fn main() {
    let json_path = parse_args();
    heading("E1/E2 — star-coupler authority vs. the Section 5 property (4-node cluster)");
    println!("property: AG ((state = active ∨ state = passive) → next(state) ≠ freeze)");
    println!("fault hypothesis: at most one faulty coupler per slot\n");

    let mut table = Table::new([
        "coupler authority",
        "verdict",
        "states explored",
        "trace length",
        "time",
    ]);
    let mut rows = Vec::new();
    for authority in CouplerAuthority::all() {
        let config = ClusterConfig::paper(authority);
        // detlint: allow(DL02) reason=benchmark measurement; wall-clock is the quantity this binary reports
        let started = Instant::now();
        let report = verify_cluster(&config);
        let elapsed = started.elapsed();
        let verdict = match report.verdict {
            Verdict::Holds => "holds".to_string(),
            Verdict::Violated => "VIOLATED".to_string(),
            Verdict::BudgetExhausted => "budget exhausted".to_string(),
        };
        table.row([
            authority.to_string(),
            verdict,
            report.stats.states_explored.to_string(),
            report
                .counterexample_len()
                .map_or_else(|| "—".to_string(), |l| format!("{l} slots")),
            fmt_duration(elapsed),
        ]);
        rows.push(json_row(authority, &report, elapsed.as_secs_f64()));
    }
    println!("{table}");
    println!(
        "paper: \"For the passive, time windows, and small shifting couplers we verify that\n\
         the property above holds. For the configuration that allows any star coupler to\n\
         buffer full frames and replay them in a later time slot, we obtain counter\n\
         examples from the model checker.\""
    );

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"snapshot\": \"verification_results\",\n  \"config\": \"paper/4-node\",\n  \
             \"rows\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        );
        std::fs::write(&path, &json).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("\nwrote {path}");
    }
}
