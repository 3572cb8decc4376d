//! The repository benchmark: one workload per process, measured end to
//! end (`--trace 0`) or layer by layer (`--trace 1`).
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--smoke]
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. The
//! process exits 1 when a correctness gate fails and 2 on a usage error.

mod campaign;
mod fuzz;
mod liveness;
mod measure;
mod safety;
mod trace;

use measure::{median, metric, Gate, Metric};
use std::path::PathBuf;
use trace::Tracer;
use tta_campaignd::json::Json;

/// Workload names with their worker-thread counts.
const WORKLOADS: [(&str, usize); 4] = [
    ("safety-n5", safety::THREADS),
    ("liveness-s4", liveness::THREADS),
    ("campaign-e10", campaign::THREADS),
    ("fuzz-seed7", fuzz::THREADS),
];

/// The `--trace 1` metrics. A layer a workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("bench.wall_s_untraced", "s"),
    ("bench.wall_s_traced", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.spans", "count"),
    ("modelcheck.check_s_1t", "s"),
    ("modelcheck.check_s_2t", "s"),
    ("modelcheck.speedup_2t", "x"),
    ("modelcheck.states", "count"),
    ("modelcheck.transitions", "count"),
    ("modelcheck.depth", "count"),
    ("modelcheck.frontier_peak", "count"),
    ("modelcheck.cex_len", "count"),
    ("modelcheck.visited_bytes_per_state", "B"),
    ("core.successors_ns_per_state", "ns"),
    ("core.encode_ns_per_state", "ns"),
    ("liveness.build_s", "s"),
    ("liveness.build_speedup_2t", "x"),
    ("liveness.check_s", "s"),
    ("liveness.check_share", "ratio"),
    ("liveness.sccs_examined", "count"),
    ("liveness.edges", "count"),
    ("liveness.lasso_len", "count"),
    ("liveness.narrate_s", "s"),
    ("liveness.graph_bytes_per_state", "B"),
    ("sim.trial_busy_s", "s"),
    ("sim.trial_p50_us", "us"),
    ("sim.slots_per_s", "1/s"),
    ("campaignd.runner_s", "s"),
    ("campaignd.protocol_s", "s"),
    ("campaignd.journal_appends", "count"),
    ("campaignd.journal_append_p50_us", "us"),
    ("campaignd.service_overhead", "x"),
    ("campaignd.cache_hit_ratio", "ratio"),
    ("campaignd.cache_lookup_p50_us", "us"),
    ("campaignd.warm_trials_per_s", "1/s"),
    ("campaignd.job_p50_ms", "ms"),
    ("campaignd.job_tail_ms", "ms"),
    ("fuzz.executions", "count"),
    ("fuzz.finds", "count"),
    ("fuzz.eval_calls", "count"),
    ("fuzz.eval_busy_s", "s"),
    ("fuzz.outside_eval_s", "s"),
    ("fuzz.outside_eval_share", "ratio"),
    ("fuzz.coverage_probe_s", "s"),
    ("fuzz.emit_verify_s", "s"),
    ("fuzz.emit_lint_s", "s"),
    ("fuzz.emit_conformance_s", "s"),
];

/// What a workload run is parameterized by.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// The untraced measurement of one workload.
#[derive(Debug)]
pub struct EndToEnd {
    /// Set-up time samples.
    pub setups: Vec<f64>,
    /// Peak RSS after the first pass.
    pub peak_rss_mb: f64,
    /// Wall time of each measured pass.
    pub pass_walls: Vec<f64>,
    /// Median units of work per second (states, trials, executions).
    pub work_per_s: f64,
    /// Latency of each user-level operation: a job submit for the
    /// campaign, a whole pass otherwise.
    pub op_ms: Vec<f64>,
    /// The workload's own end-to-end figures, under the names users
    /// know them by.
    pub named: Vec<Metric>,
}

/// The traced measurement of one workload.
#[derive(Debug)]
pub struct Traced {
    pub untraced_wall: f64,
    pub traced_wall: f64,
    pub layer: Vec<Metric>,
}

struct Args {
    workload: String,
    ctx: Ctx,
    trace: bool,
}

const USAGE: &str = "perfbench --workload safety-n5|liveness-s4|campaign-e10|fuzz-seed7 \
[--seed N] [--seconds S] [--trace 0|1] [--smoke]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        ctx: Ctx {
            seed: 7,
            seconds: 30.0,
            smoke: false,
        },
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.ctx.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.ctx.seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                args.ctx.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if args.ctx.seconds.is_nan() || args.ctx.seconds <= 0.0 {
                    return Err(bad("expected a positive number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == args.workload) {
        return Err(format!("unknown or missing --workload {:?}", args.workload));
    }
    Ok(args)
}

/// Output of a command, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn provenance(args: &Args, threads: usize) -> Json {
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    Json::Obj(vec![
        ("workload".to_string(), Json::str(args.workload.as_str())),
        ("host_cpus".to_string(), Json::UInt(host_cpus as u64)),
        (
            "git_rev".to_string(),
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "rustc".to_string(),
            Json::str(command_line("rustc", &["--version"])),
        ),
        ("threads".to_string(), Json::UInt(threads as u64)),
        ("seed".to_string(), Json::UInt(args.ctx.seed)),
        ("smoke".to_string(), Json::Bool(args.ctx.smoke)),
        ("comparable".to_string(), Json::Bool(threads <= host_cpus)),
    ])
}

fn end_to_end(workload: &str, ctx: &Ctx, gate: &mut Gate) -> Vec<Metric> {
    let e2e = match workload {
        "safety-n5" => safety::measure(ctx, gate),
        "liveness-s4" => liveness::measure(ctx, gate),
        "campaign-e10" => campaign::measure(ctx, gate),
        _ => fuzz::measure(ctx, gate),
    };
    let reported = vec![
        metric("setup_s", median(&e2e.setups), "s"),
        metric("wall_s", median(&e2e.pass_walls), "s"),
        metric("peak_rss_mb", e2e.peak_rss_mb, "MB"),
        metric("work_per_s", e2e.work_per_s, "1/s"),
        metric("op_p50_ms", median(&e2e.op_ms), "ms"),
    ];
    let walls: Vec<String> = e2e.pass_walls.iter().map(|w| format!("{w:.3}")).collect();
    println!(
        "passes {} [{} s]  operations {}",
        e2e.pass_walls.len(),
        walls.join(" "),
        e2e.op_ms.len()
    );
    let setups: Vec<String> = e2e.setups.iter().map(|t| format!("{t:.3e}")).collect();
    println!("setups {} [{} s]", setups.len(), setups.join(" "));
    for m in reported.iter().take(3).chain(&e2e.named) {
        println!("e2e {} {} {}", m.name, m.value, m.unit);
    }
    println!("e2e error_rate {} ratio", gate.error_rate());
    reported
}

fn per_layer(workload: &str, ctx: &Ctx, gate: &mut Gate, tracer: &Tracer) -> Vec<Metric> {
    let traced = match workload {
        "safety-n5" => safety::traced(ctx, tracer, gate),
        "liveness-s4" => liveness::traced(ctx, tracer, gate),
        "campaign-e10" => campaign::traced(ctx, tracer, gate),
        _ => fuzz::traced(ctx, tracer, gate),
    };
    let mut measured = vec![
        metric("bench.wall_s_untraced", traced.untraced_wall, "s"),
        metric("bench.wall_s_traced", traced.traced_wall, "s"),
        metric(
            "bench.trace_overhead",
            traced.traced_wall / traced.untraced_wall,
            "ratio",
        ),
        metric("bench.spans", tracer.spans().len() as f64, "count"),
    ];
    measured.extend(traced.layer);
    for m in &measured {
        assert!(
            PER_LAYER
                .iter()
                .any(|&(name, unit)| name == m.name && unit == m.unit),
            "per-layer metric {} [{}] is not declared",
            m.name,
            m.unit
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| metric(name, 0.0, unit))
        })
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\nusage: {USAGE}");
            std::process::exit(2);
        }
    };
    let threads = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .map_or(1, |w| w.1);
    let provenance = provenance(&args, threads);
    println!("provenance {}", provenance.render());

    let mut gate = Gate::default();
    let metrics = if args.trace {
        let tracer = Tracer::default();
        let metrics = per_layer(&args.workload, &args.ctx, &mut gate, &tracer);
        for m in &metrics {
            println!("layer {} {} {}", m.name, m.value, m.unit);
        }
        let dir = PathBuf::from(".bench_out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.ctx.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json(provenance)));
        match written {
            Ok(()) => println!("trace {}", path.display()),
            Err(e) => gate.check(false, || {
                format!("cannot write trace {}: {e}", path.display())
            }),
        }
        metrics
    } else {
        end_to_end(&args.workload, &args.ctx, &mut gate)
    };

    for failure in &gate.failures {
        println!("gate FAILED {failure}");
    }
    let correct = gate.failed == 0;
    let result = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::UInt(gate.attempted)),
        ("failed".to_string(), Json::UInt(gate.failed)),
        (
            "metrics".to_string(),
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|m| {
                        let body = Json::Obj(vec![
                            ("value".to_string(), Json::Float(m.value)),
                            ("unit".to_string(), Json::str(m.unit)),
                        ]);
                        (m.name, body)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    if !correct {
        std::process::exit(1);
    }
}
