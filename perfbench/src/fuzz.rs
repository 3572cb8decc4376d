//! `fuzz-seed7`: coverage-guided fuzzing with 2 threads, seeded from
//! the benchmark seed (default 7).
//!
//! End to end, a pass is one fuzzing run stopped at its first find, and
//! pass `k` fuzzes `seed + k * SEED_STRIDE`. A run to the default
//! eight-find budget costs from 4 to 14 s depending on its seed, so one
//! such run per measurement could not hold steady across seeds; a run to
//! its first find cost 0.55 to 0.80 s on each of seeds 1 to 20 (2-vCPU
//! host), and a measurement makes dozens. The traced run makes the full default run (to the find
//! budget) on the benchmark seed itself, so the per-layer figures see
//! every find.

use crate::measure::{median, metric, repeat_for, timed, Gate, Metric};
use crate::trace::Tracer;
use crate::{Ctx, EndToEnd, Traced};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use tta_core::{verify_cluster, ClusterConfig};
use tta_fuzz::{
    fuzz_with, EvalContext, EvalSet, Evaluation, Evaluator, FuzzConfig, FuzzInput, FuzzOutcome,
    LocalEvaluator,
};
use tta_guardian::CouplerAuthority;
use tta_modellint::{config_coverage, lint_scenario, AnalysisOptions, Severity};

pub const THREADS: usize = 2;

/// Distance between the fuzzer seeds of successive end-to-end passes;
/// large, so that runs with nearby benchmark seeds share no fuzzer seed.
const SEED_STRIDE: u64 = 1_000_003;

/// The pinned outcome of a run: executions, finds, and the journal's
/// FNV-1a hash and length.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Expect {
    executions: usize,
    finds: usize,
    journal_fnv: u64,
    journal_len: usize,
}

/// The full default run: to the find budget (one round at smoke size).
fn full_config(ctx: &Ctx, seed: u64) -> FuzzConfig {
    FuzzConfig {
        seed,
        threads: THREADS,
        rounds: if ctx.smoke {
            1
        } else {
            FuzzConfig::default().rounds
        },
        ..FuzzConfig::default()
    }
}

/// An end-to-end pass: the full run, stopped at its first find.
fn first_find_config(ctx: &Ctx, seed: u64) -> FuzzConfig {
    FuzzConfig {
        max_finds: 1,
        ..full_config(ctx, seed)
    }
}

/// Outcomes pinned for seed 7; another seed has none, and its runs are
/// only checked against each other.
fn expect(ctx: &Ctx, cfg: &FuzzConfig) -> Option<Expect> {
    let full = cfg.max_finds == FuzzConfig::default().max_finds;
    match (cfg.seed, ctx.smoke, full) {
        (7, false, true) => Some(Expect {
            executions: 1489,
            finds: 8,
            journal_fnv: 7_665_224_132_194_144_499,
            journal_len: 2166,
        }),
        (7, true, true) => Some(Expect {
            executions: 240,
            finds: 1,
            journal_fnv: 18_304_256_053_808_207_807,
            journal_len: 671,
        }),
        (7, false, false) => Some(Expect {
            executions: 174,
            finds: 1,
            journal_fnv: 13_769_590_586_695_389_995,
            journal_len: 702,
        }),
        (7, true, false) => Some(Expect {
            executions: 174,
            finds: 1,
            journal_fnv: 10_379_200_301_881_276_249,
            journal_len: 671,
        }),
        _ => None,
    }
}

fn observed(outcome: &FuzzOutcome) -> Expect {
    Expect {
        executions: outcome.executions,
        finds: outcome.finds.len(),
        journal_fnv: tta_fuzz::fnv1a(outcome.journal.as_bytes()),
        journal_len: outcome.journal.len(),
    }
}

/// Gates the outcome of a run of `cfg`: pinned values where there are
/// some, and every emitted scenario parses.
fn gate_run(ctx: &Ctx, gate: &mut Gate, cfg: &FuzzConfig, outcome: &FuzzOutcome) {
    if let Some(want) = expect(ctx, cfg) {
        gate.eq(
            &format!(
                "fuzz seed {} run (executions, finds, journal hash)",
                cfg.seed
            ),
            observed(outcome),
            want,
        );
    }
    for find in &outcome.finds {
        let parsed = tta_conformance::Scenario::parse(&find.emitted.toml, Path::new("scenarios"));
        gate.check(parsed.is_ok(), || {
            format!("emitted scenario {} does not parse", find.emitted.name)
        });
    }
}

/// Gates that two runs of one configuration wrote the same journal.
fn gate_same_journal(gate: &mut Gate, seed: u64, a: &FuzzOutcome, b: &FuzzOutcome) {
    gate.check(a.journal == b.journal, || {
        format!("fuzz seed {seed}: journal differs between runs")
    });
}

/// [`LocalEvaluator`] with a span and a busy-time counter around every
/// candidate evaluation the engine requests.
struct TimedEvaluator<'t> {
    tracer: &'t Tracer,
    parent: Option<u64>,
    // Relaxed: statistics read after the run's threads are joined.
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl Evaluator for TimedEvaluator<'_> {
    fn evaluate_under(
        &self,
        input: &FuzzInput,
        ctx: &EvalContext,
        authority: CouplerAuthority,
    ) -> Evaluation {
        LocalEvaluator.evaluate_under(input, ctx, authority)
    }

    fn evaluate(&self, input: &FuzzInput, ctx: &EvalContext) -> EvalSet {
        let (set, t) = timed(|| {
            self.tracer
                .span_under(self.parent, "fuzz", "tta_fuzz::Evaluator::evaluate", || {
                    LocalEvaluator.evaluate(input, ctx)
                })
        });
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add((t * 1e9) as u64, Ordering::Relaxed);
        set
    }
}

pub fn measure(ctx: &Ctx, gate: &mut Gate) -> EndToEnd {
    let seed_of = |pass: usize| ctx.seed.wrapping_add(pass as u64 * SEED_STRIDE);
    // A zero-round run does exactly a run's set-up: the coverage probe
    // and the seed corpus evaluation.
    let setup_only = FuzzConfig {
        rounds: 0,
        ..full_config(ctx, ctx.seed)
    };
    let mut first = None;
    let run = repeat_for(
        ctx.seconds,
        || timed(|| fuzz_with(&setup_only, &LocalEvaluator)).1,
        |p: &(usize, f64)| p.1,
        |pass| {
            let cfg = first_find_config(ctx, seed_of(pass));
            let (outcome, wall) = timed(|| fuzz_with(&cfg, &LocalEvaluator));
            gate_run(ctx, gate, &cfg, &outcome);
            let executions = outcome.executions;
            if pass == 0 {
                first = Some(outcome);
            }
            (executions, wall)
        },
    );
    // The first pass's seed once more, untimed: the same journal bytes.
    if let Some(first) = &first {
        let again = fuzz_with(&first_find_config(ctx, ctx.seed), &LocalEvaluator);
        gate_same_journal(gate, ctx.seed, first, &again);
    }
    let walls: Vec<f64> = run.passes.iter().map(|p| p.1).collect();
    let rates: Vec<f64> = run.passes.iter().map(|&(n, w)| n as f64 / w).collect();
    let execs_per_s = median(&rates);
    EndToEnd {
        peak_rss_mb: run.peak_rss_mb,
        setups: run.setups,
        op_ms: walls.iter().map(|w| w * 1e3).collect(),
        pass_walls: walls,
        work_per_s: execs_per_s,
        named: vec![metric("execs_per_s", execs_per_s, "1/s")],
    }
}

pub fn traced(ctx: &Ctx, tracer: &Tracer, gate: &mut Gate) -> Traced {
    let cfg = full_config(ctx, ctx.seed);
    // Warm-up first, so the untraced run is not the process's first.
    let _ = fuzz_with(&cfg, &LocalEvaluator);
    let (untraced, untraced_wall) = timed(|| fuzz_with(&cfg, &LocalEvaluator));
    gate_run(ctx, gate, &cfg, &untraced);

    let ((outcome, evaluator, run_id), traced_wall) = timed(|| {
        tracer.span("fuzz", "tta_fuzz::fuzz_with", || {
            let evaluator = TimedEvaluator {
                tracer,
                parent: Tracer::current(),
                calls: AtomicU64::new(0),
                busy_ns: AtomicU64::new(0),
            };
            let outcome = fuzz_with(&cfg, &evaluator);
            let id = evaluator.parent;
            (outcome, evaluator, id)
        })
    });
    gate_run(ctx, gate, &cfg, &outcome);
    gate_same_journal(gate, ctx.seed, &untraced, &outcome);
    let outside_eval_s = run_id.map_or(0.0, |id| tracer.self_time(id));

    let coverage_probe_s = tracer.span("bench", "probe coverage", || {
        let probe = AnalysisOptions {
            max_states: 1 << 14,
        };
        timed(|| {
            for authority in CouplerAuthority::all() {
                tracer.span("modellint", "tta_modellint::config_coverage", || {
                    config_coverage("probe", &ClusterConfig::paper(authority), &probe)
                });
            }
        })
        .1
    });

    let mut layer = vec![
        metric("fuzz.executions", outcome.executions as f64, "count"),
        metric("fuzz.finds", outcome.finds.len() as f64, "count"),
        metric(
            "fuzz.eval_calls",
            evaluator.calls.load(Ordering::Relaxed) as f64,
            "count",
        ),
        metric(
            "fuzz.eval_busy_s",
            evaluator.busy_ns.load(Ordering::Relaxed) as f64 / 1e9,
            "s",
        ),
        metric("fuzz.outside_eval_s", outside_eval_s, "s"),
        metric(
            "fuzz.outside_eval_share",
            outside_eval_s / traced_wall,
            "ratio",
        ),
        metric("fuzz.coverage_probe_s", coverage_probe_s, "s"),
    ];
    layer.extend(tracer.span("bench", "probe emission checks", || {
        emission_probe(&outcome, gate, tracer)
    }));
    Traced {
        untraced_wall,
        traced_wall,
        layer,
    }
}

/// Re-runs every find's emitted scenario through the three checks
/// emission applies (safety verdict, lint, conformance replay), timing
/// each.
fn emission_probe(outcome: &FuzzOutcome, gate: &mut Gate, tracer: &Tracer) -> Vec<Metric> {
    let (mut verify_s, mut lint_s, mut conformance_s) = (0.0, 0.0, 0.0);
    for find in &outcome.finds {
        let name = &find.emitted.name;
        // A scenario that does not parse already failed its gate.
        let Ok(scenario) =
            tta_conformance::Scenario::parse(&find.emitted.toml, Path::new("scenarios"))
        else {
            continue;
        };
        let (_, t) = timed(|| {
            tracer.span("core", "tta_core::verify_cluster", || {
                verify_cluster(&scenario.checker_config())
            })
        });
        verify_s += t;
        let ((diags, _), t) = timed(|| {
            tracer.span("modellint", "tta_modellint::lint_scenario", || {
                lint_scenario(name, &scenario, &AnalysisOptions::default())
            })
        });
        lint_s += t;
        gate.check(diags.iter().all(|d| d.severity == Severity::Note), || {
            format!("emitted scenario {name} lints dirty")
        });
        let (replay, t) = timed(|| {
            tracer.span("conformance", "tta_conformance::run_scenario", || {
                tta_conformance::run_scenario(&scenario)
            })
        });
        conformance_s += t;
        gate.check(replay.passed, || {
            format!("emitted scenario {name} does not replay cleanly")
        });
    }
    vec![
        metric("fuzz.emit_verify_s", verify_s, "s"),
        metric("fuzz.emit_lint_s", lint_s, "s"),
        metric("fuzz.emit_conformance_s", conformance_s, "s"),
    ]
}
