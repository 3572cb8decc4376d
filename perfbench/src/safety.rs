//! `safety-n5`: the Section 5 safety check on a 5-node cluster with the
//! 2-thread parallel explorer — small shifting (holds, exhaustive) and
//! full shifting (violated, shortest counterexample). Exhaustive: the
//! seed does not enter.

use crate::measure::{median, metric, repeat_for, secs, setup_time, Gate, Metric};
use crate::trace::{span, Tracer};
use crate::{Ctx, EndToEnd, Traced};
use std::time::Instant;
use tta_core::{
    verify_cluster_with, CheckStrategy, ClusterCodec, ClusterConfig, ClusterModel, CompactState,
    VerificationReport,
};
use tta_guardian::CouplerAuthority;
use tta_modelcheck::{StateCodec, StateGraph, TransitionSystem, Verdict};

pub const THREADS: usize = 2;

/// The pinned outcome of one configuration.
#[derive(Debug, Clone, Copy)]
struct Expect {
    authority: CouplerAuthority,
    verdict: Verdict,
    states: u64,
    transitions: u64,
    cex_len: Option<usize>,
}

fn nodes(ctx: &Ctx) -> usize {
    if ctx.smoke {
        4
    } else {
        5
    }
}

fn expectations(ctx: &Ctx) -> [Expect; 2] {
    let (small, full) = if ctx.smoke {
        ((40_055, 222_993), (14_488, 74_228, 11))
    } else {
        ((931_986, 5_415_348), (241_900, 1_336_979, 12))
    };
    [
        Expect {
            authority: CouplerAuthority::SmallShifting,
            verdict: Verdict::Holds,
            states: small.0,
            transitions: small.1,
            cex_len: None,
        },
        Expect {
            authority: CouplerAuthority::FullShifting,
            verdict: Verdict::Violated,
            states: full.0,
            transitions: full.1,
            cex_len: Some(full.2),
        },
    ]
}

fn config(ctx: &Ctx, authority: CouplerAuthority) -> ClusterConfig {
    ClusterConfig {
        nodes: nodes(ctx),
        ..ClusterConfig::paper(authority)
    }
}

fn gate_report(gate: &mut Gate, expect: &Expect, report: &VerificationReport) {
    let tag = format!("safety {:?}", expect.authority);
    gate.eq(&format!("{tag} verdict"), report.verdict, expect.verdict);
    gate.eq(
        &format!("{tag} states"),
        report.stats.states_explored,
        expect.states,
    );
    gate.eq(
        &format!("{tag} transitions"),
        report.stats.transitions,
        expect.transitions,
    );
    gate.eq(
        &format!("{tag} counterexample length"),
        report.counterexample_len(),
        expect.cex_len,
    );
}

/// One pass: both configurations through `strategy`, gated. Returns
/// the reports and the pass wall time.
fn pass(
    ctx: &Ctx,
    gate: &mut Gate,
    tracer: Option<&Tracer>,
    strategy: CheckStrategy,
) -> (Vec<VerificationReport>, f64) {
    let start = Instant::now();
    let reports: Vec<VerificationReport> = expectations(ctx)
        .iter()
        .map(|expect| {
            let cfg = config(ctx, expect.authority);
            span(
                tracer,
                "core",
                format!("tta_core::verify_cluster_with {:?}", expect.authority),
                || verify_cluster_with(&cfg, strategy),
            )
        })
        .collect();
    let wall = secs(start);
    for (expect, report) in expectations(ctx).iter().zip(&reports) {
        gate_report(gate, expect, report);
    }
    (reports, wall)
}

fn states(reports: &[VerificationReport]) -> u64 {
    reports.iter().map(|r| r.stats.states_explored).sum()
}

pub fn measure(ctx: &Ctx, gate: &mut Gate) -> EndToEnd {
    let strategy = CheckStrategy::ParallelBfs { threads: THREADS };
    let run = repeat_for(
        ctx.seconds,
        || {
            setup_time(|| {
                expectations(ctx).map(|e| {
                    let cfg = config(ctx, e.authority);
                    (ClusterModel::new(cfg), ClusterCodec::new(&cfg))
                })
            })
        },
        |p: &(u64, f64)| p.1,
        |_| {
            let (reports, wall) = pass(ctx, gate, None, strategy);
            (states(&reports), wall)
        },
    );
    let walls: Vec<f64> = run.passes.iter().map(|p| p.1).collect();
    let rates: Vec<f64> = run.passes.iter().map(|&(n, w)| n as f64 / w).collect();
    let states_per_s = median(&rates);
    EndToEnd {
        setups: run.setups,
        peak_rss_mb: run.peak_rss_mb,
        op_ms: walls.iter().map(|w| w * 1e3).collect(),
        pass_walls: walls,
        work_per_s: states_per_s,
        named: vec![metric("states_per_s", states_per_s, "1/s")],
    }
}

pub fn traced(ctx: &Ctx, tracer: &Tracer, gate: &mut Gate) -> Traced {
    let strategy = CheckStrategy::ParallelBfs { threads: THREADS };
    // Warm-up first: the process's first pass runs ~20% slower than
    // later ones, which read as a tracing overhead below 1.
    pass(ctx, gate, None, strategy);
    let (_, untraced_wall) = pass(ctx, gate, None, strategy);
    let (reports, traced_wall) = tracer.span("bench", "pass safety", || {
        pass(ctx, gate, Some(tracer), strategy)
    });
    let check_s_2t = tracer.total("tta_core::verify_cluster_with");
    let check_s_1t = tracer.span("bench", "probe sequential explorer", || {
        pass(ctx, gate, Some(tracer), CheckStrategy::Bfs).1
    });
    let holds = &reports[0].stats;
    let mut layer = vec![
        metric("modelcheck.check_s_1t", check_s_1t, "s"),
        metric("modelcheck.check_s_2t", check_s_2t, "s"),
        metric("modelcheck.speedup_2t", check_s_1t / check_s_2t, "x"),
        metric("modelcheck.states", holds.states_explored as f64, "count"),
        metric("modelcheck.transitions", holds.transitions as f64, "count"),
        metric("modelcheck.depth", holds.depth_reached as f64, "count"),
        metric(
            "modelcheck.frontier_peak",
            holds.frontier_peak as f64,
            "count",
        ),
        metric(
            "modelcheck.cex_len",
            reports[1].counterexample_len().unwrap_or(0) as f64,
            "count",
        ),
        metric(
            "modelcheck.visited_bytes_per_state",
            holds.bytes_per_state(),
            "B",
        ),
    ];
    let cfg = config(ctx, CouplerAuthority::SmallShifting);
    let (model, codec) = (ClusterModel::new(cfg), ClusterCodec::new(&cfg));
    let states: Vec<CompactState> = StateGraph::explore_with_codec(&model, &codec, usize::MAX)
        .states()
        .iter()
        .map(|s| codec.encode(s))
        .collect();
    gate.eq(
        "core probe reachable states",
        states.len() as u64,
        holds.states_explored,
    );
    layer.extend(tracer.span("bench", "probe core", || {
        core_probe(&model, &codec, &states, tracer)
    }));
    Traced {
        untraced_wall,
        traced_wall,
        layer,
    }
}

/// States expanded per timed batch in the core probe.
const PROBE_BATCH: usize = 4096;

/// Times `ClusterModel::successors` and `ClusterCodec::encode` over
/// `states` in batches, one span per batch and call, and returns the
/// two per-state costs in ns.
pub fn core_probe(
    model: &ClusterModel,
    codec: &ClusterCodec,
    states: &[CompactState],
    tracer: &Tracer,
) -> Vec<Metric> {
    const SUCC: &str = "tta_core::ClusterModel::successors";
    const ENCODE: &str = "tta_core::ClusterCodec::encode";
    for batch in states.chunks(PROBE_BATCH) {
        let decoded: Vec<_> = batch.iter().map(|e| codec.decode(e)).collect();
        tracer.span("core", SUCC, || {
            let mut out = Vec::new();
            for s in &decoded {
                out.clear();
                model.successors(s, &mut out);
                std::hint::black_box(&out);
            }
        });
        tracer.span("core", ENCODE, || {
            for s in &decoded {
                std::hint::black_box(codec.encode(s));
            }
        });
    }
    let n = states.len().max(1) as f64;
    vec![
        metric(
            "core.successors_ns_per_state",
            tracer.total(SUCC) * 1e9 / n,
            "ns",
        ),
        metric(
            "core.encode_ns_per_state",
            tracer.total(ENCODE) * 1e9 / n,
            "ns",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_count_mismatch_fails_the_gate() {
        let ctx = Ctx {
            seed: 7,
            seconds: 1.0,
            smoke: true,
        };
        let want = expectations(&ctx)[0];
        let report = verify_cluster_with(&config(&ctx, want.authority), CheckStrategy::Bfs);
        let mut gate = Gate::default();
        gate_report(&mut gate, &want, &report);
        assert_eq!(gate.failed, 0);
        let wrong = Expect {
            states: want.states + 1,
            ..want
        };
        gate_report(&mut gate, &wrong, &report);
        assert_eq!(gate.failed, 1);
    }
}
