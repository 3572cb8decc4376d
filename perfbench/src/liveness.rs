//! `liveness-s4`: the S4 weak-fairness liveness check — build the fair
//! graph with 2 threads, check `listening ~> integrated` for every node,
//! narrate the first lasso. Full shifting (violated, 3.6M states); the
//! smoke size is small shifting (holds). Exhaustive: no seed.

use crate::measure::{median, metric, repeat_for, secs, setup_time, Gate};
use crate::safety::core_probe;
use crate::trace::{span, Tracer};
use crate::{Ctx, EndToEnd, Traced};
use std::time::Instant;
use tta_core::{
    cluster_startup_fairness, narrate_lasso, node_integration_property, ClusterCodec,
    ClusterConfig, ClusterModel,
};
use tta_guardian::CouplerAuthority;
use tta_liveness::{FairGraph, LivenessOutcome};
use tta_modelcheck::{StateCodec, Verdict, DEFAULT_MAX_STATES};

pub const THREADS: usize = 2;

/// The pinned outcome of the check.
struct Expect {
    authority: CouplerAuthority,
    states: usize,
    edges: usize,
    per_node: [Verdict; 4],
    sccs: [u64; 4],
    /// `(stem, cycle, stutter)` of the first violating node's lasso.
    lasso: Option<(usize, usize, bool)>,
}

fn expect(ctx: &Ctx) -> Expect {
    if ctx.smoke {
        Expect {
            authority: CouplerAuthority::SmallShifting,
            states: 40_055,
            edges: 222_993,
            per_node: [Verdict::Holds; 4],
            sccs: [30_536, 30_848, 31_103, 31_310],
            lasso: None,
        }
    } else {
        Expect {
            authority: CouplerAuthority::FullShifting,
            states: 3_608_225,
            edges: 19_030_682,
            per_node: [Verdict::Violated; 4],
            sccs: [2_073_338, 2_143_473, 2_109_821, 2_109_052],
            lasso: Some((11, 1, true)),
        }
    }
}

/// What one pass measured.
struct Pass {
    wall: f64,
    states: usize,
    build_s: f64,
    check_s: f64,
    sccs: u64,
    edges: usize,
    lasso_len: usize,
    narrate_s: f64,
    bytes_per_state: f64,
}

fn pass(ctx: &Ctx, gate: &mut Gate, tracer: Option<&Tracer>, threads: usize) -> Pass {
    let want = expect(ctx);
    let cfg = ClusterConfig::paper(want.authority);
    let start = Instant::now();
    let model = ClusterModel::new(cfg);
    let codec = ClusterCodec::new(&cfg);
    let fairness = cluster_startup_fairness(cfg.nodes);
    let (graph, build_s) = timed_span(
        tracer,
        "tta_liveness::FairGraph::build_with_threads",
        || FairGraph::build_with_threads(&model, &codec, &fairness, DEFAULT_MAX_STATES, threads),
    );
    let mut outcomes: Vec<LivenessOutcome<_>> = Vec::with_capacity(cfg.nodes);
    let mut check_s = 0.0;
    for node in 0..cfg.nodes {
        let (outcome, t) = timed_span(
            tracer,
            format!("tta_liveness::FairGraph::check node {node}"),
            || graph.check(&node_integration_property(node)),
        );
        check_s += t;
        outcomes.push(outcome);
    }
    let lasso = outcomes.iter().find_map(|o| o.lasso.as_ref());
    let (narration, narrate_s) = timed_span(tracer, "tta_core::narrate_lasso", || {
        lasso.map(|l| narrate_lasso(&model, l))
    });
    let wall = secs(start);

    gate.eq("liveness states", graph.state_count(), want.states);
    gate.eq("liveness edges", graph.edge_count(), want.edges);
    let verdicts: Vec<Verdict> = outcomes.iter().map(|o| o.verdict).collect();
    gate.eq(
        "liveness per-node verdicts",
        verdicts,
        want.per_node.to_vec(),
    );
    let sccs: Vec<u64> = outcomes.iter().map(|o| o.stats.sccs_examined).collect();
    gate.eq("liveness sccs examined", sccs, want.sccs.to_vec());
    let shape = lasso.map(|l| (l.stem_len(), l.cycle_len(), l.is_stutter()));
    gate.eq("liveness lasso shape", shape, want.lasso);
    gate.check(narration.as_ref().is_none_or(|n| !n.is_empty()), || {
        "liveness lasso narration is empty".to_string()
    });
    Pass {
        wall,
        states: graph.state_count(),
        build_s,
        check_s,
        sccs: outcomes.iter().map(|o| o.stats.sccs_examined).sum(),
        edges: graph.edge_count(),
        lasso_len: lasso.map_or(0, |l| l.stem_len() + l.cycle_len()),
        narrate_s,
        bytes_per_state: graph.approx_bytes() as f64 / graph.state_count().max(1) as f64,
    }
}

/// Runs `f` in a `liveness` span (when tracing) and returns its wall time.
fn timed_span<T>(
    tracer: Option<&Tracer>,
    name: impl Into<String>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let out = span(tracer, "liveness", name, f);
    (out, secs(start))
}

pub fn measure(ctx: &Ctx, gate: &mut Gate) -> EndToEnd {
    let want = expect(ctx);
    let run = repeat_for(
        ctx.seconds,
        || {
            setup_time(|| {
                let cfg = ClusterConfig::paper(want.authority);
                (
                    ClusterModel::new(cfg),
                    ClusterCodec::new(&cfg),
                    cluster_startup_fairness(cfg.nodes),
                    (0..cfg.nodes)
                        .map(node_integration_property)
                        .collect::<Vec<_>>(),
                )
            })
        },
        |p: &Pass| p.wall,
        |_| pass(ctx, gate, None, THREADS),
    );
    let walls: Vec<f64> = run.passes.iter().map(|p| p.wall).collect();
    let rates: Vec<f64> = run
        .passes
        .iter()
        .map(|p| p.states as f64 / p.wall)
        .collect();
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
    // Warm-up first, so the untraced pass is not the process's first.
    pass(ctx, gate, None, THREADS);
    let untraced_wall = pass(ctx, gate, None, THREADS).wall;
    let p = tracer.span("bench", "pass liveness", || {
        pass(ctx, gate, Some(tracer), THREADS)
    });
    // The 1-thread build is the speedup's base; its states then feed the
    // successor/encode probe.
    let cfg = ClusterConfig::paper(expect(ctx).authority);
    let (model, codec) = (ClusterModel::new(cfg), ClusterCodec::new(&cfg));
    let fairness = cluster_startup_fairness(cfg.nodes);
    let (states, build_1t) = tracer.span("bench", "probe 1-thread build", || {
        let (graph, t) = timed_span(
            Some(tracer),
            "tta_liveness::FairGraph::build_with_threads 1",
            || FairGraph::build_with_threads(&model, &codec, &fairness, DEFAULT_MAX_STATES, 1),
        );
        gate.eq(
            "liveness 1-thread build states",
            graph.state_count(),
            p.states,
        );
        let ids = 0..graph.state_count() as u32;
        (
            ids.map(|id| codec.encode(&graph.state(id)))
                .collect::<Vec<_>>(),
            t,
        )
    });
    let mut layer = vec![
        metric("liveness.build_s", p.build_s, "s"),
        metric("liveness.build_speedup_2t", build_1t / p.build_s, "x"),
        metric("liveness.check_s", p.check_s, "s"),
        metric("liveness.check_share", p.check_s / p.wall, "ratio"),
        metric("liveness.sccs_examined", p.sccs as f64, "count"),
        metric("liveness.edges", p.edges as f64, "count"),
        metric("liveness.lasso_len", p.lasso_len as f64, "count"),
        metric("liveness.narrate_s", p.narrate_s, "s"),
        metric("liveness.graph_bytes_per_state", p.bytes_per_state, "B"),
    ];
    layer.extend(tracer.span("bench", "probe core", || {
        core_probe(&model, &codec, &states, tracer)
    }));
    Traced {
        untraced_wall,
        traced_wall: p.wall,
        layer,
    }
}
