//! Cross-crate integration tests: the model checker, simulator, analysis
//! and wire layers must tell one consistent story.

use tta::analysis;
use tta::campaignd::hash::fnv1a64;
use tta::core::{
    cluster_startup_fairness, node_integration_property, verify_cluster, ClusterCodec,
    ClusterConfig, ClusterModel, Verdict,
};
use tta::guardian::{buffer, CouplerAuthority, CouplerFaultMode};
use tta::liveness::FairGraph;
use tta::modelcheck::{StateCodec, WordEncoded, DEFAULT_MAX_STATES};
use tta::sim::{
    Campaign, CouplerFaultEvent, FaultPersistence, FaultPlan, Scenario, SimBuilder, Topology,
};
use tta::types::constants::{LINE_ENCODING_BITS, N_FRAME_MIN_BITS};

/// The formal model's verdicts and the simulator's observations agree on
/// passive coupler faults: tolerated by both.
#[test]
fn checker_and_simulator_agree_on_passive_faults() {
    // Checker: property holds for a small-shifting coupler (which can
    // exhibit silence and bad-frame faults but cannot replay).
    let checked = verify_cluster(&ClusterConfig::paper(CouplerAuthority::SmallShifting));
    assert_eq!(checked.verdict, Verdict::Holds);

    // Simulator: a persistent silence fault and a persistent noise fault
    // on channel 0 leave every healthy node running.
    for mode in [CouplerFaultMode::Silence, CouplerFaultMode::BadFrame] {
        let plan = FaultPlan::none().with_coupler_fault(CouplerFaultEvent {
            channel: 0,
            mode,
            from_slot: 0,
            to_slot: 400,
            persistence: FaultPersistence::Transient,
        });
        let report = SimBuilder::new(4)
            .topology(Topology::Star)
            .authority(CouplerAuthority::SmallShifting)
            .slots(400)
            .plan(plan)
            .build()
            .run();
        assert!(report.cluster_started(), "{mode:?}: {report}");
        assert!(report.healthy_frozen().is_empty(), "{mode:?}: {report}");
    }
}

/// The formal model's violation is reproducible as a concrete execution:
/// the replay fault disturbs a simulated cluster too.
#[test]
fn checker_violation_has_a_concrete_execution() {
    let checked = verify_cluster(&ClusterConfig::paper(CouplerAuthority::FullShifting));
    assert_eq!(checked.verdict, Verdict::Violated);

    let plan = FaultPlan::none().with_coupler_fault(CouplerFaultEvent {
        channel: 0,
        mode: CouplerFaultMode::OutOfSlot,
        from_slot: 12,
        to_slot: 400,
        persistence: FaultPersistence::Transient,
    });
    let report = SimBuilder::new(4)
        .topology(Topology::Star)
        .authority(CouplerAuthority::FullShifting)
        .slots(400)
        .plan(plan)
        .build()
        .run();
    assert!(
        !report.healthy_frozen().is_empty() || !report.cluster_started(),
        "{report}"
    );
}

/// Campaign-level shape of the paper's argument: each step up in guardian
/// authority removes fault classes — until full shifting adds one back.
#[test]
fn authority_ladder_matches_the_papers_tradeoff() {
    let trials = 16;
    let rate = |topology, authority, scenario| {
        Campaign::new(4, topology, authority)
            .trials(trials)
            .run(scenario)
            .propagation_rate()
    };

    // SOS: bus suffers; a reshaping star does not.
    let sos_bus = rate(
        Topology::Bus,
        CouplerAuthority::Passive,
        Scenario::SosSender,
    );
    let sos_star = rate(
        Topology::Star,
        CouplerAuthority::SmallShifting,
        Scenario::SosSender,
    );
    assert!(
        sos_bus > 0.3,
        "SOS must propagate on the bus (got {sos_bus})"
    );
    assert_eq!(sos_star, 0.0, "reshaping must contain SOS");

    // Masquerading cold start: blocked by any blocking hub.
    let masq_bus = rate(
        Topology::Bus,
        CouplerAuthority::Passive,
        Scenario::MasqueradeColdStart,
    );
    let masq_star = rate(
        Topology::Star,
        CouplerAuthority::TimeWindows,
        Scenario::MasqueradeColdStart,
    );
    assert!(masq_bus > 0.0, "masquerade must disturb the bus");
    assert_eq!(masq_star, 0.0, "semantic analysis must contain masquerade");

    // The replay fault exists only once full-frame buffering exists, and
    // it propagates there.
    let replay_small = Campaign::new(4, Topology::Star, CouplerAuthority::SmallShifting)
        .trials(trials)
        .run(Scenario::CouplerReplay);
    assert!(!replay_small.applicable());
    let replay_full = rate(
        Topology::Star,
        CouplerAuthority::FullShifting,
        Scenario::CouplerReplay,
    );
    assert!(replay_full > 0.0, "the new fault class must be observable");
}

/// The closed-form Section 6 bound and the executable guardian buffer
/// agree across a parameter sweep.
#[test]
fn closed_form_and_leaky_bucket_agree() {
    for frame_bits in [76u32, 512, 2076, 20_000, 115_000] {
        for rho in [1e-4, 2e-4, 1e-3, 1e-2] {
            let closed = analysis::min_buffer_bits(LINE_ENCODING_BITS, rho, frame_bits);
            let simulated =
                buffer::simulate_forwarding(frame_bits, 1.0, 1.0 - rho, LINE_ENCODING_BITS);
            let diff = (closed - f64::from(simulated.peak_occupancy_bits)).abs();
            assert!(
                diff <= 2.0,
                "f={frame_bits} ρ={rho}: closed {closed:.2} vs simulated {}",
                simulated.peak_occupancy_bits
            );
        }
    }
}

/// The eq. (6) frame size really is the knee: one step below the bound
/// fits in the guardian buffer, a much larger frame does not.
#[test]
fn eq6_is_the_feasibility_knee() {
    let rho = analysis::rho_from_crystal_ppm(100.0);
    let f_max = analysis::max_frame_bits(N_FRAME_MIN_BITS, LINE_ENCODING_BITS, rho)
        .expect("feasible")
        .round() as u32;
    assert_eq!(f_max, 115_000);
    let b_max = analysis::max_buffer_bits(N_FRAME_MIN_BITS);

    let at_knee = buffer::simulate_forwarding(f_max, 1.0, 1.0 - rho, LINE_ENCODING_BITS);
    assert!(
        at_knee.peak_occupancy_bits <= b_max + 1,
        "{}",
        at_knee.peak_occupancy_bits
    );

    let beyond = buffer::simulate_forwarding(2 * f_max, 1.0, 1.0 - rho, LINE_ENCODING_BITS);
    assert!(
        beyond.peak_occupancy_bits > b_max,
        "doubling the frame must overflow the permitted buffer"
    );
}

/// Wire-level sanity across crates: frames built from protocol-level
/// C-states survive the codec and the guardian's semantic filter.
#[test]
fn frames_flow_through_codec_and_semantic_filter() {
    use tta::guardian::reshape::{GuardianAction, SemanticFilter};
    use tta::types::{
        decode_frame, CState, FrameBuilder, FrameClass, MembershipVector, NodeId, SlotIndex,
    };

    let cstate = CState::new(64, 2, 0, MembershipVector::full(4));
    let frame = FrameBuilder::new(FrameClass::IFrame, NodeId::new(1))
        .cstate(cstate)
        .build()
        .expect("valid frame");
    let decoded = decode_frame(&frame.encode()).expect("codec round trip");
    assert_eq!(decoded, frame);

    let filter = SemanticFilter::new(CouplerAuthority::TimeWindows);
    let (action, _) = filter.filter(
        &decoded,
        SlotIndex::new(2),
        NodeId::new(1),
        true,
        None,
        None,
    );
    assert_eq!(action, GuardianAction::Forwarded);

    // The same frame on the wrong port is a masquerade and is blocked.
    let (action, _) = filter.filter(
        &decoded,
        SlotIndex::new(1),
        NodeId::new(0),
        true,
        None,
        None,
    );
    assert!(matches!(action, GuardianAction::BlockedMasquerade { .. }));
}

/// The conformance layer closes the loop through the facade: the checked-in
/// scenario for the paper's cold-start counterexample drives the checker,
/// the simulator and the trace-replay oracle, and all three agree.
#[test]
fn conformance_scenario_ties_the_engines_together() {
    let scenario = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join("coldstart_dup.toml");
    let outcome = tta::conformance::run_scenario_file(&scenario).expect("scenario loads");
    assert!(outcome.passed, "{}", outcome.report);
    assert!(
        outcome.report.contains("engines agree"),
        "{}",
        outcome.report
    );
}

/// FNV-1a fingerprint of a built fair graph: every state's encoding, BFS
/// depth, CSR row (targets and labels), enabledness mask and deadlock
/// flag, in id order.
fn graph_fingerprint(graph: &FairGraph<'_, ClusterCodec>, codec: &ClusterCodec) -> u64 {
    let mut bytes = Vec::new();
    let mut words = [0u64; 9];
    for v in 0..graph.state_count() as u32 {
        codec.encode(&graph.state(v)).write_words(&mut words);
        bytes.extend(words.iter().flat_map(|w| w.to_le_bytes()));
        bytes.extend((graph.bfs_depth(v) as u64).to_le_bytes());
        let row: Vec<(u32, u32)> = graph.neighbors(v).collect();
        bytes.extend((row.len() as u32).to_le_bytes());
        for (target, label) in row {
            bytes.extend(target.to_le_bytes());
            bytes.extend(label.to_le_bytes());
        }
        bytes.extend(graph.enabled_mask(v).to_le_bytes());
        bytes.push(u8::from(graph.is_deadlock(v)));
    }
    fnv1a64(&bytes)
}

/// The fair-graph build on the real cluster model is pinned state by
/// state: the S4 small-shifting graph, whole and cut at 20,000 states,
/// has the same fingerprint at one and two worker threads as the
/// sequential scan that first produced these values, and every node's
/// `listening ~> integrated` holds on the whole graph.
#[test]
fn liveness_graph_matches_its_pinned_fingerprint() {
    let config = ClusterConfig::paper(CouplerAuthority::SmallShifting);
    let model = ClusterModel::new(config);
    let codec = ClusterCodec::new(&config);
    let fairness = cluster_startup_fairness(config.nodes);
    for threads in [1, 2] {
        let build = |max_states| {
            FairGraph::build_with_threads(&model, &codec, &fairness, max_states, threads)
        };
        let whole = build(DEFAULT_MAX_STATES);
        assert_eq!(whole.state_count(), 40_055);
        assert_eq!(whole.edge_count(), 222_993);
        assert!(!whole.is_truncated());
        assert_eq!(whole.edges_generated(), 222_993);
        assert_eq!(graph_fingerprint(&whole, &codec), 0x21b0_40bb_2350_c250);
        for node in 0..config.nodes {
            let verdict = whole.check(&node_integration_property(node)).verdict;
            assert_eq!(verdict, Verdict::Holds, "node {node}, {threads} threads");
        }

        let cut = build(20_000);
        assert_eq!(cut.state_count(), 20_000);
        assert!(cut.is_truncated());
        assert_eq!(cut.edge_count(), 108_273);
        assert_eq!(cut.edges_generated(), 118_614);
        assert_eq!(graph_fingerprint(&cut, &codec), 0xa9fe_8ad7_5e80_8afe);
    }
}
