//! Property-based tests of the SCC core and the fair-cycle engine on
//! randomized digraphs: the iterative Tarjan against a brute-force
//! mutual-reachability reference, the per-component fairness support
//! test against a reference built on it, and every emitted lasso
//! validated structurally (real edges, restriction respected, fairness
//! witnessed).

use proptest::prelude::*;
use tta_liveness::{
    strongly_connected_components, FairAction, FairGraph, LivenessChecker, Property, Verdict,
};
use tta_modelcheck::{IdentityCodec, TransitionSystem};

/// A random digraph over `0..n` as adjacency lists.
#[derive(Debug, Clone)]
struct RandomGraph {
    edges: Vec<Vec<u32>>,
}

impl TransitionSystem for RandomGraph {
    type State = u32;

    fn initial_states(&self) -> Vec<u32> {
        vec![0]
    }

    fn successors(&self, s: &u32, out: &mut Vec<u32>) {
        out.extend(self.edges[*s as usize].iter().copied());
    }
}

fn arb_graph(max_nodes: usize) -> impl Strategy<Value = RandomGraph> {
    (1..max_nodes).prop_flat_map(|n| {
        prop::collection::vec(prop::collection::vec(0..n as u32, 0..4), n)
            .prop_map(|edges| RandomGraph { edges })
    })
}

fn edge_list(graph: &RandomGraph) -> Vec<(u32, u32)> {
    graph
        .edges
        .iter()
        .enumerate()
        .flat_map(|(u, vs)| vs.iter().map(move |&v| (u as u32, v)))
        .collect()
}

/// Brute-force SCCs: Floyd–Warshall mutual reachability. `O(n³)` — fine
/// for ≤ 64 nodes, and independent of everything Tarjan does.
fn reference_sccs(graph: &RandomGraph) -> Vec<Vec<u32>> {
    let n = graph.edges.len();
    let mut reach = vec![vec![false; n]; n];
    for (u, vs) in graph.edges.iter().enumerate() {
        for &v in vs {
            reach[u][v as usize] = true;
        }
    }
    for k in 0..n {
        for i in 0..n {
            if reach[i][k] {
                let via: Vec<bool> = reach[k].clone();
                for (j, r) in reach[i].iter_mut().enumerate() {
                    *r |= via[j];
                }
            }
        }
    }
    let mut assigned = vec![false; n];
    let mut groups = Vec::new();
    for u in 0..n {
        if assigned[u] {
            continue;
        }
        let members: Vec<u32> = (u..n)
            .filter(|&v| v == u || (reach[u][v] && reach[v][u]))
            .map(|v| v as u32)
            .collect();
        for &v in &members {
            assigned[v as usize] = true;
        }
        groups.push(members);
    }
    groups
}

fn normalized(mut groups: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    for g in &mut groups {
        g.sort_unstable();
    }
    groups.sort();
    groups
}

/// Reference violation decision for `F target` with **no** fairness
/// under the stutter-extended semantics: a violating execution exists
/// iff, inside the `≠ target` subgraph reachable from a `≠ target`
/// initial state, there is a deadlock (of the *original* system) or a
/// cycle. Cycle detection by Kahn's algorithm, nothing shared with the
/// engine.
fn reference_eventually_violated(graph: &RandomGraph, target: u32) -> bool {
    let n = graph.edges.len();
    if 0 == target {
        return false;
    }
    // Reachability from 0 through non-target nodes only.
    let mut seen = vec![false; n];
    let mut stack = vec![0u32];
    seen[0] = true;
    while let Some(u) = stack.pop() {
        for &v in &graph.edges[u as usize] {
            if v != target && !seen[v as usize] {
                seen[v as usize] = true;
                stack.push(v);
            }
        }
    }
    let active: Vec<u32> = (0..n as u32).filter(|&v| seen[v as usize]).collect();
    if active.iter().any(|&v| graph.edges[v as usize].is_empty()) {
        return true; // stutter at a deadlock, forever short of the target
    }
    // Kahn over the induced subgraph: leftovers ⇒ a cycle.
    let mut indegree = vec![0usize; n];
    for &u in &active {
        for &v in &graph.edges[u as usize] {
            if v != target && seen[v as usize] {
                indegree[v as usize] += 1;
            }
        }
    }
    let mut queue: Vec<u32> = active
        .iter()
        .copied()
        .filter(|&v| indegree[v as usize] == 0)
        .collect();
    let mut removed = 0usize;
    while let Some(u) = queue.pop() {
        removed += 1;
        for &v in &graph.edges[u as usize] {
            if v != target && seen[v as usize] {
                indegree[v as usize] -= 1;
                if indegree[v as usize] == 0 {
                    queue.push(v);
                }
            }
        }
    }
    removed < active.len()
}

/// Whether node `v` is in the set `mask` (bit `v`; graphs stay below
/// 32 nodes).
fn in_set(mask: u32, v: u32) -> bool {
    mask >> v & 1 == 1
}

/// Random weak-fairness actions: action `i` is taken on `a → b` iff `a`
/// is in the set `from` and `b` in the set `to` of pair `i`.
fn fair_actions(sets: &[(u32, u32)]) -> Vec<FairAction<u32>> {
    sets.iter()
        .enumerate()
        .map(|(i, &(from, to))| {
            FairAction::new(format!("a{i}"), move |a: &u32, b: &u32| {
                in_set(from, *a) && in_set(to, *b)
            })
        })
        .collect()
}

/// The label of `a → b` under `fair_actions(sets)`.
fn reference_label(sets: &[(u32, u32)], a: u32, b: u32) -> u32 {
    sets.iter()
        .enumerate()
        .filter(|&(_, &(from, to))| in_set(from, a) && in_set(to, b))
        .fold(0, |acc, (i, _)| acc | 1 << i)
}

/// BFS discovery order from the initial state 0, as an id per node
/// (`u32::MAX` when unreachable): the engine numbers states this way.
fn bfs_ids(graph: &RandomGraph) -> Vec<u32> {
    let mut id = vec![u32::MAX; graph.edges.len()];
    let mut order = vec![0u32];
    id[0] = 0;
    let mut head = 0;
    while head < order.len() {
        let u = order[head];
        head += 1;
        for &v in &graph.edges[u as usize] {
            if id[v as usize] == u32::MAX {
                id[v as usize] = order.len() as u32;
                order.push(v);
            }
        }
    }
    id
}

/// Nodes reachable from `sources` through `keep` nodes only.
fn reach_within(graph: &RandomGraph, sources: &[u32], keep: &[bool]) -> Vec<bool> {
    let mut seen = vec![false; graph.edges.len()];
    let mut stack: Vec<u32> = sources.to_vec();
    for &s in sources {
        seen[s as usize] = true;
    }
    while let Some(u) = stack.pop() {
        for &v in &graph.edges[u as usize] {
            if keep[v as usize] && !seen[v as usize] {
                seen[v as usize] = true;
                stack.push(v);
            }
        }
    }
    seen
}

/// Reference fair-cycle search over the subgraph induced by `active`,
/// component by component from `reference_sccs`: a component is fair
/// iff it holds a cycle (two or more members, or a self-loop — deadlocks
/// stutter) and every action is disabled at a member or taken by an
/// edge between members. Returns the cycle entry the engine must pick:
/// the fair components' minimal member, by BFS id.
fn reference_fair_entry(graph: &RandomGraph, sets: &[(u32, u32)], active: &[bool]) -> Option<u32> {
    let n = graph.edges.len();
    let all = (1u32 << sets.len()) - 1;
    let id = bfs_ids(graph);
    let induced = RandomGraph {
        edges: (0..n as u32)
            .map(|u| match &graph.edges[u as usize] {
                _ if !active[u as usize] => Vec::new(),
                succs if succs.is_empty() => vec![u],
                succs => succs
                    .iter()
                    .copied()
                    .filter(|&v| active[v as usize])
                    .collect(),
            })
            .collect(),
    };
    reference_sccs(&induced)
        .into_iter()
        .filter(|members| active[members[0] as usize])
        .filter(|members| {
            let first = members[0];
            let cyclic = members.len() > 1 || induced.edges[first as usize].contains(&first);
            let mut support = 0u32;
            for &u in members {
                let succs = &graph.edges[u as usize];
                let enabled = succs
                    .iter()
                    .fold(0, |acc, &v| acc | reference_label(sets, u, v));
                support |= !enabled & all;
                for &v in succs.iter().filter(|v| members.contains(v)) {
                    support |= reference_label(sets, u, v);
                }
            }
            cyclic && support == all
        })
        .filter_map(|members| members.into_iter().min_by_key(|&v| id[v as usize]))
        .min_by_key(|&v| id[v as usize])
}

fn has_edge(graph: &RandomGraph, u: u32, v: u32) -> bool {
    graph.edges[u as usize].contains(&v)
}

/// Whether `from → to` is admissible in the lasso sense: a real edge,
/// or the stutter self-loop at a deadlock.
fn admissible(graph: &RandomGraph, from: u32, to: u32) -> bool {
    has_edge(graph, from, to) || (from == to && graph.edges[from as usize].is_empty())
}

proptest! {
    /// Iterative Tarjan partitions exactly like brute-force mutual
    /// reachability on random digraphs of up to 64 nodes.
    #[test]
    fn tarjan_matches_brute_force(graph in arb_graph(64)) {
        let tarjan = strongly_connected_components(graph.edges.len(), &edge_list(&graph));
        prop_assert_eq!(normalized(tarjan), normalized(reference_sccs(&graph)));
    }

    /// Component numbering is reverse topological: along any
    /// cross-component edge the component id strictly decreases.
    #[test]
    fn tarjan_numbering_is_reverse_topological(graph in arb_graph(64)) {
        let groups = strongly_connected_components(graph.edges.len(), &edge_list(&graph));
        let mut comp = vec![usize::MAX; graph.edges.len()];
        for (c, members) in groups.iter().enumerate() {
            for &v in members {
                comp[v as usize] = c;
            }
        }
        for (u, v) in edge_list(&graph) {
            if comp[u as usize] != comp[v as usize] {
                prop_assert!(comp[u as usize] > comp[v as usize],
                    "edge {u}→{v} goes from component {} to {}", comp[u as usize], comp[v as usize]);
            }
        }
    }

    /// The unfair `F target` verdict agrees with an independent
    /// cycle/deadlock reference, and every violation lasso is a real
    /// execution that never touches the target.
    #[test]
    fn eventually_agrees_with_reference(graph in arb_graph(32), target_seed in 0u32..32) {
        let target = target_seed % graph.edges.len() as u32;
        let codec = IdentityCodec::new();
        let out = LivenessChecker::new().check(
            &graph,
            &codec,
            &[],
            &Property::eventually("target", move |s: &u32| *s == target),
        );
        let expected = reference_eventually_violated(&graph, target);
        prop_assert_eq!(out.verdict == Verdict::Violated, expected);
        if let Some(lasso) = out.lasso {
            prop_assert!(lasso.states().all(|&s| s != target));
            let first = *lasso.states().next().unwrap();
            prop_assert_eq!(first, 0, "stem must start at the initial state");
            for (&a, &b) in lasso.transitions() {
                prop_assert!(admissible(&graph, a, b), "lasso step {a}→{b} is not admissible");
            }
        }
    }

    /// Under a random weak-fairness constraint, any emitted lasso's
    /// cycle must witness the constraint: the action is disabled at
    /// some cycle state or taken by some cycle edge (closing edge
    /// included).
    #[test]
    fn violation_cycles_witness_fairness(graph in arb_graph(24), pivot in 0u32..24) {
        let n = graph.edges.len() as u32;
        let pivot = pivot % n;
        // Action: "move past the pivot" — any edge into a state > pivot.
        let action = FairAction::new("beyond pivot", move |_: &u32, b: &u32| *b > pivot);
        let codec = IdentityCodec::new();
        let out = LivenessChecker::new().check(
            &graph,
            &codec,
            &[action],
            &Property::always_eventually("at zero", |s: &u32| *s == 0),
        );
        if let Some(lasso) = out.lasso {
            let disabled = |s: u32| !graph.edges[s as usize].iter().any(|&b| b > pivot);
            let cycle = lasso.cycle();
            let edge_taken = cycle
                .windows(2)
                .map(|w| (w[0], w[1]))
                .chain(std::iter::once((cycle[cycle.len() - 1], cycle[0])))
                .any(|(a, b)| has_edge(&graph, a, b) && b > pivot);
            prop_assert!(
                cycle.iter().any(|&s| disabled(s)) || edge_taken,
                "cycle {cycle:?} starves the fair action (pivot {pivot})"
            );
            // And it must genuinely avoid the recurrence target.
            prop_assert!(cycle.iter().all(|&s| s != 0));
            for (&a, &b) in lasso.transitions() {
                prop_assert!(admissible(&graph, a, b));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The single-pass fairness support test agrees with the per-SCC
    /// reference under 1–3 random weak-fairness actions, for `G F p`
    /// and `p ~> q`: same verdict, and the lasso's cycle starts at the
    /// reference's entry.
    #[test]
    fn fair_component_choice_matches_reference(
        graph in arb_graph(24),
        sets in prop::collection::vec((any::<u32>(), any::<u32>()), 1..4),
        p in any::<u32>(),
        q in any::<u32>(),
    ) {
        let n = graph.edges.len() as u32;
        let codec = IdentityCodec::new();
        let fair = FairGraph::build(&graph, &codec, &fair_actions(&sets), 1 << 20);
        let everywhere = vec![true; n as usize];
        let reachable = reach_within(&graph, &[0], &everywhere);

        let recurrent = fair.check(&Property::always_eventually("p", move |s: &u32| in_set(p, *s)));
        let active: Vec<bool> = (0..n).map(|v| reachable[v as usize] && !in_set(p, v)).collect();
        let expected = reference_fair_entry(&graph, &sets, &active);
        prop_assert_eq!(recurrent.verdict == Verdict::Violated, expected.is_some());
        prop_assert_eq!(recurrent.lasso.map(|l| l.cycle()[0]), expected);

        let leads_to = fair.check(&Property::leads_to(
            "p",
            move |s: &u32| in_set(p, *s),
            "q",
            move |s: &u32| in_set(q, *s),
        ));
        let keep: Vec<bool> = (0..n).map(|v| !in_set(q, v)).collect();
        let sources: Vec<u32> = (0..n)
            .filter(|&v| reachable[v as usize] && in_set(p, v) && keep[v as usize])
            .collect();
        let active = reach_within(&graph, &sources, &keep);
        let expected = reference_fair_entry(&graph, &sets, &active);
        prop_assert_eq!(leads_to.verdict == Verdict::Violated, expected.is_some());
        prop_assert_eq!(leads_to.lasso.map(|l| l.cycle()[0]), expected);
    }
}
