//! The fair transition graph: the reachable state space built once, in
//! interned compact form, with per-edge action labels and per-state
//! enabledness masks.
//!
//! Liveness analysis needs the *whole* reachable graph (cycles live
//! anywhere), not just a frontier, so memory discipline matters even
//! more than in the BFS checker. The builder reuses PR 1's interning
//! stack — [`StateCodec`] encodings stored exactly once in a
//! [`StateArena`], BFS parents as `u32` indices — and adds a CSR
//! adjacency with one `u32` action-label bitmask per edge.
//!
//! Two details keep later verdicts sound:
//!
//! * **Enabledness is derived during generation.** An action is enabled
//!   in a state iff some *generated* successor takes it. The mask is
//!   accumulated over every generated edge — including edges into
//!   states dropped by the `max_states` budget — so "enabled but never
//!   taken on this cycle" can never be a truncation artifact and
//!   `Violated` verdicts remain sound on truncated graphs (a would-be
//!   `Holds` becomes `BudgetExhausted` instead).
//! * **Deadlocks get a stutter loop.** A state with no successors
//!   receives a synthetic self-loop (label 0), the standard stutter
//!   extension: every state then has an infinite behaviour, and a
//!   maximal finite run appears as a lasso whose cycle repeats the
//!   final state. The loop is marked so renderers do not present it as
//!   a model transition.

use crate::fairness::{FairAction, MAX_FAIR_ACTIONS};
use std::fmt;
use std::time::{Duration, Instant};
use tta_modelcheck::hashing::fx_hash;
use tta_modelcheck::{map_chunks, Interned, StateArena, StateCodec, TransitionSystem, NO_PARENT};

/// Arena ids per chunk. Graph construction decodes, expands and
/// re-encodes per state — far more work than the safety explorer's
/// successor step — so stolen chunks can be smaller before
/// claim-counter contention shows.
const BUILD_CHUNK_STATES: usize = 512;

/// Chunks per worker thread in one parallel batch: enough for stealing
/// to even out the loads, few enough that the batch's fragments stay
/// small (whole-wave batches peaked ~65 MB higher on S4 full shifting).
const BATCH_CHUNKS_PER_THREAD: usize = 16;

/// Placeholder target of an edge not yet resolved at merge, or dropped
/// there by the `max_states` budget. Never a state id: the budget is
/// clamped below it.
const UNRESOLVED: u32 = u32::MAX;

/// A generated edge target missing from the arena when its batch was
/// expanded. The merge resolves it against the live arena, where states
/// inserted by earlier fragments are visible, and writes the id into
/// `slot`.
struct Proposal<E> {
    /// Index of the edge in its fragment's `targets`.
    slot: u32,
    /// The expanded state: the BFS parent if the merge inserts the
    /// target.
    source: u32,
    hash: u64,
    encoded: E,
}

/// The CSR rows of one chunk, in id order: per-state out-degree,
/// enabledness mask and deadlock flag, the edge targets and labels, and
/// the targets still to resolve.
struct Fragment<E> {
    degrees: Vec<u32>,
    targets: Vec<u32>,
    labels: Vec<u32>,
    enabled: Vec<u32>,
    deadlock: Vec<bool>,
    proposals: Vec<Proposal<E>>,
    generated: u64,
}

impl<E> Fragment<E> {
    /// Removes the edges whose targets the budget dropped, shortening
    /// their rows (truncated builds only).
    fn drop_unresolved(&mut self) {
        let mut row_start = 0;
        for degree in &mut self.degrees {
            let row = &self.targets[row_start..row_start + *degree as usize];
            row_start += row.len();
            *degree -= row.iter().filter(|&&t| t == UNRESOLVED).count() as u32;
        }
        let mut kept = self.targets.iter().map(|&t| t != UNRESOLVED);
        self.labels.retain(|_| kept.next() == Some(true));
        self.targets.retain(|&t| t != UNRESOLVED);
    }
}

/// How often one registered fairness action is actually exercised in a
/// built [`FairGraph`] (see [`FairGraph::action_usage`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionUsage {
    /// The action's name, as registered.
    pub name: String,
    /// States whose enabledness mask includes this action (counted over
    /// all generated edges, so sound under truncation).
    pub enabled_states: u64,
    /// Stored edges labeled with this action.
    pub labeled_edges: u64,
}

/// The reachable state graph of a [`TransitionSystem`], interned through
/// a [`StateCodec`], labeled with weak-fairness actions.
pub struct FairGraph<'c, C: StateCodec> {
    codec: &'c C,
    arena: StateArena<C::Encoded>,
    offsets: Vec<usize>,
    targets: Vec<u32>,
    labels: Vec<u32>,
    enabled: Vec<u32>,
    deadlock: Vec<bool>,
    deadlock_states: u64,
    initial: Vec<u32>,
    action_names: Vec<String>,
    action_mask: u32,
    truncated: bool,
    edges_generated: u64,
    build_time: Duration,
}

impl<C: StateCodec> fmt::Debug for FairGraph<'_, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FairGraph")
            .field("states", &self.state_count())
            .field("edges", &self.edge_count())
            .field("actions", &self.action_names)
            .field("truncated", &self.truncated)
            .finish_non_exhaustive()
    }
}

impl<'c, C: StateCodec> FairGraph<'c, C> {
    /// Explores `system` breadth-first and builds the labeled graph,
    /// keeping at most `max_states` distinct states. The same graph as
    /// [`Self::build_with_threads`] at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_FAIR_ACTIONS`] fairness constraints are
    /// supplied, or if the state space exceeds `u32` addressing.
    #[must_use]
    pub fn build<T>(
        system: &T,
        codec: &'c C,
        fairness: &[FairAction<C::State>],
        max_states: u64,
    ) -> Self
    where
        T: TransitionSystem<State = C::State>,
    {
        // One chunk per batch: each chunk expands against the arena the
        // previous chunks' merges left, and one fragment is held at a
        // time.
        Self::build_in_batches(
            system,
            codec,
            fairness,
            max_states,
            BUILD_CHUNK_STATES,
            |arena, ids| vec![expand_chunk(system, codec, arena, fairness, ids)],
        )
    }

    /// [`Self::build`] with `threads` worker threads expanding each batch
    /// of states in parallel.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero, plus everything [`Self::build`]
    /// panics on.
    #[must_use]
    pub fn build_with_threads<T>(
        system: &T,
        codec: &'c C,
        fairness: &[FairAction<C::State>],
        max_states: u64,
        threads: usize,
    ) -> Self
    where
        T: TransitionSystem<State = C::State> + Sync,
        C: Sync,
        C::Encoded: Send + Sync,
    {
        assert!(threads >= 1, "at least one worker thread is required");
        Self::build_in_batches(
            system,
            codec,
            fairness,
            max_states,
            BATCH_CHUNKS_PER_THREAD * threads * BUILD_CHUNK_STATES,
            |arena, ids| {
                map_chunks(ids, BUILD_CHUNK_STATES, threads, &|_, ids: &[u32]| {
                    expand_chunk(system, codec, arena, fairness, ids)
                })
            },
        )
    }

    /// The one build path. It scans arena ids in order, in batches of at
    /// most `batch` ids that stop at the last id appended so far.
    /// `expand` turns a batch into CSR [`Fragment`]s against the arena
    /// as it stands. The merge then takes the fragments in order,
    /// resolves their proposals against the live arena — so inserts
    /// happen in exactly the order of a one-state-at-a-time scan, and
    /// states, ids, parents, rows and the truncation flag do not depend
    /// on how the scan was batched, split or run — and appends the rows
    /// to the final CSR arrays.
    fn build_in_batches<T>(
        system: &T,
        codec: &'c C,
        fairness: &[FairAction<C::State>],
        max_states: u64,
        batch: usize,
        expand: impl Fn(&StateArena<C::Encoded>, &[u32]) -> Vec<Fragment<C::Encoded>>,
    ) -> Self
    where
        T: TransitionSystem<State = C::State>,
    {
        assert!(
            fairness.len() <= MAX_FAIR_ACTIONS,
            "at most {MAX_FAIR_ACTIONS} weak-fairness constraints per graph (got {})",
            fairness.len()
        );
        // detlint: allow(DL02) reason=elapsed-time stats only; reported out-of-band, never part of the verification result
        let start = Instant::now();
        let max_states = max_states.min(u64::from(u32::MAX - 1));
        let mut arena: StateArena<C::Encoded> = StateArena::new();
        let mut initial: Vec<u32> = Vec::new();
        let mut truncated = false;
        for init in system.initial_states() {
            if (arena.len() as u64) >= max_states {
                truncated = true;
                break;
            }
            if let Interned::New(id) = arena.insert_if_absent(codec.encode(&init), NO_PARENT) {
                initial.push(id);
            }
        }

        let mut offsets = vec![0usize];
        let mut targets: Vec<u32> = Vec::new();
        let mut labels: Vec<u32> = Vec::new();
        let mut enabled: Vec<u32> = Vec::new();
        let mut deadlock: Vec<bool> = Vec::new();
        let mut edges_generated = 0u64;
        // Arena ids are assigned in insertion order, so scanning them in
        // order with new states appended at the tail is exactly BFS, and
        // arena parents give shortest stems.
        let mut cursor = 0usize;
        while cursor < arena.len() {
            let end = arena.len().min(cursor + batch);
            let ids: Vec<u32> = (cursor as u32..end as u32).collect();
            cursor = end;
            for mut fragment in expand(&arena, &ids) {
                let mut dropped = false;
                for p in std::mem::take(&mut fragment.proposals) {
                    fragment.targets[p.slot as usize] =
                        match arena.lookup_hashed(p.hash, &p.encoded) {
                            Some(t) => t,
                            None if (arena.len() as u64) < max_states => {
                                arena.insert_new_hashed(p.hash, p.encoded, p.source)
                            }
                            None => {
                                dropped = true;
                                UNRESOLVED
                            }
                        };
                }
                if dropped {
                    truncated = true;
                    fragment.drop_unresolved();
                }
                let mut row_end = offsets[offsets.len() - 1];
                offsets.extend(fragment.degrees.iter().map(|&d| {
                    row_end += d as usize;
                    row_end
                }));
                targets.extend_from_slice(&fragment.targets);
                labels.extend_from_slice(&fragment.labels);
                enabled.extend_from_slice(&fragment.enabled);
                deadlock.extend_from_slice(&fragment.deadlock);
                edges_generated += fragment.generated;
            }
        }
        // Drop the growth slack, so the graph holds (and `approx_bytes`
        // reports) only what it uses.
        offsets.shrink_to_fit();
        targets.shrink_to_fit();
        labels.shrink_to_fit();
        enabled.shrink_to_fit();
        deadlock.shrink_to_fit();

        FairGraph {
            codec,
            arena,
            offsets,
            targets,
            labels,
            enabled,
            deadlock_states: deadlock.iter().filter(|&&d| d).count() as u64,
            deadlock,
            initial,
            action_names: fairness.iter().map(|a| a.name().to_string()).collect(),
            action_mask: if fairness.is_empty() {
                0
            } else {
                u32::MAX >> (32 - fairness.len())
            },
            truncated,
            edges_generated,
            build_time: start.elapsed(),
        }
    }

    /// Number of distinct reachable states kept.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.arena.len()
    }

    /// Number of stored edges (including synthetic stutter loops).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Number of transitions the model generated, dropped or kept
    /// (stutter loops excluded).
    #[must_use]
    pub fn edges_generated(&self) -> u64 {
        self.edges_generated
    }

    /// Whether the `max_states` budget cut off part of the graph.
    #[must_use]
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Ids of the initial states.
    #[must_use]
    pub fn initial(&self) -> &[u32] {
        &self.initial
    }

    /// Whether `id` is a deadlock state carrying a synthetic stutter
    /// loop.
    #[must_use]
    pub fn is_deadlock(&self, id: u32) -> bool {
        self.deadlock[id as usize]
    }

    /// Decodes the state stored at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn state(&self, id: u32) -> C::State {
        self.codec.decode(self.arena.get(id))
    }

    /// Names of the registered fairness actions, bit order.
    #[must_use]
    pub fn action_names(&self) -> &[String] {
        &self.action_names
    }

    /// Wall-clock time spent building the graph.
    #[must_use]
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Approximate resident bytes: the interned arena plus the CSR
    /// arrays.
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        self.arena.approx_bytes()
            + (self.offsets.capacity() * std::mem::size_of::<usize>()
                + self.targets.capacity() * std::mem::size_of::<u32>()
                + self.labels.capacity() * std::mem::size_of::<u32>()
                + self.enabled.capacity() * std::mem::size_of::<u32>()
                + self.deadlock.capacity()) as u64
    }

    /// Outgoing `(target, label)` pairs of `v`, stutter loop included.
    ///
    /// The label is the bitmask of fairness actions the edge takes, in
    /// [`Self::action_names`] bit order (0 for the synthetic stutter
    /// loop). Public so graph consumers beyond the property algorithms —
    /// the vacuity and coverage analyses in `tta-modellint` — can walk
    /// the labeled adjacency without rebuilding the space.
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let range = self.offsets[v as usize]..self.offsets[v as usize + 1];
        range
            .clone()
            .map(move |i| (self.targets[i], self.labels[i]))
    }

    /// Actions enabled in `v`, as a bitmask in [`Self::action_names`]
    /// bit order. Derived over **all generated edges**, including edges
    /// dropped by the `max_states` budget, so a zero bit is never a
    /// truncation artifact.
    #[must_use]
    pub fn enabled_mask(&self, v: u32) -> u32 {
        self.enabled[v as usize]
    }

    /// Per-action usage statistics over the kept graph: for each
    /// registered fairness action, the number of states where it is
    /// enabled and the number of stored edges labeled with it.
    ///
    /// A fairness constraint whose labeled-edge count is zero constrains
    /// nothing — every fair cycle trivially satisfies it — which is the
    /// `ML04-unused-fairness` lint in `tta-modellint`.
    #[must_use]
    pub fn action_usage(&self) -> Vec<ActionUsage> {
        let mut usage: Vec<ActionUsage> = self
            .action_names
            .iter()
            .map(|name| ActionUsage {
                name: name.clone(),
                enabled_states: 0,
                labeled_edges: 0,
            })
            .collect();
        for &mask in &self.enabled {
            let mut bits = mask;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                usage[i].enabled_states += 1;
                bits &= bits - 1;
            }
        }
        for &label in &self.labels {
            let mut bits = label;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                usage[i].labeled_edges += 1;
                bits &= bits - 1;
            }
        }
        usage
    }

    /// BFS depth of `v`: the length in transitions of the shortest
    /// stem from an initial state (0 for initial states). Used by the
    /// vacuity analyses to report how deep the first witness lies.
    #[must_use]
    pub fn bfs_depth(&self, v: u32) -> usize {
        self.stem_ids_to(v).len() - 1
    }

    // ── internals shared with the property algorithms (check.rs) ──

    /// Bitmask covering every registered action.
    pub(crate) fn all_actions(&self) -> u32 {
        self.action_mask
    }

    /// Number of deadlock states carrying a synthetic stutter loop.
    pub(crate) fn deadlock_count(&self) -> u64 {
        self.deadlock_states
    }

    /// BFS parent of `v` in the arena ([`NO_PARENT`] for initial
    /// states).
    pub(crate) fn bfs_parent(&self, v: u32) -> u32 {
        self.arena.parent(v)
    }

    /// The shortest-path id chain from an initial state to `v`
    /// (inclusive), via arena parents.
    pub(crate) fn stem_ids_to(&self, v: u32) -> Vec<u32> {
        let mut chain = vec![v];
        let mut cur = v;
        while self.bfs_parent(cur) != NO_PARENT {
            cur = self.bfs_parent(cur);
            chain.push(cur);
        }
        chain.reverse();
        chain
    }

    /// CSR slices for the SCC decomposition.
    pub(crate) fn csr(&self) -> (&[usize], &[u32]) {
        (&self.offsets, &self.targets)
    }
}

/// The fairness-action bitmask of one transition.
fn edge_label<S>(fairness: &[FairAction<S>], from: &S, to: &S) -> u32 {
    let mut label = 0u32;
    for (i, action) in fairness.iter().enumerate() {
        if action.taken(from, to) {
            label |= 1 << i;
        }
    }
    label
}

/// Expands and labels one chunk of ids against the arena as its batch
/// found it, as one CSR [`Fragment`].
fn expand_chunk<T, C>(
    system: &T,
    codec: &C,
    snapshot: &StateArena<C::Encoded>,
    fairness: &[FairAction<C::State>],
    ids: &[u32],
) -> Fragment<C::Encoded>
where
    C: StateCodec,
    T: TransitionSystem<State = C::State>,
{
    let mut fragment = Fragment {
        degrees: Vec::with_capacity(ids.len()),
        targets: Vec::new(),
        labels: Vec::new(),
        enabled: Vec::with_capacity(ids.len()),
        deadlock: Vec::with_capacity(ids.len()),
        proposals: Vec::new(),
        generated: 0,
    };
    let mut succs: Vec<C::State> = Vec::new();
    for &id in ids {
        let state = codec.decode(snapshot.get(id));
        succs.clear();
        system.successors(&state, &mut succs);
        fragment.deadlock.push(succs.is_empty());
        if succs.is_empty() {
            // Stutter extension: synthetic self-loop, no labels.
            fragment.degrees.push(1);
            fragment.targets.push(id);
            fragment.labels.push(0);
            fragment.enabled.push(0);
            continue;
        }
        let mut mask = 0u32;
        for succ in &succs {
            let label = edge_label(fairness, &state, succ);
            // Enabledness counts every generated edge, kept or not.
            mask |= label;
            let encoded = codec.encode(succ);
            let hash = fx_hash(&encoded);
            let target = match snapshot.lookup_hashed(hash, &encoded) {
                Some(t) => t,
                None => {
                    fragment.proposals.push(Proposal {
                        slot: fragment.targets.len() as u32,
                        source: id,
                        hash,
                        encoded,
                    });
                    UNRESOLVED
                }
            };
            fragment.targets.push(target);
            fragment.labels.push(label);
        }
        fragment.degrees.push(succs.len() as u32);
        fragment.enabled.push(mask);
        fragment.generated += succs.len() as u64;
    }
    fragment
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_modelcheck::IdentityCodec;

    /// 0 → 1 → 2 → 1 (cycle), plus 0 → 3 (deadlock).
    struct Diamond;
    impl TransitionSystem for Diamond {
        type State = u32;
        fn initial_states(&self) -> Vec<u32> {
            vec![0]
        }
        fn successors(&self, s: &u32, out: &mut Vec<u32>) {
            match s {
                0 => out.extend([1, 3]),
                1 => out.push(2),
                2 => out.push(1),
                _ => {}
            }
        }
    }

    fn build(
        fairness: &[FairAction<u32>],
        max_states: u64,
    ) -> FairGraph<'static, IdentityCodec<u32>> {
        static CODEC: IdentityCodec<u32> = IdentityCodec::new();
        FairGraph::build(&Diamond, &CODEC, fairness, max_states)
    }

    #[test]
    fn builds_states_edges_and_stutter_loop() {
        let g = build(&[], 1 << 20);
        assert_eq!(g.state_count(), 4);
        // 4 real edges + 1 stutter loop on the deadlock state.
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.edges_generated(), 4);
        assert!(!g.is_truncated());
        let dead = (0..4).find(|&v| g.is_deadlock(v)).expect("one deadlock");
        assert_eq!(g.state(dead), 3);
        assert_eq!(g.neighbors(dead).collect::<Vec<_>>(), [(dead, 0)]);
    }

    #[test]
    fn labels_and_enabledness_are_derived_from_actions() {
        let forward = FairAction::new("forward", |a: &u32, b: &u32| b > a);
        let g = build(&[forward], 1 << 20);
        let id1 = (0..4).find(|&v| g.state(v) == 1).unwrap();
        let id2 = (0..4).find(|&v| g.state(v) == 2).unwrap();
        // 1 → 2 takes "forward"; 2 → 1 does not, so "forward" is
        // enabled at 1 but not at 2.
        assert_eq!(g.enabled_mask(id1), 1);
        assert_eq!(g.enabled_mask(id2), 0);
        assert_eq!(g.all_actions(), 1);
        let labels: Vec<u32> = g.neighbors(id1).map(|(_, l)| l).collect();
        assert_eq!(labels, [1]);
    }

    #[test]
    fn action_usage_counts_states_and_edges() {
        let forward = FairAction::new("forward", |a: &u32, b: &u32| b > a);
        let never = FairAction::new("never", |_: &u32, _: &u32| false);
        let g = build(&[forward, never], 1 << 20);
        let usage = g.action_usage();
        assert_eq!(usage.len(), 2);
        // "forward" is taken on 0→1, 0→3 and 1→2: enabled at states
        // 0 and 1, labeling three stored edges.
        assert_eq!(usage[0].name, "forward");
        assert_eq!(usage[0].enabled_states, 2);
        assert_eq!(usage[0].labeled_edges, 3);
        assert_eq!(usage[1].name, "never");
        assert_eq!(usage[1].enabled_states, 0);
        assert_eq!(usage[1].labeled_edges, 0);
    }

    #[test]
    fn truncation_keeps_enabledness_of_dropped_edges() {
        let forward = FairAction::new("forward", |a: &u32, b: &u32| b > a);
        let g = build(&[forward], 2);
        assert!(g.is_truncated());
        assert_eq!(g.state_count(), 2);
        // State 1's only successor (2) was dropped, but "forward" must
        // still read as enabled there.
        let id1 = (0..2).find(|&v| g.state(v) == 1).unwrap();
        assert_eq!(g.enabled_mask(id1), 1);
    }

    #[test]
    fn stem_ids_follow_bfs_parents() {
        let g = build(&[], 1 << 20);
        let id2 = (0..4).find(|&v| g.state(v) == 2).unwrap();
        let stem: Vec<u32> = g.stem_ids_to(id2).iter().map(|&v| g.state(v)).collect();
        assert_eq!(stem, [0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "weak-fairness constraints")]
    fn too_many_actions_are_rejected() {
        let actions: Vec<FairAction<u32>> = (0..33)
            .map(|i| FairAction::new(format!("a{i}"), |_: &u32, _: &u32| false))
            .collect();
        let _ = build(&actions, 1 << 20);
    }

    /// A fan wide enough to split into several chunks per batch:
    /// 0 → 1..=1500, each i → a shared child (cross-chunk dedup), the
    /// children alternate between a back-cycle and a deadlock.
    struct WideFan;
    impl TransitionSystem for WideFan {
        type State = u32;
        fn initial_states(&self) -> Vec<u32> {
            vec![0]
        }
        fn successors(&self, s: &u32, out: &mut Vec<u32>) {
            match *s {
                0 => out.extend(1..=1500),
                s if (1..=1500).contains(&s) => out.push(1501 + s % 100),
                s if (1501..1601).contains(&s) && s % 2 == 0 => out.push(0),
                _ => {}
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns real threads over a wide graph")]
    fn wide_fan_build_is_the_expected_graph_at_every_thread_count() {
        static CODEC: IdentityCodec<u32> = IdentityCodec::new();
        let forward = [FairAction::new("forward", |a: &u32, b: &u32| b > a)];
        let one = FairGraph::build(&WideFan, &CODEC, &forward, 1 << 20);
        let threaded = [1, 2, 4].map(|threads| {
            FairGraph::build_with_threads(&WideFan, &CODEC, &forward, 1 << 20, threads)
        });
        // Ids follow BFS discovery: the fan in order, then each shared
        // child when fan state 1..=100 first reaches it.
        let order: Vec<u32> = (0..=1500)
            .chain((1..=100).map(|s| 1501 + s % 100))
            .collect();
        for g in threaded.iter().chain([&one]) {
            assert!(
                g.state_count() > 2 * BUILD_CHUNK_STATES,
                "batches split into chunks"
            );
            assert_eq!(g.state_count(), 1601);
            // 1500 + 1500 + 50 generated edges, plus 50 stutter loops.
            assert_eq!(g.edges_generated(), 3050);
            assert_eq!(g.edge_count(), 3100);
            assert!(!g.is_truncated());
            assert_eq!(g.initial(), [0]);
            for (v, &state) in (0u32..).zip(&order) {
                assert_eq!(g.state(v), state, "state {v}");
                let mut row = Vec::new();
                WideFan.successors(&state, &mut row);
                let deadlock = row.is_empty();
                let forward = row.iter().any(|&t| t > state);
                if deadlock {
                    row.push(state);
                }
                let kept: Vec<u32> = g.neighbors(v).map(|(t, _)| g.state(t)).collect();
                assert_eq!(kept, row, "row {v}");
                assert_eq!(g.is_deadlock(v), deadlock, "deadlock {v}");
                assert_eq!(g.enabled_mask(v), u32::from(forward), "mask {v}");
                let depth = usize::from(state > 0) + usize::from(state > 1500);
                assert_eq!(g.bfs_depth(v), depth, "depth {v}");
            }
            // Child 1501 is first reached from fan state 100.
            assert_eq!(g.state(g.bfs_parent(1600)), 100);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns real threads over a wide graph")]
    fn truncated_wide_fan_keeps_the_budgeted_prefix_at_every_thread_count() {
        static CODEC: IdentityCodec<u32> = IdentityCodec::new();
        for threads in [1, 3] {
            let g = FairGraph::build_with_threads(&WideFan, &CODEC, &[], 700, threads);
            assert!(g.is_truncated());
            assert_eq!(g.state_count(), 700);
            // Every generated edge counts: 0 → 1..=1500, then one edge
            // from each kept fan state. Only 0 → 1..=699 is kept; the
            // dropped edges are absent from the rows.
            assert_eq!(g.edges_generated(), 1500 + 699);
            assert_eq!(g.edge_count(), 699);
            for v in 0..700 {
                assert_eq!(g.state(v), v, "state {v}");
                let expected = (1..700).filter(|_| v == 0).map(|t| (t, 0));
                assert!(g.neighbors(v).eq(expected), "row {v}");
                assert!(!g.is_deadlock(v), "deadlock {v}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker thread")]
    fn zero_threads_are_rejected() {
        static CODEC: IdentityCodec<u32> = IdentityCodec::new();
        let _ = FairGraph::build_with_threads(&Diamond, &CODEC, &[], 1 << 20, 0);
    }
}
