//! Property tests for online peer sampling: the packed O(1) mirror must be
//! statistically indistinguishable from the stateless exact sampler, over
//! arbitrary overlays and arbitrary churn histories; its direct build must
//! equal a replay of transitions from all-offline; and its cut blocks must
//! draw exactly what the whole mirror draws.

use proptest::prelude::*;
use ta_overlay::generators::k_out_random;
use ta_overlay::sampling::{OnlineNeighbors, PeerSampler};
use ta_overlay::Topology;
use ta_sim::rng::Xoshiro256pp;
use ta_sim::shard::ShardPlan;
use ta_sim::NodeId;

/// Builds the mirror and the plain flag vector from one online bitmask.
fn mirror_and_flags(topo: &Topology, online: &[bool]) -> (OnlineNeighbors, Vec<bool>) {
    (OnlineNeighbors::new(topo, online), online.to_vec())
}

/// Sorted online out-neighbour ids straight from the topology (the ground
/// truth both samplers must draw from).
fn ground_truth(topo: &Topology, online: &[bool], node: NodeId) -> Vec<u32> {
    let mut v: Vec<u32> = topo
        .out_neighbors(node)
        .iter()
        .filter(|p| online[p.index()])
        .map(|p| p.raw())
        .collect();
    v.sort_unstable();
    v
}

/// Reference model of the mirror, one `Vec` per node: every out-list in
/// topology order, all nodes offline, moved one transition at a time with
/// the mirror's swap (up: into the first offline slot, then grow the
/// prefix; down: shrink the prefix, then into its old last slot).
struct Replay {
    slices: Vec<Vec<NodeId>>,
    len: Vec<usize>,
    online: Vec<bool>,
}

impl Replay {
    fn new(topo: &Topology) -> Self {
        let n = topo.n();
        let slices = (0..n)
            .map(|u| topo.out_neighbors(NodeId::from_index(u)).to_vec())
            .collect();
        Replay {
            slices,
            len: vec![0; n],
            online: vec![false; n],
        }
    }

    fn set(&mut self, v: NodeId, up: bool) {
        if std::mem::replace(&mut self.online[v.index()], up) == up {
            return;
        }
        for (slice, k) in self.slices.iter_mut().zip(&mut self.len) {
            if let Some(at) = slice.iter().position(|&t| t == v) {
                if up {
                    slice.swap(at, *k);
                    *k += 1;
                } else {
                    *k -= 1;
                    slice.swap(at, *k);
                }
            }
        }
    }

    fn prefix(&self, u: usize) -> &[NodeId] {
        &self.slices[u][..self.len[u]]
    }
}

/// Draws `trials` selections and returns per-peer counts.
fn histogram<F: FnMut(&mut Xoshiro256pp) -> Option<NodeId>>(
    mut draw: F,
    trials: u32,
    seed: u64,
) -> std::collections::HashMap<u32, u32> {
    let mut rng = Xoshiro256pp::stream(seed, 1);
    let mut counts = std::collections::HashMap::new();
    for _ in 0..trials {
        if let Some(p) = draw(&mut rng) {
            *counts.entry(p.raw()).or_insert(0u32) += 1;
        }
    }
    counts
}

#[test]
fn mirror_is_uniform_over_online_subset() {
    // Statistical uniformity: every online neighbour within ±4 standard
    // deviations of the expected count, and nothing else ever selected.
    let mut rng = Xoshiro256pp::stream(42, 0);
    let topo = k_out_random(60, 12, &mut rng).unwrap();
    let online: Vec<bool> = (0..60).map(|i| i % 4 != 1).collect();
    let (mirror, flags) = mirror_and_flags(&topo, &online);
    let trials = 24_000u32;
    for node in [0u32, 7, 33] {
        let id = NodeId::new(node);
        let expected_set = ground_truth(&topo, &flags, id);
        let counts = histogram(|rng| mirror.select(id, rng), trials, 100 + node as u64);
        let k = expected_set.len() as f64;
        let mean = trials as f64 / k;
        let sd = (mean * (1.0 - 1.0 / k)).sqrt();
        assert_eq!(
            counts.len(),
            expected_set.len(),
            "node {node}: some online neighbour never selected"
        );
        for (&peer, &c) in &counts {
            assert!(expected_set.contains(&peer), "offline peer {peer} selected");
            assert!(
                (c as f64 - mean).abs() < 4.0 * sd,
                "node {node}, peer {peer}: count {c} vs mean {mean:.0} (sd {sd:.1})"
            );
        }
    }
}

#[test]
fn mirror_matches_two_pass_distribution() {
    // Equivalence against the stateless sampler: same support, and
    // per-peer frequencies within ±4 sd of each other on the same trial
    // budget.
    let mut rng = Xoshiro256pp::stream(7, 0);
    let topo = k_out_random(50, 10, &mut rng).unwrap();
    let online: Vec<bool> = (0..50).map(|i| i % 3 != 0).collect();
    let (mirror, flags) = mirror_and_flags(&topo, &online);
    let sampler = PeerSampler::new(&topo);
    let trials = 30_000u32;
    let id = NodeId::new(4);
    let mirror_counts = histogram(|rng| mirror.select(id, rng), trials, 5);
    let two_pass_counts = histogram(|rng| sampler.select_online(id, &flags, rng), trials, 6);
    let support = ground_truth(&topo, &flags, id);
    assert_eq!(mirror_counts.len(), support.len());
    assert_eq!(two_pass_counts.len(), support.len());
    let k = support.len() as f64;
    let mean = trials as f64 / k;
    let sd = (mean * (1.0 - 1.0 / k)).sqrt();
    for &peer in &support {
        let a = *mirror_counts.get(&peer).unwrap_or(&0) as f64;
        let b = *two_pass_counts.get(&peer).unwrap_or(&0) as f64;
        assert!(
            (a - b).abs() < 4.0 * (2.0f64).sqrt() * sd,
            "peer {peer}: mirror {a} vs two-pass {b} (sd {sd:.1})"
        );
    }
}

#[test]
fn churn_edge_cases_all_offline_single_online_flapping() {
    let topo = k_out_random(12, 5, &mut Xoshiro256pp::stream(3, 0)).unwrap();
    let mut mirror = OnlineNeighbors::new(&topo, &[true; 12]);
    let mut rng = Xoshiro256pp::stream(9, 0);
    let probe = NodeId::new(0);

    // All offline: no selection, no RNG draw side effects to worry about.
    for i in 0..12 {
        mirror.set_online(&topo, NodeId::from_index(i), false);
    }
    assert_eq!(mirror.select(probe, &mut rng), None);
    assert_eq!(mirror.online_degree(probe), 0);

    // Single online: the one live neighbour is always chosen.
    let lone = topo.out_neighbors(probe)[0];
    mirror.set_online(&topo, lone, true);
    for _ in 0..50 {
        assert_eq!(mirror.select(probe, &mut rng), Some(lone));
    }

    // Flapping: rapid up/down of the same node must keep every slice
    // consistent with the ground truth.
    let mut online = vec![false; 12];
    online[lone.index()] = true;
    let flapper = topo.out_neighbors(probe)[1];
    for round in 0..100 {
        let up = round % 2 == 0;
        mirror.set_online(&topo, flapper, up);
        online[flapper.index()] = up;
        for node in 0..12 {
            let id = NodeId::from_index(node);
            let mut got: Vec<u32> = mirror
                .online_neighbors(id)
                .iter()
                .map(|p| p.raw())
                .collect();
            got.sort_unstable();
            assert_eq!(got, ground_truth(&topo, &online, id), "round {round}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary overlay + arbitrary transition script: after every prefix
    /// of the script the mirror's packed slices equal the ground truth
    /// derived from the flags, for every node.
    #[test]
    fn mirror_equals_ground_truth_after_any_churn_script(
        seed in 0u64..1_000,
        n in 5usize..40,
        script in proptest::collection::vec((0usize..40, any::<bool>()), 0..120),
    ) {
        let k = 4.min(n - 1).max(1);
        let topo = k_out_random(n, k, &mut Xoshiro256pp::stream(seed, 0)).unwrap();
        let mut online = vec![true; n];
        let mut mirror = OnlineNeighbors::new(&topo, &online);
        for (raw, up) in script {
            let v = raw % n;
            online[v] = up;
            mirror.set_online(&topo, NodeId::from_index(v), up);
        }
        for node in 0..n {
            let id = NodeId::from_index(node);
            let mut got: Vec<u32> =
                mirror.online_neighbors(id).iter().map(|p| p.raw()).collect();
            got.sort_unstable();
            prop_assert_eq!(got, ground_truth(&topo, &online, id));
            prop_assert_eq!(mirror.is_online(id), online[node]);
        }
    }

    /// The direct build leaves every prefix exactly as replaying "came
    /// online" from all-offline, in id order, does (order included), with
    /// the rest of each out-list behind it; and the two stay equal under
    /// any later transition script.
    #[test]
    fn direct_build_equals_replay_from_all_offline(
        seed in 0u64..1_000,
        n in 2usize..40,
        mask in any::<u64>(),
        script in proptest::collection::vec((0usize..40, any::<bool>()), 0..80),
    ) {
        let k = 5.min(n - 1);
        let topo = k_out_random(n, k, &mut Xoshiro256pp::stream(seed, 0)).unwrap();
        let online: Vec<bool> = (0..n).map(|i| mask >> (i % 64) & 1 == 1).collect();
        let mut mirror = OnlineNeighbors::new(&topo, &online);
        let mut replay = Replay::new(&topo);
        for (v, &up) in online.iter().enumerate() {
            replay.set(NodeId::from_index(v), up);
        }
        for u in 0..n {
            let id = NodeId::from_index(u);
            prop_assert_eq!(mirror.online_neighbors(id), replay.prefix(u));
            prop_assert_eq!(ground_truth(&topo, &online, id).len(), mirror.online_degree(id));
        }
        for (raw, up) in script {
            let v = NodeId::from_index(raw % n);
            mirror.set_online(&topo, v, up);
            replay.set(v, up);
        }
        for u in 0..n {
            prop_assert_eq!(mirror.online_neighbors(NodeId::from_index(u)), replay.prefix(u));
        }
    }

    /// Cutting the mirror into S blocks and driving every block with the
    /// whole network's transitions gives, for every node, the same online
    /// prefix (order included) and the same peer for the same draw as the
    /// whole mirror; joining the blocks gives the whole mirror back.
    #[test]
    fn cut_blocks_draw_what_the_whole_mirror_draws(
        seed in 0u64..1_000,
        n in 7usize..40,
        which in 0usize..4,
        mask in any::<u64>(),
        script in proptest::collection::vec((0usize..40, any::<bool>()), 0..120),
    ) {
        let topo = k_out_random(n, 4, &mut Xoshiro256pp::stream(seed, 0)).unwrap();
        let online: Vec<bool> = (0..n).map(|i| mask >> (i % 64) & 1 == 1).collect();
        let mut whole = OnlineNeighbors::new(&topo, &online);
        let plan = ShardPlan::new(n, [1, 2, 3, 7][which]);
        let ranges: Vec<_> = (0..plan.shards()).map(|s| plan.range(s)).collect();
        let mut pieces = whole.clone().split(ranges.iter().cloned());
        for (piece, range) in pieces.iter().zip(&ranges) {
            prop_assert_eq!(piece.range(), range.clone());
        }
        for (raw, up) in script {
            let v = NodeId::from_index(raw % n);
            whole.set_online(&topo, v, up);
            for piece in &mut pieces {
                piece.set_online(&topo, v, up);
            }
        }
        for u in 0..n {
            let id = NodeId::from_index(u);
            let piece = pieces.iter().find(|p| p.range().contains(&u)).unwrap();
            prop_assert_eq!(piece.online_neighbors(id), whole.online_neighbors(id));
            prop_assert_eq!(piece.online_flags(), whole.online_flags());
            let mut a = Xoshiro256pp::stream(seed, u as u64);
            let mut b = Xoshiro256pp::stream(seed, u as u64);
            for _ in 0..4 {
                prop_assert_eq!(piece.select(id, &mut a), whole.select(id, &mut b));
            }
        }
        let joined = OnlineNeighbors::join(pieces);
        prop_assert_eq!(joined.range(), 0..n);
        for u in 0..n {
            let id = NodeId::from_index(u);
            prop_assert_eq!(joined.online_neighbors(id), whole.online_neighbors(id));
        }
    }

    /// The stateless sampler (rejection + fallback) always returns an
    /// online neighbour, and `None` exactly when there is none.
    #[test]
    fn stateless_sampler_respects_online_set(
        seed in 0u64..1_000,
        n in 3usize..30,
        mask in 0u64..u64::MAX,
    ) {
        let k = 3.min(n - 1).max(1);
        let topo = k_out_random(n, k, &mut Xoshiro256pp::stream(seed, 0)).unwrap();
        let online: Vec<bool> = (0..n).map(|i| mask >> (i % 64) & 1 == 1).collect();
        let sampler = PeerSampler::new(&topo);
        let mut rng = Xoshiro256pp::stream(seed, 2);
        for node in 0..n {
            let id = NodeId::from_index(node);
            let truth = ground_truth(&topo, &online, id);
            match sampler.select_online(id, &online, &mut rng) {
                Some(p) => prop_assert!(truth.contains(&p.raw())),
                None => prop_assert!(truth.is_empty()),
            }
        }
    }
}
