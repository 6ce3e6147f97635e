//! The peer sampling service (`selectPeer()` in the paper).
//!
//! The paper treats peer sampling as a black box over the fixed overlay: a
//! node's candidate peers are its out-neighbours, and the churn scenario
//! assumes "the failure of a neighbor is detected by the node", so selection
//! is restricted to currently online neighbours.
//!
//! Two implementations are provided:
//!
//! * [`OnlineNeighbors`] — an incrementally maintained mirror of the
//!   online set, keeping every node's out-neighbour list packed into an
//!   online prefix and an offline suffix. Selection is a single RNG draw
//!   plus one array read — **O(1)** regardless of degree or online
//!   fraction. The mirror stores 4 B per edge (the permuted targets) and
//!   nothing per in-edge: a churn transition of `v` walks the topology's
//!   sorted in-list of `v` and finds `v` in each in-neighbour's slice by a
//!   linear scan, O(out-degree) per in-edge. A mirror covers a contiguous
//!   node block, so a sharded run cuts it into per-shard pieces instead of
//!   copying it. This is what the protocol hot path uses: token-account
//!   workloads are dominated by sends, and each send needs one online
//!   peer.
//! * [`PeerSampler::select_online`] — a stateless fallback for callers
//!   that do not maintain the mirror: bounded rejection sampling over the
//!   full neighbour list, degrading to an exact two-pass scan when the
//!   online fraction is too small to hit quickly. Uniform over the online
//!   subset in both phases.

use std::ops::Range;

use ta_sim::engine::prefetch;
use ta_sim::rng::Xoshiro256pp;
use ta_sim::NodeId;

use crate::graph::Topology;

/// Uniform peer sampling over a fixed overlay.
///
/// ```
/// use ta_overlay::generators::complete;
/// use ta_overlay::sampling::PeerSampler;
/// use ta_sim::rng::Xoshiro256pp;
/// use ta_sim::NodeId;
/// use rand::SeedableRng;
///
/// let topo = complete(4)?;
/// let sampler = PeerSampler::new(&topo);
/// let mut rng = Xoshiro256pp::seed_from_u64(1);
/// let peer = sampler.select(NodeId::new(0), &mut rng).unwrap();
/// assert_ne!(peer, NodeId::new(0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PeerSampler<'a> {
    topo: &'a Topology,
}

/// Rejection-sampling attempts before [`PeerSampler::select_online`] falls
/// back to the exact two-pass scan. With online fraction `q`, the chance of
/// needing the fallback is `(1 - q)^8` — under 1% once 40% of neighbours
/// are up.
const REJECTION_TRIES: usize = 8;

impl<'a> PeerSampler<'a> {
    /// Creates a sampler over `topo`.
    pub fn new(topo: &'a Topology) -> Self {
        PeerSampler { topo }
    }

    /// Selects a uniformly random out-neighbour of `node`, or `None` if it
    /// has none.
    pub fn select(&self, node: NodeId, rng: &mut Xoshiro256pp) -> Option<NodeId> {
        let peers = self.topo.out_neighbors(node);
        if peers.is_empty() {
            return None;
        }
        Some(peers[rng.below(peers.len() as u64) as usize])
    }

    /// Selects a uniformly random *online* out-neighbour of `node`, or
    /// `None` if none is online.
    ///
    /// `online` is indexed by [`NodeId::index`]. Uniformity is over the
    /// online subset: a few rejection-sampling draws (each accepted draw is
    /// uniform over the online neighbours), then an exact O(degree)
    /// two-pass scan if none hit. Callers on a hot path should maintain an
    /// [`OnlineNeighbors`] mirror instead, which selects in O(1).
    pub fn select_online(
        &self,
        node: NodeId,
        online: &[bool],
        rng: &mut Xoshiro256pp,
    ) -> Option<NodeId> {
        let peers = self.topo.out_neighbors(node);
        if peers.is_empty() {
            return None;
        }
        for _ in 0..REJECTION_TRIES {
            let p = peers[rng.below(peers.len() as u64) as usize];
            if online[p.index()] {
                return Some(p);
            }
        }
        let alive = peers.iter().filter(|p| online[p.index()]).count();
        if alive == 0 {
            return None;
        }
        let pick = rng.below(alive as u64) as usize;
        peers
            .iter()
            .filter(|p| online[p.index()])
            .nth(pick)
            .copied()
    }
}

/// A packed, incrementally maintained view of the *online* out-neighbours
/// of a contiguous node block, giving O(1) uniform selection under churn.
///
/// Each block node's out-neighbour slice keeps its currently online
/// targets in a prefix of [`online_degree`](Self::online_degree) entries;
/// [`set_online`](Self::set_online), driven by the driver's up/down
/// callbacks, moves one target across that boundary per slice. Only the
/// prefix is observable, and its order — an artifact of the transition
/// history, deterministic per seed — is the same for every cut of the
/// network into blocks. Uniformity over the online subset is
/// property-tested against the stateless [`PeerSampler::select_online`].
///
/// ```
/// use ta_overlay::generators::complete;
/// use ta_overlay::sampling::OnlineNeighbors;
/// use ta_sim::rng::Xoshiro256pp;
/// use ta_sim::NodeId;
///
/// let topo = complete(4)?;
/// let mut peers = OnlineNeighbors::new(&topo, &[true, true, true, true]);
/// peers.set_online(&topo, NodeId::new(2), false);
/// assert_eq!(peers.online_degree(NodeId::new(0)), 2);
/// let mut rng = Xoshiro256pp::stream(1, 0);
/// let peer = peers.select(NodeId::new(0), &mut rng).unwrap();
/// assert_ne!(peer, NodeId::new(2));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct OnlineNeighbors {
    /// First node of the block.
    lo: usize,
    /// CSR offsets into `targets`, one per block node plus one.
    offsets: Vec<u32>,
    /// Out-neighbour lists, permuted so each node's slice keeps online
    /// targets in the prefix `[offsets[i], offsets[i] + online_len[i])`.
    targets: Vec<NodeId>,
    /// Online prefix length per block node.
    online_len: Vec<u32>,
    /// Online flags of every node of the network (any node's transition
    /// may touch the block).
    online: Vec<bool>,
}

impl OnlineNeighbors {
    /// Builds the mirror of the whole network for `topo` with the given
    /// initial online set, in one sequential pass: each node's online
    /// out-neighbours in ascending id (the order that bringing the online
    /// nodes up one by one, in id order, would leave), then the offline
    /// ones.
    ///
    /// # Panics
    ///
    /// Panics if `initial_online.len() != topo.n()`.
    pub fn new(topo: &Topology, initial_online: &[bool]) -> Self {
        let n = topo.n();
        assert_eq!(initial_online.len(), n, "initial_online length mismatch");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(topo.edge_count());
        let mut online_len = Vec::with_capacity(n);
        offsets.push(0u32);
        for v in 0..n {
            let out = topo.out_neighbors(NodeId::from_index(v));
            let start = targets.len();
            targets.extend(out.iter().filter(|t| initial_online[t.index()]));
            targets[start..].sort_unstable();
            online_len.push((targets.len() - start) as u32);
            targets.extend(out.iter().filter(|t| !initial_online[t.index()]));
            offsets.push(targets.len() as u32);
        }
        OnlineNeighbors {
            lo: 0,
            offsets,
            targets,
            online_len,
            online: initial_online.to_vec(),
        }
    }

    /// The node block whose out-neighbours this mirror holds.
    #[inline]
    pub fn range(&self) -> Range<usize> {
        self.lo..self.lo + self.online_len.len()
    }

    /// Whether `node` (any node of the network) is currently marked online.
    #[inline]
    pub fn is_online(&self, node: NodeId) -> bool {
        self.online[node.index()]
    }

    /// The online flags of the network, indexed by [`NodeId::index`].
    #[inline]
    pub fn online_flags(&self) -> &[bool] {
        &self.online
    }

    /// Number of currently online out-neighbours of block node `node`.
    #[inline]
    pub fn online_degree(&self, node: NodeId) -> usize {
        self.online_len[node.index() - self.lo] as usize
    }

    /// The currently online out-neighbours of block node `node`, in the
    /// order [`select`](Self::select) indexes.
    #[inline]
    pub fn online_neighbors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index() - self.lo;
        let start = self.offsets[i] as usize;
        &self.targets[start..start + self.online_len[i] as usize]
    }

    /// Selects a uniformly random online out-neighbour of block node
    /// `node` in O(1), or `None` if none is online.
    ///
    /// Consumes exactly one RNG draw when a peer exists and none otherwise
    /// (the same draw discipline as the stateless sampler's happy path).
    #[inline]
    pub fn select(&self, node: NodeId, rng: &mut Xoshiro256pp) -> Option<NodeId> {
        let i = node.index() - self.lo;
        let len = self.online_len[i];
        if len == 0 {
            return None;
        }
        let pick = rng.below(len as u64) as usize;
        Some(self.targets[self.offsets[i] as usize + pick])
    }

    /// Prefetches what [`select`](Self::select) reads for block node
    /// `node`: its offset and online length, then the line of `targets`
    /// they point at (the offset load is real; the rest are hints, see
    /// [`ta_sim::engine::prefetch`]). Changes nothing.
    #[inline]
    pub fn prefetch(&self, node: NodeId) {
        let i = node.index().wrapping_sub(self.lo);
        prefetch(&self.offsets, i);
        prefetch(&self.online_len, i);
        if let Some(&start) = self.offsets.get(i) {
            prefetch(&self.targets, start as usize);
        }
    }

    /// Records a churn transition of `node` (any node of the network) and
    /// moves it across the prefix boundary of every slice in the block
    /// that lists it. `topo` must be the topology the mirror was built
    /// from. Idempotent: repeating the current state is a no-op.
    pub fn set_online(&mut self, topo: &Topology, node: NodeId, up: bool) {
        if self.online[node.index()] == up {
            return;
        }
        self.online[node.index()] = up;
        let sources = topo.in_neighbors(node);
        let first = sources.partition_point(|u| u.index() < self.lo);
        let last = sources.partition_point(|u| u.index() < self.lo + self.online_len.len());
        for u in &sources[first..last] {
            let i = u.index() - self.lo;
            let slice = &mut self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize];
            let at = slice.iter().position(|&t| t == node).expect("edge listed");
            // Up: `node` swaps into the first offline slot, which joins the
            // prefix. Down: the prefix's last slot (perhaps `node`'s own)
            // leaves it, and `node` swaps into it.
            let k = self.online_len[i];
            let boundary = if up { k } else { k - 1 };
            slice.swap(at, boundary as usize);
            self.online_len[i] = if up { k + 1 } else { k - 1 };
        }
    }

    /// Cuts the mirror into one piece per range of `ranges`, which must
    /// tile [`range`](Self::range) in order.
    pub fn split(self, ranges: impl IntoIterator<Item = Range<usize>>) -> Vec<Self> {
        let piece = |r: Range<usize>| {
            let (a, b) = (r.start - self.lo, r.end - self.lo);
            let base = self.offsets[a];
            OnlineNeighbors {
                lo: r.start,
                offsets: self.offsets[a..=b].iter().map(|o| o - base).collect(),
                targets: self.targets[base as usize..self.offsets[b] as usize].to_vec(),
                online_len: self.online_len[a..b].to_vec(),
                online: self.online.clone(),
            }
        };
        ranges.into_iter().map(piece).collect()
    }

    /// Joins the pieces of [`split`](Self::split), in order, back into one
    /// mirror. Every piece must have seen the same transitions.
    pub fn join(pieces: impl IntoIterator<Item = Self>) -> Self {
        let mut pieces = pieces.into_iter();
        let mut whole = pieces.next().expect("at least one piece");
        for p in pieces {
            let base = whole.offsets.pop().expect("offsets never empty");
            whole.offsets.extend(p.offsets.iter().map(|o| o + base));
            whole.targets.extend_from_slice(&p.targets);
            whole.online_len.extend_from_slice(&p.online_len);
        }
        whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, k_out_random};
    use crate::graph::Topology;
    use rand::SeedableRng;

    #[test]
    fn select_is_uniform_over_neighbors() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let topo = k_out_random(50, 10, &mut rng).unwrap();
        let sampler = PeerSampler::new(&topo);
        let node = NodeId::new(0);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..10_000 {
            let p = sampler.select(node, &mut rng).unwrap();
            *counts.entry(p).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 10);
        for (&peer, &c) in &counts {
            assert!((700..1300).contains(&c), "peer {peer} selected {c} times");
            assert!(topo.out_neighbors(node).contains(&peer));
        }
    }

    #[test]
    fn select_none_without_neighbors() {
        let topo = Topology::from_edges(2, [(1, 0)]).unwrap();
        let sampler = PeerSampler::new(&topo);
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        assert_eq!(sampler.select(NodeId::new(0), &mut rng), None);
    }

    #[test]
    fn select_online_skips_offline_peers() {
        let topo = complete(5).unwrap();
        let sampler = PeerSampler::new(&topo);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        // Only node 3 is online besides the sender.
        let online = vec![false, false, false, true, false];
        for _ in 0..100 {
            let p = sampler.select_online(NodeId::new(0), &online, &mut rng);
            assert_eq!(p, Some(NodeId::new(3)));
        }
    }

    #[test]
    fn select_online_none_when_all_offline() {
        let topo = complete(3).unwrap();
        let sampler = PeerSampler::new(&topo);
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let online = vec![false; 3];
        assert_eq!(
            sampler.select_online(NodeId::new(0), &online, &mut rng),
            None
        );
    }

    #[test]
    fn select_online_is_uniform_over_online_subset() {
        let topo = complete(6).unwrap();
        let sampler = PeerSampler::new(&topo);
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let online = vec![true, false, true, true, false, true];
        let mut counts = std::collections::HashMap::new();
        for _ in 0..12_000 {
            let p = sampler
                .select_online(NodeId::new(0), &online, &mut rng)
                .unwrap();
            *counts.entry(p.raw()).or_insert(0u32) += 1;
        }
        // Node 0's online neighbours: 2, 3, 5 (not itself).
        assert_eq!(counts.len(), 3);
        for (&peer, &c) in &counts {
            assert!([2, 3, 5].contains(&peer));
            assert!((3_400..4_600).contains(&c), "peer {peer}: {c}");
        }
    }

    /// Sorted online out-neighbour set per the mirror.
    fn mirror_set(m: &OnlineNeighbors, node: NodeId) -> Vec<u32> {
        let mut v: Vec<u32> = m.online_neighbors(node).iter().map(|p| p.raw()).collect();
        v.sort_unstable();
        v
    }

    /// Sorted online out-neighbour set straight from the topology.
    fn reference_set(topo: &Topology, online: &[bool], node: NodeId) -> Vec<u32> {
        let mut v: Vec<u32> = topo
            .out_neighbors(node)
            .iter()
            .filter(|p| online[p.index()])
            .map(|p| p.raw())
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn mirror_tracks_reference_under_random_churn() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let topo = k_out_random(40, 8, &mut rng).unwrap();
        let mut online = vec![true; 40];
        online[3] = false;
        online[17] = false;
        let mut mirror = OnlineNeighbors::new(&topo, &online);
        for step in 0..2_000 {
            let v = rng.below(40) as usize;
            let up = rng.chance(0.5);
            online[v] = up;
            mirror.set_online(&topo, NodeId::from_index(v), up);
            if step % 97 == 0 {
                for node in 0..40 {
                    let id = NodeId::from_index(node);
                    assert_eq!(
                        mirror_set(&mirror, id),
                        reference_set(&topo, &online, id),
                        "divergence at step {step}, node {node}"
                    );
                    assert_eq!(mirror.online_degree(id), mirror.online_neighbors(id).len());
                }
            }
        }
    }

    #[test]
    fn set_online_is_idempotent() {
        let topo = complete(4).unwrap();
        let mut mirror = OnlineNeighbors::new(&topo, &[true; 4]);
        mirror.set_online(&topo, NodeId::new(1), false);
        mirror.set_online(&topo, NodeId::new(1), false);
        assert_eq!(mirror.online_degree(NodeId::new(0)), 2);
        mirror.set_online(&topo, NodeId::new(1), true);
        mirror.set_online(&topo, NodeId::new(1), true);
        assert_eq!(mirror.online_degree(NodeId::new(0)), 3);
    }

    #[test]
    fn mirror_select_none_when_all_neighbors_offline() {
        let topo = complete(3).unwrap();
        let mut mirror = OnlineNeighbors::new(&topo, &[true; 3]);
        mirror.set_online(&topo, NodeId::new(1), false);
        mirror.set_online(&topo, NodeId::new(2), false);
        let mut rng = Xoshiro256pp::stream(3, 0);
        assert_eq!(mirror.select(NodeId::new(0), &mut rng), None);
        assert_eq!(mirror.online_degree(NodeId::new(0)), 0);
    }

    #[test]
    fn mirror_initial_partition_matches_flags() {
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let topo = k_out_random(30, 6, &mut rng).unwrap();
        let online: Vec<bool> = (0..30).map(|i| i % 3 != 0).collect();
        let mirror = OnlineNeighbors::new(&topo, &online);
        for node in 0..30 {
            let id = NodeId::from_index(node);
            assert_eq!(mirror_set(&mirror, id), reference_set(&topo, &online, id));
            assert_eq!(mirror.is_online(id), online[node]);
        }
        assert_eq!(mirror.online_flags(), &online[..]);
        assert_eq!(mirror.range(), 0..30);
    }
}
