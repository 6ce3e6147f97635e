//! The peer sampling service (`selectPeer()` in the paper).
//!
//! The paper treats peer sampling as a black box over the fixed overlay: a
//! node's candidate peers are its out-neighbours, and the churn scenario
//! assumes "the failure of a neighbor is detected by the node", so selection
//! is restricted to currently online neighbours.
//!
//! [`OnlineNeighbors`] is an incrementally maintained mirror of the online
//! set, keeping every node's out-neighbour list packed into an online
//! prefix and an offline suffix. Selection is a single RNG draw plus one
//! array read — **O(1)** regardless of degree or online fraction. The
//! mirror is the only copy of the out-lists: it builds them from the
//! topology's in-adjacency ([`Topology`] stores each edge once, as an
//! in-edge) and stores 4 B per edge (the permuted targets) plus 9 B per
//! node. A churn transition of `v` walks the topology's sorted in-list of
//! `v` and finds `v` in each in-neighbour's slice by a linear scan,
//! O(out-degree) per in-edge. A mirror covers a contiguous node block, so
//! a sharded run cuts it into per-shard pieces instead of copying it. An
//! all-online mirror is the plain out-adjacency, ascending: graph analysis
//! walks that.

use std::ops::Range;

use ta_sim::engine::prefetch;
use ta_sim::rng::Xoshiro256pp;
use ta_sim::NodeId;

use crate::graph::Topology;

/// A packed, incrementally maintained view of the *online* out-neighbours
/// of a contiguous node block, giving O(1) uniform selection under churn.
///
/// Each block node's out-neighbour slice keeps its currently online
/// targets in a prefix of [`online_degree`](Self::online_degree) entries;
/// [`set_online`](Self::set_online), driven by the driver's up/down
/// callbacks, moves one target across that boundary per slice. Only the
/// prefix is observable, and its order — an artifact of the transition
/// history, deterministic per seed — is the same for every cut of the
/// network into blocks. The offline suffix's order is never observable:
/// a transition moves `v` across the boundary by one swap whose effect on
/// the prefix does not depend on where the suffix keeps its entries.
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
    /// Start of each block node's slice of `targets`; a slice ends where
    /// the next one starts, the last one at `targets.len()`.
    starts: Vec<u32>,
    /// Out-neighbour lists, permuted so each node's slice keeps online
    /// targets in the prefix `[starts[i], starts[i] + online_len[i])`.
    targets: Vec<NodeId>,
    /// Online prefix length per block node.
    online_len: Vec<u32>,
    /// Online flags of every node of the network (any node's transition
    /// may touch the block).
    online: Vec<bool>,
}

impl OnlineNeighbors {
    /// Builds the mirror of the whole network for `topo` with the given
    /// initial online set from the topology's in-adjacency: a counting pass
    /// for each node's online out-degree, then one scatter pass over the
    /// destinations in ascending id. Each node's slice holds its online
    /// out-neighbours in ascending id (the order that bringing the online
    /// nodes up one by one, in id order, would leave), then the offline
    /// ones, also ascending.
    ///
    /// # Panics
    ///
    /// Panics if `initial_online.len() != topo.n()`.
    pub fn new(topo: &Topology, initial_online: &[bool]) -> Self {
        let n = topo.n();
        assert_eq!(initial_online.len(), n, "initial_online length mismatch");
        let in_list = |v: usize| topo.in_neighbors(NodeId::from_index(v));
        let mut online_len = vec![0u32; n];
        for v in (0..n).filter(|&v| initial_online[v]) {
            for u in in_list(v) {
                online_len[u.index()] += 1;
            }
        }
        let starts = topo.out_offsets()[..n].to_vec();
        let mut next_online = starts.clone();
        let mut next_offline: Vec<u32> =
            starts.iter().zip(&online_len).map(|(s, l)| s + l).collect();
        let mut targets = vec![NodeId::new(0); topo.edge_count()];
        for (v, &up) in initial_online.iter().enumerate() {
            let next = if up {
                &mut next_online
            } else {
                &mut next_offline
            };
            for u in in_list(v) {
                targets[next[u.index()] as usize] = NodeId::from_index(v);
                next[u.index()] += 1;
            }
        }
        OnlineNeighbors {
            lo: 0,
            starts,
            targets,
            online_len,
            online: initial_online.to_vec(),
        }
    }

    /// Where the slice of the `i`-th block node begins (`i` may be the
    /// block length: then it is where the last slice ends).
    #[inline]
    fn bound(&self, i: usize) -> usize {
        self.starts
            .get(i)
            .map_or(self.targets.len(), |&s| s as usize)
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
        let start = self.starts[i] as usize;
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
        Some(self.targets[self.starts[i] as usize + pick])
    }

    /// Prefetches what [`select`](Self::select) reads for block node
    /// `node`: its slice start and online length, then the line of
    /// `targets` they point at (the start load is real; the rest are
    /// hints, see [`ta_sim::engine::prefetch`]). Changes nothing.
    #[inline]
    pub fn prefetch(&self, node: NodeId) {
        let i = node.index().wrapping_sub(self.lo);
        prefetch(&self.starts, i);
        prefetch(&self.online_len, i);
        if let Some(&start) = self.starts.get(i) {
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
            let (start, end) = (self.bound(i), self.bound(i + 1));
            let slice = &mut self.targets[start..end];
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
            let base = self.bound(a);
            OnlineNeighbors {
                lo: r.start,
                starts: self.starts[a..b].iter().map(|s| s - base as u32).collect(),
                targets: self.targets[base..self.bound(b)].to_vec(),
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
            let base = whole.targets.len() as u32;
            whole.starts.extend(p.starts.iter().map(|s| s + base));
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
    fn build_keeps_both_parts_of_every_slice_ascending() {
        let topo = Topology::from_edges(4, [(0, 3), (0, 1), (0, 2), (2, 1), (3, 0)]).unwrap();
        let mirror = OnlineNeighbors::new(&topo, &[true, false, true, false]);
        assert_eq!(mirror.targets, [2, 1, 3, 1, 0].map(NodeId::new));
        assert_eq!(mirror.starts, [0, 3, 3, 4]);
        assert_eq!(mirror.online_len, [1, 0, 0, 1]);
        let all = OnlineNeighbors::new(&topo, &[true; 4]);
        assert_eq!(
            all.online_neighbors(NodeId::new(0)),
            [1, 2, 3].map(NodeId::new)
        );
        assert!(all.online_neighbors(NodeId::new(1)).is_empty());
    }

    /// Sorted online out-neighbour set per the mirror.
    fn mirror_set(m: &OnlineNeighbors, node: NodeId) -> Vec<u32> {
        let mut v: Vec<u32> = m.online_neighbors(node).iter().map(|p| p.raw()).collect();
        v.sort_unstable();
        v
    }

    /// Sorted online out-neighbour set straight from the topology.
    fn reference_set(topo: &Topology, online: &[bool], node: NodeId) -> Vec<u32> {
        (0..topo.n())
            .map(NodeId::from_index)
            .filter(|&p| online[p.index()] && topo.has_edge(node, p))
            .map(|p| p.raw())
            .collect()
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
