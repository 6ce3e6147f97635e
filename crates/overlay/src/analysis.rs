//! Structural analysis of overlay graphs: reachability, strong
//! connectivity, degree statistics, and diameter estimation.

use ta_sim::rng::Xoshiro256pp;
use ta_sim::NodeId;

use crate::graph::Topology;
use crate::sampling::OnlineNeighbors;

/// Breadth-first hop distances from `from` along out-edges.
///
/// Unreachable nodes get `None`.
pub fn bfs_distances(topo: &Topology, from: NodeId) -> Vec<Option<u32>> {
    let out = out_lists(topo);
    bfs(topo.n(), from, |v| out.online_neighbors(v))
}

/// The out-adjacency: an all-online mirror, whose online lists are the
/// whole out-lists.
fn out_lists(topo: &Topology) -> OnlineNeighbors {
    OnlineNeighbors::new(topo, &vec![true; topo.n()])
}

/// Hop distances from `from` over `n` nodes, following `next`.
fn bfs<'a>(n: usize, from: NodeId, next: impl Fn(NodeId) -> &'a [NodeId]) -> Vec<Option<u32>> {
    let mut dist = vec![None; n];
    let mut frontier = vec![from];
    dist[from.index()] = Some(0);
    let mut hops = 0;
    while !frontier.is_empty() {
        hops += 1;
        let mut later = Vec::new();
        for &node in &frontier {
            for &peer in next(node) {
                if dist[peer.index()].is_none() {
                    dist[peer.index()] = Some(hops);
                    later.push(peer);
                }
            }
        }
        frontier = later;
    }
    dist
}

/// Whether the digraph is strongly connected.
///
/// Node 0 must reach every node along out-edges and along in-edges; both
/// together are equivalent to strong connectivity. `O(V + E)`.
pub fn is_strongly_connected(topo: &Topology) -> bool {
    if topo.n() == 0 {
        return false;
    }
    let origin = NodeId::new(0);
    bfs_distances(topo, origin).iter().all(Option::is_some)
        && bfs(topo.n(), origin, |v| topo.in_neighbors(v))
            .iter()
            .all(Option::is_some)
}

/// Summary of a graph's degree distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Minimum out-degree.
    pub min_out: usize,
    /// Maximum out-degree.
    pub max_out: usize,
    /// Mean out-degree (equals mean in-degree).
    pub mean_out: f64,
    /// Minimum in-degree.
    pub min_in: usize,
    /// Maximum in-degree.
    pub max_in: usize,
}

/// Computes [`DegreeStats`] for `topo`.
pub fn degree_stats(topo: &Topology) -> DegreeStats {
    let n = topo.n();
    let mut min_out = usize::MAX;
    let mut max_out = 0;
    let mut min_in = usize::MAX;
    let mut max_in = 0;
    for i in 0..n {
        let node = NodeId::from_index(i);
        let od = topo.out_degree(node);
        let id = topo.in_degree(node);
        min_out = min_out.min(od);
        max_out = max_out.max(od);
        min_in = min_in.min(id);
        max_in = max_in.max(id);
    }
    DegreeStats {
        min_out,
        max_out,
        mean_out: topo.edge_count() as f64 / n as f64,
        min_in,
        max_in,
    }
}

/// Estimates the diameter by taking the maximum eccentricity over
/// `samples` random source nodes (a lower bound on the true diameter).
///
/// Returns `None` if some sampled source cannot reach the whole graph.
pub fn estimate_diameter(topo: &Topology, samples: usize, rng: &mut Xoshiro256pp) -> Option<u32> {
    let out = out_lists(topo);
    let mut best = 0;
    for _ in 0..samples {
        let from = NodeId::from_index(rng.below(topo.n() as u64) as usize);
        let dist = bfs(topo.n(), from, |v| out.online_neighbors(v));
        let mut ecc = 0;
        for d in dist {
            ecc = ecc.max(d?);
        }
        best = best.max(ecc);
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, k_out_random, ring};
    use rand::SeedableRng;

    #[test]
    fn bfs_on_directed_ring() {
        let t = ring(5).unwrap();
        let d = bfs_distances(&t, NodeId::new(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn unreachable_nodes_are_none() {
        let t = Topology::from_edges(3, [(0, 1)]).unwrap();
        let d = bfs_distances(&t, NodeId::new(0));
        assert_eq!(d[1], Some(1));
        assert_eq!(d[2], None);
    }

    #[test]
    fn ring_is_strongly_connected_path_is_not() {
        assert!(is_strongly_connected(&ring(10).unwrap()));
        let path = Topology::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert!(!is_strongly_connected(&path));
    }

    #[test]
    fn k_out_20_is_strongly_connected_whp() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let t = k_out_random(2000, 20, &mut rng).unwrap();
        assert!(is_strongly_connected(&t));
    }

    #[test]
    fn degree_stats_on_complete_graph() {
        let t = complete(5).unwrap();
        let s = degree_stats(&t);
        assert_eq!(s.min_out, 4);
        assert_eq!(s.max_out, 4);
        assert_eq!(s.min_in, 4);
        assert_eq!(s.max_in, 4);
        assert!((s.mean_out - 4.0).abs() < 1e-12);
    }

    #[test]
    fn diameter_of_ring() {
        let t = ring(10).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let d = estimate_diameter(&t, 5, &mut rng).unwrap();
        assert_eq!(d, 9);
    }

    #[test]
    fn diameter_none_when_disconnected() {
        let t = Topology::from_edges(3, [(0, 1), (1, 0)]).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        assert_eq!(estimate_diameter(&t, 4, &mut rng), None);
    }

    #[test]
    fn k_out_diameter_is_logarithmic() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let t = k_out_random(5000, 20, &mut rng).unwrap();
        let d = estimate_diameter(&t, 3, &mut rng).unwrap();
        // log_20(5000) ≈ 2.8; diameter should be tiny.
        assert!((3..=6).contains(&d), "diameter = {d}");
    }
}
