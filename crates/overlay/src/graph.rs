//! Directed overlay graphs in compressed sparse row form.
//!
//! A [`Topology`] is an immutable digraph over dense [`NodeId`]s that stores
//! each edge once, in its in-adjacency (whose values a node buffers in
//! chaotic iteration), plus every node's out-degree. In-neighbour lists are
//! sorted so that per-sender buffer slots can be located by binary search
//! ([`Topology::in_edge_index`]). Out-neighbour lists (who a node can send
//! to) are not kept here: [`crate::sampling::OnlineNeighbors`] builds them
//! from the in-adjacency, and a run keeps them there, once.

use std::error::Error;
use std::fmt;

use ta_sim::NodeId;

/// Error building a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InvalidGraphError {
    /// The graph has zero nodes.
    EmptyGraph,
    /// An edge references a node outside `[0, n)`.
    NodeOutOfRange {
        /// Offending node id.
        node: NodeId,
        /// Number of nodes in the graph.
        n: usize,
    },
    /// An edge from a node to itself.
    SelfLoop(NodeId),
    /// The same directed edge appears twice.
    DuplicateEdge {
        /// Source of the duplicated edge.
        from: NodeId,
        /// Target of the duplicated edge.
        to: NodeId,
    },
}

impl fmt::Display for InvalidGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidGraphError::EmptyGraph => write!(f, "graph must have at least one node"),
            InvalidGraphError::NodeOutOfRange { node, n } => {
                write!(f, "edge references {node} but the graph has {n} nodes")
            }
            InvalidGraphError::SelfLoop(node) => write!(f, "self-loop at {node}"),
            InvalidGraphError::DuplicateEdge { from, to } => {
                write!(f, "duplicate edge {from} -> {to}")
            }
        }
    }
}

impl Error for InvalidGraphError {}

/// An immutable directed overlay graph: the in-adjacency in CSR form and
/// the out-degrees, as out-CSR offsets.
///
/// ```
/// use ta_overlay::graph::Topology;
/// use ta_sim::NodeId;
///
/// // 0 -> 1, 0 -> 2, 1 -> 2
/// let topo = Topology::from_edges(3, [(0, 1), (0, 2), (1, 2)])?;
/// assert_eq!(topo.out_degree(NodeId::new(0)), 2);
/// assert_eq!(topo.in_degree(NodeId::new(2)), 2);
/// assert!(topo.has_edge(NodeId::new(1), NodeId::new(2)));
/// # Ok::<(), ta_overlay::graph::InvalidGraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    n: usize,
    /// `out_degree(k) == out_offsets[k + 1] - out_offsets[k]`.
    out_offsets: Vec<u32>,
    in_offsets: Vec<u32>,
    /// Sorted by source id within each destination's slice.
    in_sources: Vec<NodeId>,
}

impl Topology {
    /// Builds a topology from per-node out-neighbour lists.
    ///
    /// # Errors
    ///
    /// Rejects empty graphs, out-of-range targets, self-loops, and duplicate
    /// directed edges.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `u32::MAX` edges.
    pub fn from_out_lists(lists: Vec<Vec<NodeId>>) -> Result<Self, InvalidGraphError> {
        let n = lists.len();
        if n == 0 {
            return Err(InvalidGraphError::EmptyGraph);
        }
        // Single validation pass, O(E) total: `last_seen_from[t]` marks the
        // most recent source that listed `t`, so a repeat within one list is
        // a duplicate edge — no per-node clone-and-sort scratch.
        let mut edge_count = 0usize;
        let mut last_seen_from = vec![usize::MAX; n];
        for (src, targets) in lists.iter().enumerate() {
            let src_id = NodeId::from_index(src);
            for &t in targets {
                if t.index() >= n {
                    return Err(InvalidGraphError::NodeOutOfRange { node: t, n });
                }
                if t == src_id {
                    return Err(InvalidGraphError::SelfLoop(src_id));
                }
                if last_seen_from[t.index()] == src {
                    return Err(InvalidGraphError::DuplicateEdge {
                        from: src_id,
                        to: t,
                    });
                }
                last_seen_from[t.index()] = src;
            }
            edge_count += targets.len();
        }
        assert!(edge_count <= u32::MAX as usize, "more than u32::MAX edges");

        // Out-degrees, then the in-adjacency by counting sort over
        // destinations; visiting sources in increasing order leaves each
        // slice sorted by source.
        let mut out_offsets = Vec::with_capacity(n + 1);
        out_offsets.push(0);
        let mut in_offsets = vec![0u32; n + 1];
        for targets in &lists {
            out_offsets.push(out_offsets[out_offsets.len() - 1] + targets.len() as u32);
            for &t in targets {
                in_offsets[t.index() + 1] += 1;
            }
        }
        for v in 0..n {
            in_offsets[v + 1] += in_offsets[v];
        }
        let mut cursor = in_offsets[..n].to_vec();
        let mut in_sources = vec![NodeId::new(0); edge_count];
        for (src, targets) in lists.iter().enumerate() {
            let src_id = NodeId::from_index(src);
            for &t in targets {
                in_sources[cursor[t.index()] as usize] = src_id;
                cursor[t.index()] += 1;
            }
        }

        Ok(Topology {
            n,
            out_offsets,
            in_offsets,
            in_sources,
        })
    }

    /// Builds a topology from `(from, to)` index pairs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Topology::from_out_lists`].
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, InvalidGraphError>
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        if n == 0 {
            return Err(InvalidGraphError::EmptyGraph);
        }
        let mut lists = vec![Vec::new(); n];
        for (from, to) in edges {
            let from_id = NodeId::new(from);
            if from_id.index() >= n {
                return Err(InvalidGraphError::NodeOutOfRange { node: from_id, n });
            }
            lists[from_id.index()].push(NodeId::new(to));
        }
        Self::from_out_lists(lists)
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.in_sources.len()
    }

    /// Nodes with an edge into `node`, sorted by id.
    #[inline]
    pub fn in_neighbors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.in_sources[self.in_offsets[i] as usize..self.in_offsets[i + 1] as usize]
    }

    /// The out-CSR offsets: `out_degree(k) == offsets[k + 1] - offsets[k]`.
    #[inline]
    pub(crate) fn out_offsets(&self) -> &[u32] {
        &self.out_offsets
    }

    /// The in-CSR: `in_neighbors(k) == &sources[offsets[k]..offsets[k + 1]]`.
    #[inline]
    pub(crate) fn in_csr(&self) -> (&[u32], &[NodeId]) {
        (&self.in_offsets, &self.in_sources)
    }

    /// Out-degree of `node`.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        (self.out_offsets[node.index() + 1] - self.out_offsets[node.index()]) as usize
    }

    /// In-degree of `node`.
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        (self.in_offsets[node.index() + 1] - self.in_offsets[node.index()]) as usize
    }

    /// Whether the directed edge `from -> to` exists.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.in_edge_index(to, from).is_some()
    }

    /// Position of `src` within `in_neighbors(dst)`, if the edge exists.
    ///
    /// Chaotic iteration uses this as the buffer slot for values received
    /// from `src`.
    #[inline]
    pub fn in_edge_index(&self, dst: NodeId, src: NodeId) -> Option<usize> {
        self.in_neighbors(dst).binary_search(&src).ok()
    }

    /// Iterates over all `(from, to)` edges in in-CSR order: by `to`, then
    /// by `from`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n).flat_map(move |dst| {
            let dst_id = NodeId::from_index(dst);
            self.in_neighbors(dst_id).iter().map(move |&s| (s, dst_id))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Topology {
        // 0 -> {1,2}, 1 -> 3, 2 -> 3, 3 -> 0
        Topology::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]).unwrap()
    }

    #[test]
    fn degrees_and_neighbors() {
        let t = diamond();
        assert_eq!(t.n(), 4);
        assert_eq!(t.edge_count(), 5);
        assert_eq!(t.out_degree(NodeId::new(0)), 2);
        assert_eq!(t.in_degree(NodeId::new(3)), 2);
        assert_eq!(t.out_degree(NodeId::new(3)), 1);
        assert_eq!(
            t.in_neighbors(NodeId::new(3)),
            &[NodeId::new(1), NodeId::new(2)]
        );
        assert_eq!(t.in_neighbors(NodeId::new(0)), &[NodeId::new(3)]);
    }

    #[test]
    fn in_neighbors_are_sorted() {
        // Insert edges in scrambled order; in-lists must still be sorted.
        let t = Topology::from_edges(5, [(4, 0), (2, 0), (3, 0), (1, 0)]).unwrap();
        let sources: Vec<u32> = t
            .in_neighbors(NodeId::new(0))
            .iter()
            .map(|n| n.raw())
            .collect();
        assert_eq!(sources, vec![1, 2, 3, 4]);
    }

    #[test]
    fn in_edge_index_finds_buffer_slots() {
        let t = diamond();
        assert_eq!(t.in_edge_index(NodeId::new(3), NodeId::new(1)), Some(0));
        assert_eq!(t.in_edge_index(NodeId::new(3), NodeId::new(2)), Some(1));
        assert_eq!(t.in_edge_index(NodeId::new(3), NodeId::new(0)), None);
    }

    #[test]
    fn has_edge_matches_edge_list() {
        let t = diamond();
        assert!(t.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(!t.has_edge(NodeId::new(1), NodeId::new(0)));
    }

    #[test]
    fn edges_iterator_roundtrips() {
        let t = diamond();
        let edges: Vec<(u32, u32)> = t.edges().map(|(a, b)| (a.raw(), b.raw())).collect();
        assert_eq!(edges, vec![(3, 0), (0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn rejects_empty_graph() {
        assert_eq!(
            Topology::from_out_lists(vec![]).unwrap_err(),
            InvalidGraphError::EmptyGraph
        );
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Topology::from_edges(2, [(0, 0)]).unwrap_err(),
            InvalidGraphError::SelfLoop(NodeId::new(0))
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(matches!(
            Topology::from_edges(2, [(0, 5)]).unwrap_err(),
            InvalidGraphError::NodeOutOfRange { .. }
        ));
        assert!(matches!(
            Topology::from_edges(2, [(5, 0)]).unwrap_err(),
            InvalidGraphError::NodeOutOfRange { .. }
        ));
    }

    #[test]
    fn rejects_duplicate_edge() {
        assert!(matches!(
            Topology::from_edges(3, [(0, 1), (0, 1)]).unwrap_err(),
            InvalidGraphError::DuplicateEdge { .. }
        ));
    }

    #[test]
    fn isolated_nodes_are_allowed() {
        let t = Topology::from_edges(3, [(0, 1)]).unwrap();
        assert_eq!(t.out_degree(NodeId::new(2)), 0);
        assert_eq!(t.in_degree(NodeId::new(2)), 0);
    }

    #[test]
    fn error_display() {
        let e = InvalidGraphError::SelfLoop(NodeId::new(3));
        assert!(e.to_string().contains("self-loop"));
    }
}
