//! Node identifiers.

use std::fmt;

/// Identifier of a simulated node: a dense index in `[0, n)`.
///
/// Newtype over `u32` ([C-NEWTYPE]) so node ids cannot be confused with
/// counts, token balances, or other integers. The dense representation lets
/// all per-node state live in flat vectors indexed by [`NodeId::index`].
///
/// ```
/// use ta_sim::NodeId;
///
/// let node = NodeId::new(7);
/// assert_eq!(node.index(), 7);
/// assert_eq!(node.to_string(), "n7");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its dense index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Creates a node id from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }

    /// The dense index of this node, for vector addressing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({})", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(value: u32) -> Self {
        NodeId(value)
    }
}

impl From<NodeId> for u32 {
    fn from(value: NodeId) -> Self {
        value.0
    }
}

/// Iterator over all node ids `0..n`.
///
/// ```
/// use ta_sim::ids::node_ids;
///
/// let ids: Vec<_> = node_ids(3).map(|n| n.index()).collect();
/// assert_eq!(ids, vec![0, 1, 2]);
/// ```
pub fn node_ids(n: usize) -> impl Iterator<Item = NodeId> + Clone {
    (0..u32::try_from(n).expect("network size exceeds u32::MAX")).map(NodeId)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.raw(), 42);
        assert_eq!(u32::from(id), 42);
        assert_eq!(NodeId::from(42u32), id);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
    }

    #[test]
    fn node_ids_covers_range() {
        assert_eq!(node_ids(0).count(), 0);
        assert_eq!(node_ids(5).count(), 5);
        assert_eq!(node_ids(5).last(), Some(NodeId::new(4)));
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn oversized_index_panics() {
        let _ = NodeId::from_index(usize::MAX);
    }
}
