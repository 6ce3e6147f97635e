//! Overlay graph generators used in the paper's evaluation.
//!
//! * [`k_out_random`] — the fixed 20-out network of Section 4.1: every node
//!   draws `k` distinct out-neighbours independently and uniformly at
//!   random. "Perhaps the simplest practical approximation of uniform peer
//!   sampling."
//! * [`watts_strogatz`] — the small-world overlay of Section 4.1.3 used for
//!   chaotic iteration: a ring where every node is connected to its closest
//!   `k` neighbours, with every directed link rewired to a random target
//!   with probability `p` (paper: `k = 4`, `p = 0.01`).
//! * [`ring`] and [`complete`] — degenerate topologies for tests.

use std::error::Error;
use std::fmt;

use ta_sim::rng::Xoshiro256pp;
use ta_sim::NodeId;

use crate::analysis::is_strongly_connected;
use crate::graph::{InvalidGraphError, Topology};

/// Error from a graph generator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GenerateError {
    /// Parameters are unsatisfiable (e.g. more distinct neighbours than
    /// other nodes).
    BadParameters(String),
    /// The generated edge set violated a [`Topology`] invariant (internal
    /// bug if it ever occurs).
    Graph(InvalidGraphError),
    /// No strongly connected instance found within the attempt budget.
    NotStronglyConnected {
        /// Number of attempts made.
        attempts: usize,
    },
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::BadParameters(msg) => write!(f, "bad generator parameters: {msg}"),
            GenerateError::Graph(e) => write!(f, "generated graph is invalid: {e}"),
            GenerateError::NotStronglyConnected { attempts } => write!(
                f,
                "no strongly connected instance found in {attempts} attempts"
            ),
        }
    }
}

impl Error for GenerateError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GenerateError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<InvalidGraphError> for GenerateError {
    fn from(e: InvalidGraphError) -> Self {
        GenerateError::Graph(e)
    }
}

/// Draws `k` distinct values in `[0, n)` excluding `exclude`.
fn distinct_targets(n: usize, k: usize, exclude: usize, rng: &mut Xoshiro256pp) -> Vec<NodeId> {
    debug_assert!(k < n);
    let mut picked: Vec<NodeId> = Vec::with_capacity(k);
    while picked.len() < k {
        let candidate = rng.below(n as u64) as usize;
        if candidate == exclude {
            continue;
        }
        let id = NodeId::from_index(candidate);
        if !picked.contains(&id) {
            picked.push(id);
        }
    }
    picked
}

/// Generates the fixed random `k`-out overlay of Section 4.1.
///
/// Each node independently draws `k` distinct out-neighbours, uniformly at
/// random, excluding itself. The paper uses `k = 20`
/// ([`ta_sim::paper::OUT_DEGREE`]), which "allows for a robust connected
/// network" at practical cost.
///
/// # Errors
///
/// Returns [`GenerateError::BadParameters`] when `k >= n` or `n == 0`.
pub fn k_out_random(n: usize, k: usize, rng: &mut Xoshiro256pp) -> Result<Topology, GenerateError> {
    if n == 0 {
        return Err(GenerateError::BadParameters("n must be positive".into()));
    }
    if k >= n {
        return Err(GenerateError::BadParameters(format!(
            "k = {k} distinct neighbours impossible with n = {n} nodes"
        )));
    }
    let mut lists = Vec::with_capacity(n);
    for src in 0..n {
        lists.push(distinct_targets(n, k, src, rng));
    }
    Ok(Topology::from_out_lists(lists)?)
}

/// Generates the Watts–Strogatz small-world digraph of Section 4.1.3.
///
/// Starts from a ring where each node has directed links to its `k` closest
/// neighbours (`k/2` on each side; `k` must be even and positive), then
/// rewires every directed link with probability `rewire_p` to a uniformly
/// random target, avoiding self-loops and duplicate edges. The paper uses
/// `k = 4`, `rewire_p = 0.01`, `n = 5000`.
///
/// # Errors
///
/// Returns [`GenerateError::BadParameters`] when `k` is zero or odd, when
/// `k >= n`, or when `rewire_p` is outside `[0, 1]`.
pub fn watts_strogatz(
    n: usize,
    k: usize,
    rewire_p: f64,
    rng: &mut Xoshiro256pp,
) -> Result<Topology, GenerateError> {
    if n == 0 {
        return Err(GenerateError::BadParameters("n must be positive".into()));
    }
    if k == 0 || !k.is_multiple_of(2) {
        return Err(GenerateError::BadParameters(format!(
            "ring degree k = {k} must be positive and even"
        )));
    }
    if k >= n {
        return Err(GenerateError::BadParameters(format!(
            "ring degree k = {k} requires more than {n} nodes"
        )));
    }
    if !(0.0..=1.0).contains(&rewire_p) || rewire_p.is_nan() {
        return Err(GenerateError::BadParameters(format!(
            "rewire probability {rewire_p} outside [0, 1]"
        )));
    }
    let half = k / 2;
    let mut lists: Vec<Vec<NodeId>> = Vec::with_capacity(n);
    for src in 0..n {
        let mut targets = Vec::with_capacity(k);
        for d in 1..=half {
            targets.push(NodeId::from_index((src + d) % n));
            targets.push(NodeId::from_index((src + n - d) % n));
        }
        lists.push(targets);
    }
    // Rewire each directed link independently with probability `rewire_p`.
    #[allow(clippy::needless_range_loop)] // `lists[src]` is mutated and read
    for src in 0..n {
        let src_id = NodeId::from_index(src);
        for slot in 0..k {
            if !rng.chance(rewire_p) {
                continue;
            }
            // Resample until the new target is neither self nor duplicate.
            loop {
                let candidate = rng.below(n as u64) as usize;
                let id = NodeId::from_index(candidate);
                if id == src_id {
                    continue;
                }
                if lists[src]
                    .iter()
                    .enumerate()
                    .any(|(i, &t)| i != slot && t == id)
                {
                    continue;
                }
                lists[src][slot] = id;
                break;
            }
        }
    }
    Ok(Topology::from_out_lists(lists)?)
}

/// Repeatedly generates Watts–Strogatz instances until one is strongly
/// connected (required for the irreducibility assumption of chaotic
/// iteration), deriving a fresh RNG stream per attempt.
///
/// # Errors
///
/// Returns [`GenerateError::NotStronglyConnected`] after `max_attempts`
/// failures, or parameter errors from [`watts_strogatz`].
pub fn watts_strogatz_strongly_connected(
    n: usize,
    k: usize,
    rewire_p: f64,
    seed: u64,
    max_attempts: usize,
) -> Result<Topology, GenerateError> {
    for attempt in 0..max_attempts {
        let mut rng = Xoshiro256pp::stream(seed, 0x7541 + attempt as u64);
        let topo = watts_strogatz(n, k, rewire_p, &mut rng)?;
        if is_strongly_connected(&topo) {
            return Ok(topo);
        }
    }
    Err(GenerateError::NotStronglyConnected {
        attempts: max_attempts,
    })
}

/// A directed ring `0 -> 1 -> ... -> n-1 -> 0`.
///
/// # Errors
///
/// Returns [`GenerateError::BadParameters`] when `n < 2`.
pub fn ring(n: usize) -> Result<Topology, GenerateError> {
    if n < 2 {
        return Err(GenerateError::BadParameters(
            "ring needs at least 2 nodes".into(),
        ));
    }
    let lists = (0..n)
        .map(|src| vec![NodeId::from_index((src + 1) % n)])
        .collect();
    Ok(Topology::from_out_lists(lists)?)
}

/// The complete digraph on `n` nodes (no self-loops).
///
/// # Errors
///
/// Returns [`GenerateError::BadParameters`] when `n < 2`.
pub fn complete(n: usize) -> Result<Topology, GenerateError> {
    if n < 2 {
        return Err(GenerateError::BadParameters(
            "complete graph needs at least 2 nodes".into(),
        ));
    }
    let lists = (0..n)
        .map(|src| {
            (0..n)
                .filter(|&t| t != src)
                .map(NodeId::from_index)
                .collect()
        })
        .collect();
    Ok(Topology::from_out_lists(lists)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn k_out_has_exact_out_degree() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let t = k_out_random(200, 20, &mut rng).unwrap();
        for i in 0..200 {
            let node = NodeId::from_index(i);
            assert_eq!(t.out_degree(node), 20);
            // No self-loops (Topology validates, but check).
            assert!(!t.has_edge(node, node));
        }
        assert_eq!(t.edge_count(), 200 * 20);
    }

    #[test]
    fn k_out_rejects_bad_parameters() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        assert!(matches!(
            k_out_random(5, 5, &mut rng),
            Err(GenerateError::BadParameters(_))
        ));
        assert!(matches!(
            k_out_random(0, 0, &mut rng),
            Err(GenerateError::BadParameters(_))
        ));
    }

    #[test]
    fn k_out_is_deterministic_per_seed() {
        let t1 = k_out_random(50, 5, &mut Xoshiro256pp::seed_from_u64(9)).unwrap();
        let t2 = k_out_random(50, 5, &mut Xoshiro256pp::seed_from_u64(9)).unwrap();
        let t3 = k_out_random(50, 5, &mut Xoshiro256pp::seed_from_u64(10)).unwrap();
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
    }

    #[test]
    fn watts_strogatz_without_rewiring_is_the_ring_lattice() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let t = watts_strogatz(10, 4, 0.0, &mut rng).unwrap();
        for i in 0..10u32 {
            let node = NodeId::new(i);
            assert_eq!(t.out_degree(node), 4);
            let mut expected: Vec<NodeId> =
                [(i + 1) % 10, (i + 9) % 10, (i + 2) % 10, (i + 8) % 10]
                    .iter()
                    .map(|&x| NodeId::new(x))
                    .collect();
            expected.sort_unstable();
            let actual: Vec<NodeId> = t.edges().filter(|e| e.0 == node).map(|e| e.1).collect();
            assert_eq!(actual, expected);
        }
    }

    #[test]
    fn watts_strogatz_rewiring_changes_some_links() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let n = 1000;
        let t = watts_strogatz(n, 4, 0.05, &mut rng).unwrap();
        // Count non-lattice edges; expect about 5% of 4000 = 200.
        let mut rewired = 0;
        for (from, to) in t.edges() {
            let d = (to.index() + n - from.index()) % n;
            if !(d == 1 || d == 2 || d == n - 1 || d == n - 2) {
                rewired += 1;
            }
        }
        assert!(
            (100..350).contains(&rewired),
            "rewired = {rewired}, expected about 200"
        );
        // Out-degree is preserved by rewiring.
        for i in 0..n {
            assert_eq!(t.out_degree(NodeId::from_index(i)), 4);
        }
    }

    #[test]
    fn watts_strogatz_rejects_bad_parameters() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        assert!(watts_strogatz(10, 3, 0.01, &mut rng).is_err()); // odd k
        assert!(watts_strogatz(10, 0, 0.01, &mut rng).is_err());
        assert!(watts_strogatz(4, 4, 0.01, &mut rng).is_err()); // k >= n
        assert!(watts_strogatz(10, 4, 1.5, &mut rng).is_err());
        assert!(watts_strogatz(10, 4, f64::NAN, &mut rng).is_err());
    }

    #[test]
    fn strongly_connected_ws_is_strongly_connected() {
        let t = watts_strogatz_strongly_connected(500, 4, 0.01, 42, 20).unwrap();
        assert!(is_strongly_connected(&t));
    }

    #[test]
    fn ring_and_complete() {
        let r = ring(5).unwrap();
        assert_eq!(r.edge_count(), 5);
        assert!(r.has_edge(NodeId::new(4), NodeId::new(0)));
        let c = complete(4).unwrap();
        assert_eq!(c.edge_count(), 12);
        assert!(ring(1).is_err());
        assert!(complete(1).is_err());
    }
}
