//! Spectral tools for chaotic asynchronous power iteration (Section 2.4).
//!
//! The paper computes the dominant eigenvector of a "weighted neighborhood
//! matrix" with unit spectral radius. We realize this as the
//! **column-stochastic normalization** of the overlay digraph:
//! `A[i][k] = 1 / outdeg(k)` for every link `k -> i`. The matrix is
//! non-negative with spectral radius 1, and is irreducible exactly when the
//! graph is strongly connected — the assumptions of Lubachevsky & Mitra.
//!
//! [`dominant_eigenvector`] provides the centralized reference solution that
//! the decentralized protocol's convergence metric (angle to the true
//! eigenvector) is measured against.

use std::error::Error;
use std::fmt;

use ta_sim::NodeId;

use crate::graph::Topology;

/// Error constructing a [`ColumnStochastic`] view.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NotStochasticError {
    /// A node with out-degree zero has no column weights.
    ZeroOutDegree(NodeId),
}

impl fmt::Display for NotStochasticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NotStochasticError::ZeroOutDegree(node) => {
                write!(f, "{node} has out-degree 0; column cannot be stochastic")
            }
        }
    }
}

impl Error for NotStochasticError {}

/// The column-stochastic matrix of an overlay graph.
///
/// A zero-copy view: weights are derived from out-degrees on the fly.
#[derive(Debug, Clone, Copy)]
pub struct ColumnStochastic<'a> {
    topo: &'a Topology,
}

impl<'a> ColumnStochastic<'a> {
    /// Wraps `topo`, checking every column has at least one entry.
    ///
    /// # Errors
    ///
    /// Returns [`NotStochasticError::ZeroOutDegree`] if some node has no
    /// out-edges.
    pub fn new(topo: &'a Topology) -> Result<Self, NotStochasticError> {
        for i in 0..topo.n() {
            let node = NodeId::from_index(i);
            if topo.out_degree(node) == 0 {
                return Err(NotStochasticError::ZeroOutDegree(node));
            }
        }
        Ok(ColumnStochastic { topo })
    }

    /// The underlying topology.
    pub fn topology(&self) -> &'a Topology {
        self.topo
    }

    /// The matrix entry `A[dst][src]`: `1/outdeg(src)` if the edge
    /// `src -> dst` exists, else 0.
    pub fn weight(&self, dst: NodeId, src: NodeId) -> f64 {
        if self.topo.has_edge(src, dst) {
            1.0 / self.topo.out_degree(src) as f64
        } else {
            0.0
        }
    }

    /// Sparse matrix–vector product `out = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` have length ≠ `n`.
    pub fn multiply(&self, x: &[f64], out: &mut [f64]) {
        let n = self.topo.n();
        assert_eq!(x.len(), n, "input length mismatch");
        assert_eq!(out.len(), n, "output length mismatch");
        for (i, slot) in out.iter_mut().enumerate() {
            let dst = NodeId::from_index(i);
            let mut acc = 0.0;
            for &src in self.topo.in_neighbors(dst) {
                acc += x[src.index()] / self.topo.out_degree(src) as f64;
            }
            *slot = acc;
        }
    }
}

/// L2 norm of a vector.
pub fn l2_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Angle in radians between two vectors (0 = parallel), computed as
/// `acos(dot / (|a| |b|))`.
///
/// Degenerate inputs (zero vectors) yield `PI/2`, the "no information"
/// angle, so convergence metrics start pessimistic rather than crash.
///
/// The angle has a floor: the cosine of any angle below `2^-26.5`
/// (about 1.05e-8 rad) rounds to 1.0, so such angles read exactly 0, and
/// the smallest non-zero reading is `acos` of the largest double below
/// 1.0, about 1.49e-8 rad.
pub fn angle_between(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    angle_from(dot, l2_norm(a), l2_norm(b))
}

/// The angle whose dot product is `dot` between vectors of norms `na` and
/// `nb`, with [`angle_between`]'s zero-vector convention.
fn angle_from(dot: f64, na: f64, nb: f64) -> f64 {
    if na == 0.0 || nb == 0.0 {
        return std::f64::consts::FRAC_PI_2;
    }
    (dot / (na * nb)).clamp(-1.0, 1.0).acos()
}

/// Iteration cap of the reference solve that chaotic iteration is scored
/// against.
pub const REFERENCE_MAX_ITERS: usize = 200_000;

/// Stopping angle of the reference solve. Any value in `(0, 1.49e-8]`
/// means the same test, "the angle reads 0" (see [`angle_between`]).
pub const REFERENCE_TOL: f64 = 1e-13;

/// Computes the dominant eigenvector of the column-stochastic matrix of
/// `topo` by centralized power iteration.
///
/// Iterates until the angle between successive normalized iterates falls
/// below `tol` or `max_iters` is reached, whichever comes first; returns the
/// L2-normalized final iterate. For a strongly connected aperiodic graph
/// this converges to the unique dominant eigenvector.
///
/// The angle is [`angle_between`]'s, which reads 0 below about 1.05e-8 rad
/// and is never below 1.49e-8 otherwise; so any `tol` at or below 1.49e-8
/// stops exactly when successive iterates read parallel.
///
/// # Errors
///
/// Returns [`NotStochasticError`] if some node has out-degree zero.
pub fn dominant_eigenvector(
    topo: &Topology,
    max_iters: usize,
    tol: f64,
) -> Result<Vec<f64>, NotStochasticError> {
    power_iteration(topo, max_iters, tol).map(|(v, _)| v)
}

/// [`dominant_eigenvector`] and the number of matrix products it took.
///
/// Bitwise the plain loop (`multiply`, `l2_norm`, divide by the norm,
/// `angle_between`; the test oracle keeps it), restructured into two
/// passes per iteration that do the same float operations in the same
/// order:
///
/// * the normalising pass divides the product by its norm, and also
///   stores each node's outgoing weight `w[k] = v[k] / outdeg(k)`, so the
///   product divides once per node instead of once per edge;
/// * the fused pass gathers the next product `Σ w[src]` over each in-CSR
///   slice and accumulates its `Σ acc²` side by side with the current
///   iterate's `Σ v²` and its dot product with the previous one; the
///   three serial float reductions overlap instead of running one after
///   another. The next product is speculative: it is dropped if the angle
///   stops the loop.
///
/// The previous iterate's norm is carried over from the pass that summed
/// its squares. Three n-length vectors: the iterate, the product (which
/// the fused pass writes over the previous iterate) and the weights.
fn power_iteration(
    topo: &Topology,
    max_iters: usize,
    tol: f64,
) -> Result<(Vec<f64>, usize), NotStochasticError> {
    ColumnStochastic::new(topo)?;
    let out_offsets = topo.out_offsets();
    let (in_offsets, in_sources) = topo.in_csr();
    let n = topo.n();
    let mut x = vec![1.0; n];
    let mut weights = vec![0.0; n];
    let mut product = vec![0.0; n];
    // x_0 = 1 needs no normalising: dividing by 1.0 leaves it as it is.
    normalise(&mut x, 1.0, out_offsets, &mut weights);
    let mut sums = fused_pass(in_offsets, in_sources, &weights, &x, &mut product);
    let mut norm_x = sums.vv.sqrt();
    let mut iters = 0;
    while iters < max_iters {
        iters += 1;
        let norm = sums.sq.sqrt();
        if norm == 0.0 {
            break; // all mass vanished (cannot happen when stochastic)
        }
        normalise(&mut product, norm, out_offsets, &mut weights);
        sums = fused_pass(in_offsets, in_sources, &weights, &product, &mut x);
        std::mem::swap(&mut x, &mut product);
        let norm_next = sums.vv.sqrt();
        let delta = angle_from(sums.dot, norm_x, norm_next);
        norm_x = norm_next;
        if delta < tol {
            break;
        }
    }
    if norm_x > 0.0 {
        for v in x.iter_mut() {
            *v /= norm_x;
        }
    }
    Ok((x, iters))
}

/// `v /= norm` in place, and `weights[k] = v[k] / outdeg(k)`.
fn normalise(v: &mut [f64], norm: f64, out_offsets: &[u32], weights: &mut [f64]) {
    for ((vk, wk), bounds) in v.iter_mut().zip(weights).zip(out_offsets.windows(2)) {
        *vk /= norm;
        *wk = *vk / f64::from(bounds[1] - bounds[0]);
    }
}

/// The three reductions of one [`fused_pass`].
struct Sums {
    /// `Σ acc²` over the gathered product.
    sq: f64,
    /// `Σ v²` over the current iterate.
    vv: f64,
    /// `Σ prev · v`.
    dot: f64,
}

/// Gathers `acc[i] = Σ weights[src]` over `i`'s in-CSR slice into
/// `prev_then_acc`, after reading `prev_then_acc[i]` as the previous
/// iterate for the dot product with `v`.
fn fused_pass(
    in_offsets: &[u32],
    in_sources: &[NodeId],
    weights: &[f64],
    v: &[f64],
    prev_then_acc: &mut [f64],
) -> Sums {
    let mut sums = Sums {
        sq: 0.0,
        vv: 0.0,
        dot: 0.0,
    };
    for ((bounds, &vi), slot) in in_offsets.windows(2).zip(v).zip(prev_then_acc) {
        let mut acc = 0.0;
        for &src in &in_sources[bounds[0] as usize..bounds[1] as usize] {
            acc += weights[src.index()];
        }
        sums.sq += acc * acc;
        sums.vv += vi * vi;
        sums.dot += *slot * vi;
        *slot = acc;
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, k_out_random, ring, watts_strogatz_strongly_connected};
    use crate::graph::Topology;
    use ta_sim::rng::{SplitMix64, Xoshiro256pp};

    /// The power iteration as it was written before the fused kernel, kept
    /// verbatim as its bit-identity oracle; it also counts its matrix
    /// products.
    fn oracle(topo: &Topology, max_iters: usize, tol: f64) -> (Vec<f64>, usize) {
        let a = ColumnStochastic::new(topo).unwrap();
        let n = topo.n();
        let mut x = vec![1.0; n];
        let mut next = vec![0.0; n];
        let mut iters = 0;
        for _ in 0..max_iters {
            iters += 1;
            a.multiply(&x, &mut next);
            let norm = l2_norm(&next);
            if norm == 0.0 {
                break; // all mass vanished (cannot happen when stochastic)
            }
            for v in next.iter_mut() {
                *v /= norm;
            }
            let delta = angle_between(&x, &next);
            std::mem::swap(&mut x, &mut next);
            if delta < tol {
                break;
            }
        }
        let norm = l2_norm(&x);
        if norm > 0.0 {
            for v in x.iter_mut() {
                *v /= norm;
            }
        }
        (x, iters)
    }

    /// Asserts the kernel returns the oracle's bits and iteration count;
    /// returns the count.
    fn assert_bit_identical(topo: &Topology, max_iters: usize, tol: f64) -> usize {
        let (want, want_iters) = oracle(topo, max_iters, tol);
        let (got, got_iters) = power_iteration(topo, max_iters, tol).unwrap();
        assert_eq!(got_iters, want_iters, "iteration count");
        assert_eq!(got.len(), want.len());
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "component {k}: {g} vs {w}");
        }
        got_iters
    }

    fn reference_bits(topo: &Topology) -> usize {
        assert_bit_identical(topo, REFERENCE_MAX_ITERS, REFERENCE_TOL)
    }

    #[test]
    fn kernel_matches_oracle_on_small_world() {
        // Every out-degree is 4: the power-of-two weights.
        let t = watts_strogatz_strongly_connected(300, 4, 0.01, 11, 50).unwrap();
        assert!((0..300).all(|i| t.out_degree(NodeId::from_index(i)) == 4));
        assert!(reference_bits(&t) > 100);
    }

    #[test]
    fn kernel_matches_oracle_on_k_out() {
        // Out-degree 20: every weight is a true division.
        let mut rng = Xoshiro256pp::stream(5, 0x70);
        let t = k_out_random(400, 20, &mut rng).unwrap();
        reference_bits(&t);
    }

    #[test]
    fn kernel_matches_oracle_on_complete_graph() {
        reference_bits(&complete(8).unwrap());
    }

    #[test]
    fn kernel_matches_oracle_on_mixed_degrees() {
        // Node i links to its next 1 + i % 7 successors: out-degrees 1..=7
        // side by side, strongly connected and aperiodic.
        let n = 50u32;
        let edges = (0..n).flat_map(|i| (1..=1 + i % 7).map(move |j| (i, (i + j) % n)));
        let t = Topology::from_edges(n as usize, edges).unwrap();
        reference_bits(&t);
    }

    #[test]
    fn kernel_matches_oracle_at_the_iteration_cap() {
        // The directed ring is periodic, but x_0 = 1 is already its fixed
        // point: one product, and the angle reads 0.
        assert_eq!(
            assert_bit_identical(&ring(6).unwrap(), 1_000, REFERENCE_TOL),
            1
        );
        // The star 0 <-> {1, 2} is periodic with x_0 off its fixed point:
        // the iterate swings between two directions for ever, so both loops
        // leave through `max_iters`.
        let star = Topology::from_edges(3, [(0, 1), (0, 2), (1, 0), (2, 0)]).unwrap();
        assert_eq!(assert_bit_identical(&star, 1_000, REFERENCE_TOL), 1_000);
        // A cap that cuts a converging solve short, and a cap of zero.
        let ws = watts_strogatz_strongly_connected(300, 4, 0.01, 11, 50).unwrap();
        assert_eq!(assert_bit_identical(&ws, 37, REFERENCE_TOL), 37);
        assert_eq!(assert_bit_identical(&ws, 0, REFERENCE_TOL), 0);
    }

    /// The `sim_paper_grid` chaotic spec: Watts–Strogatz n = 2000, k = 4,
    /// p = 0.01, with the topology seed the experiment runner derives from
    /// the master seed. Too slow for a debug build; run it with
    /// `cargo test --release -p ta-overlay -- --include-ignored`.
    #[test]
    #[ignore = "tens of seconds unoptimised; run with --release --include-ignored"]
    fn kernel_matches_oracle_on_the_benchmark_grid() {
        for (seed, iters) in [(17u64, 18_143), (29, 12_795)] {
            let topo_seed = SplitMix64::new(seed ^ 0x7069_7065).next_u64();
            let t = watts_strogatz_strongly_connected(2000, 4, 0.01, topo_seed, 50).unwrap();
            assert_eq!(reference_bits(&t), iters, "seed {seed}");
        }
    }

    #[test]
    fn weights_are_inverse_out_degree() {
        // 0 -> {1, 2}: column 0 has two entries of 1/2.
        let t = Topology::from_edges(3, [(0, 1), (0, 2), (1, 0), (2, 0)]).unwrap();
        let a = ColumnStochastic::new(&t).unwrap();
        assert!((a.weight(NodeId::new(1), NodeId::new(0)) - 0.5).abs() < 1e-12);
        assert!((a.weight(NodeId::new(0), NodeId::new(1)) - 1.0).abs() < 1e-12);
        assert_eq!(a.weight(NodeId::new(2), NodeId::new(1)), 0.0);
    }

    #[test]
    fn columns_sum_to_one_under_multiply() {
        // Multiplying the all-ones vector by A^T ... instead check mass
        // conservation: sum(Ax) == sum(x) for stochastic columns.
        let t = complete(6).unwrap();
        let a = ColumnStochastic::new(&t).unwrap();
        let x: Vec<f64> = (0..6).map(|i| (i + 1) as f64).collect();
        let mut out = vec![0.0; 6];
        a.multiply(&x, &mut out);
        let sum_in: f64 = x.iter().sum();
        let sum_out: f64 = out.iter().sum();
        assert!((sum_in - sum_out).abs() < 1e-9);
    }

    #[test]
    fn rejects_zero_out_degree() {
        let t = Topology::from_edges(2, [(0, 1)]).unwrap();
        assert_eq!(
            ColumnStochastic::new(&t).unwrap_err(),
            NotStochasticError::ZeroOutDegree(NodeId::new(1))
        );
    }

    #[test]
    fn eigenvector_of_complete_graph_is_uniform() {
        let t = complete(8).unwrap();
        let v = dominant_eigenvector(&t, 1000, 1e-12).unwrap();
        let expected = 1.0 / (8f64).sqrt();
        for &x in &v {
            assert!((x - expected).abs() < 1e-9, "component {x}");
        }
    }

    #[test]
    fn eigenvector_of_directed_ring_is_uniform() {
        // The directed ring's column-stochastic matrix is a permutation:
        // periodic, so plain power iteration oscillates. The uniform vector
        // is still the fixed point; verify A v = v instead of iterating.
        let t = ring(6).unwrap();
        let a = ColumnStochastic::new(&t).unwrap();
        let v = vec![1.0; 6];
        let mut out = vec![0.0; 6];
        a.multiply(&v, &mut out);
        assert!(angle_between(&v, &out) < 1e-12);
    }

    #[test]
    fn eigenvector_satisfies_fixed_point_on_small_world() {
        let t = watts_strogatz_strongly_connected(300, 4, 0.05, 7, 20).unwrap();
        let v = dominant_eigenvector(&t, 20_000, 1e-13).unwrap();
        let a = ColumnStochastic::new(&t).unwrap();
        let mut av = vec![0.0; 300];
        a.multiply(&v, &mut av);
        assert!(
            angle_between(&v, &av) < 1e-6,
            "angle = {}",
            angle_between(&v, &av)
        );
        // Unit spectral radius: the norm is preserved at the fixed point.
        assert!((l2_norm(&av) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn angle_between_basics() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        assert!((angle_between(&a, &b) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!(angle_between(&a, &a) < 1e-12);
        let c = [-1.0, 0.0];
        assert!((angle_between(&a, &c) - std::f64::consts::PI).abs() < 1e-12);
        // Zero vector convention.
        assert!((angle_between(&a, &[0.0, 0.0]) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn angle_between_reads_zero_below_its_floor() {
        let pair = |theta: f64| angle_between(&[1.0, 0.0], &[theta.cos(), theta.sin()]);
        // cos(1e-9) rounds to 1.0.
        assert_eq!(pair(1e-9), 0.0);
        // cos(2e-8) rounds to 1 - 2^-52, two steps below 1.0, whose acos
        // is 2^-25.5 ≈ 2.1e-8.
        let a = pair(2e-8);
        assert!((a - 2.1e-8).abs() < 0.1 * 2.1e-8, "angle = {a}");
        // The smallest non-zero reading: acos of the largest double below 1.
        assert!(((1.0 - f64::EPSILON / 2.0).acos() - 1.49e-8).abs() < 1e-10);
    }

    #[test]
    fn l2_norm_basics() {
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(l2_norm(&[]), 0.0);
    }
}
