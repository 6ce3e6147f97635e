//! Property tests over the overlay generators and the Topology invariants.

use proptest::prelude::*;
use rand::SeedableRng;
use ta_overlay::generators::{k_out_random, watts_strogatz};
use ta_overlay::graph::Topology;
use ta_overlay::sampling::OnlineNeighbors;
use ta_sim::rng::Xoshiro256pp;
use ta_sim::NodeId;

fn check_basic_invariants(topo: &Topology) {
    let n = topo.n();
    // An all-online mirror holds the whole out-lists.
    let out = OnlineNeighbors::new(topo, &vec![true; n]);
    let mut in_total = 0;
    let mut out_total = 0;
    for i in 0..n {
        let node = NodeId::from_index(i);
        let outs = out.online_neighbors(node);
        assert_eq!(outs.len(), topo.out_degree(node));
        out_total += outs.len();
        in_total += topo.in_degree(node);
        // No self-loops, no duplicate targets.
        assert!(!outs.contains(&node));
        let mut sorted = outs.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), outs.len());
        // In-neighbour lists are sorted (binary-search contract).
        let ins = topo.in_neighbors(node);
        assert!(ins.windows(2).all(|w| w[0] < w[1]));
        // Every in-edge is mirrored by the out-edge.
        for &src in ins {
            assert!(out.online_neighbors(src).contains(&node));
            assert!(topo.has_edge(src, node));
            let slot = topo.in_edge_index(node, src).unwrap();
            assert_eq!(ins[slot], src);
        }
    }
    assert_eq!(in_total, out_total);
    assert_eq!(out_total, topo.edge_count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn k_out_invariants(n in 5usize..200, seed in 0u64..1000) {
        let k = (n - 1).min(1 + (seed as usize % 20));
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let topo = k_out_random(n, k, &mut rng).unwrap();
        check_basic_invariants(&topo);
        for i in 0..n {
            prop_assert_eq!(topo.out_degree(NodeId::from_index(i)), k);
        }
    }

    #[test]
    fn watts_strogatz_invariants(n in 6usize..200, seed in 0u64..1000, p in 0.0f64..0.5) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let topo = watts_strogatz(n, 4, p, &mut rng).unwrap();
        check_basic_invariants(&topo);
        // Rewiring preserves out-degrees exactly.
        for i in 0..n {
            prop_assert_eq!(topo.out_degree(NodeId::from_index(i)), 4);
        }
        prop_assert_eq!(topo.edge_count(), n * 4);
    }

    #[test]
    fn column_stochastic_mass_conservation(n in 5usize..80, seed in 0u64..100) {
        use ta_overlay::spectral::ColumnStochastic;
        let k = 3.min(n - 1);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let topo = k_out_random(n, k, &mut rng).unwrap();
        let a = ColumnStochastic::new(&topo).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64 + 0.5).collect();
        let mut out = vec![0.0; n];
        a.multiply(&x, &mut out);
        let sum_in: f64 = x.iter().sum();
        let sum_out: f64 = out.iter().sum();
        prop_assert!((sum_in - sum_out).abs() < 1e-6 * sum_in.abs());
    }
}
