//! Property-based tests over the core invariants: the strategy contract
//! across the whole parameter grid, the scheduler equivalence, account
//! arithmetic, and probabilistic rounding.

use proptest::prelude::*;
use rand::SeedableRng;
use ta::core::rounding::rand_round;
use ta::core::validate::check_strategy_contract;
use ta::prelude::*;
use ta::sim::queue::{BinaryHeapQueue, EventQueue, LaneScheduler};

proptest! {
    /// Every valid (A, C) pair yields contract-satisfying generalized and
    /// randomized strategies (Section 3.1 monotonicity, no overspending,
    /// Section 3.4 tight capacity).
    #[test]
    fn parametrized_strategies_satisfy_contract(a in 1u64..=64, extra in 0u64..=128) {
        let c = a + extra;
        let gen = GeneralizedTokenAccount::new(a, c).unwrap();
        prop_assert!(check_strategy_contract(&gen, c as i64 + 16).is_ok());
        let rnd = RandomizedTokenAccount::new(a, c).unwrap();
        prop_assert!(check_strategy_contract(&rnd, c as i64 + 16).is_ok());
    }

    /// The simple strategy satisfies the contract for any capacity.
    #[test]
    fn simple_strategy_satisfies_contract(c in 0u64..=256) {
        prop_assert!(check_strategy_contract(&SimpleTokenAccount::new(c), c as i64 + 16).is_ok());
    }

    /// Probabilistic rounding stays within ⌊r⌋..=⌈r⌉ and preserves the
    /// mean within statistical tolerance.
    #[test]
    fn rand_round_bounds(value in 0.0f64..100.0, seed in 0u64..1000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rounded = rand_round(value, &mut rng);
        prop_assert!(rounded as f64 >= value.floor());
        prop_assert!(rounded as f64 <= value.ceil());
    }

    /// Token accounts never go negative through the checked API and
    /// conserve tokens exactly.
    #[test]
    fn account_arithmetic(ops in proptest::collection::vec(0u8..3, 1..200)) {
        let mut acct = TokenAccount::new(0);
        let mut expected: i64 = 0;
        for op in ops {
            match op {
                0 => {
                    acct.grant();
                    expected += 1;
                }
                1 => {
                    if acct.try_spend(1) {
                        expected -= 1;
                    }
                }
                _ => {
                    let spent = acct.spend_up_to(3);
                    expected -= spent as i64;
                }
            }
            prop_assert!(acct.balance() >= 0);
            prop_assert_eq!(acct.balance(), expected);
        }
    }

    /// The engine's scheduler pops in exactly the binary heap's order on
    /// random schedules (interleaved pops).
    #[test]
    fn queue_implementations_are_equivalent(
        ops in proptest::collection::vec((0u64..50_000_000_000u64, any::<bool>()), 1..300)
    ) {
        let mut heap = BinaryHeapQueue::new();
        let mut sched = LaneScheduler::new();
        let mut now = 0u64;
        let mut next_id = 0u64;
        for (offset, do_pop) in ops {
            if do_pop && !heap.is_empty() {
                let a = heap.pop().unwrap();
                let b = sched.pop().unwrap();
                prop_assert_eq!(a.key(), b.key());
                prop_assert_eq!(a.event, b.event);
                now = a.time.as_micros();
            } else {
                let t = SimTime::from_micros(now + offset);
                heap.push(t, next_id);
                sched.push(t, next_id);
                next_id += 1;
            }
        }
        loop {
            match (heap.pop(), sched.pop()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.key(), b.key());
                    prop_assert_eq!(a.event, b.event);
                }
                _ => prop_assert!(false, "queue lengths diverged"),
            }
        }
    }

    /// Node-level Algorithm 4 never exceeds the capacity bound, for any
    /// message/round interleaving.
    #[test]
    fn node_balance_respects_capacity(
        a in 1u64..=16,
        extra in 0u64..=32,
        ops in proptest::collection::vec(any::<bool>(), 1..300),
        seed in 0u64..100
    ) {
        let c = a + extra;
        let strategy = DecisionTable::new(RandomizedTokenAccount::new(a, c).unwrap());
        let mut node = TokenNode::new(0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for is_message in ops {
            if is_message {
                node.on_message(&strategy, Usefulness::Useful, &mut rng);
            } else {
                node.on_round(&strategy, &mut rng);
            }
            prop_assert!(node.balance() >= 0);
            prop_assert!(node.balance() <= c as i64, "balance {} > C {}", node.balance(), c);
        }
    }

    /// The mean-field equilibrium solver agrees with the closed form on
    /// the whole grid.
    #[test]
    fn equilibrium_solver_matches_closed_form(a in 1u64..=40, extra in 0u64..=80) {
        let c = a + extra;
        let strategy = RandomizedTokenAccount::new(a, c).unwrap();
        let model = ta::core::meanfield::MeanFieldModel::new(
            &strategy,
            172.8,
            Usefulness::Useful,
        );
        let solved = model.equilibrium_balance().unwrap();
        let predicted = randomized_equilibrium(a, c);
        prop_assert!((solved - predicted).abs() < 1e-6,
            "A={} C={}: {} vs {}", a, c, solved, predicted);
    }
}

// Segment validation holds for generated smartphone traces of any seed.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn synthetic_traces_are_always_valid(seed in 0u64..1_000_000) {
        let sched = SmartphoneTraceModel::default().generate(
            50,
            ta::sim::paper::TWO_DAYS,
            seed,
        );
        // AvailabilitySchedule::new re-validates; round-trip through it.
        let segments = sched.clone().into_segments();
        prop_assert!(AvailabilitySchedule::new(segments).is_ok());
    }
}
