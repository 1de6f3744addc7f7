//! Property-based tests of the hierarchical partitioner and the plan IR:
//! conservation, capacity, zone consistency, and determinism on random
//! batches and cluster shapes.

use proptest::prelude::*;

use zeppelin::core::partitioner::{partition, PartitionConfig};
use zeppelin::core::plan::{IterationPlan, PlanOptions, Zone};

fn as_plan(placements: Vec<zeppelin::core::plan::SeqPlacement>) -> IterationPlan {
    IterationPlan {
        scheduler: "prop".into(),
        placements,
        options: PlanOptions::default(),
        micro_batches: 1,
        redundant_attn_frac: 0.0,
    }
}

/// Strategy: a cluster shape and a batch that fits its total capacity.
fn shape_and_batch() -> impl Strategy<Value = (usize, usize, u64, Vec<u64>)> {
    (1usize..=4, 1usize..=8, 1024u64..=8192).prop_flat_map(|(nodes, p, cap)| {
        let total_cap = cap * (nodes * p) as u64;
        let max_seq = total_cap.min(4 * cap);
        (
            Just(nodes),
            Just(p),
            Just(cap),
            prop::collection::vec(1..=max_seq, 0..40)
                .prop_filter("batch must fit aggregate capacity", move |seqs| {
                    seqs.iter().sum::<u64>() <= total_cap
                }),
        )
    })
}

fn check_every_token_placed_once(nodes: usize, p: usize, cap: u64, seqs: &[u64]) -> TestCaseResult {
    let cfg = PartitionConfig::new(nodes, p, cap);
    let part = partition(seqs, &cfg).expect("feasible batch must partition");
    let mut seen: Vec<usize> = part.placements.iter().map(|pl| pl.seq_index).collect();
    seen.sort_unstable();
    prop_assert_eq!(seen, (0..seqs.len()).collect::<Vec<_>>());
    for pl in &part.placements {
        prop_assert_eq!(pl.len, seqs[pl.seq_index]);
    }
    let plan = as_plan(part.placements);
    prop_assert_eq!(plan.total_tokens(), seqs.iter().sum::<u64>());
    plan.validate(nodes * p).expect("structurally valid");
    Ok(())
}

fn check_per_rank_capacity(nodes: usize, p: usize, cap: u64, seqs: &[u64]) -> TestCaseResult {
    let cfg = PartitionConfig::new(nodes, p, cap);
    let part = partition(seqs, &cfg).expect("feasible");
    let plan = as_plan(part.placements);
    let tokens = plan.tokens_per_rank(nodes * p, 0);
    for (rank, &t) in tokens.iter().enumerate() {
        // Fragment rounding may exceed L by one token per placement on
        // the rank; allow a small additive slack.
        prop_assert!(
            t <= cap + 2 * seqs.len() as u64 + 2,
            "rank {} holds {} with capacity {}",
            rank,
            t,
            cap
        );
    }
    Ok(())
}

fn check_zones_match_ring_spans(nodes: usize, p: usize, cap: u64, seqs: &[u64]) -> TestCaseResult {
    let cfg = PartitionConfig::new(nodes, p, cap);
    let part = partition(seqs, &cfg).expect("feasible");
    for pl in &part.placements {
        let node_set: std::collections::HashSet<usize> = pl.ranks.iter().map(|r| r / p).collect();
        match pl.zone {
            Zone::Local => {
                prop_assert_eq!(pl.ranks.len(), 1);
            }
            Zone::IntraNode => {
                prop_assert!(pl.ranks.len() >= 2);
                prop_assert_eq!(node_set.len(), 1);
            }
            Zone::InterNode => {
                prop_assert!(node_set.len() >= 2);
            }
        }
    }
    Ok(())
}

fn check_deterministic(nodes: usize, p: usize, cap: u64, seqs: &[u64]) -> TestCaseResult {
    let cfg = PartitionConfig::new(nodes, p, cap);
    let a = partition(seqs, &cfg).expect("feasible");
    let b = partition(seqs, &cfg).expect("feasible");
    prop_assert_eq!(a, b);
    Ok(())
}

/// Runs every shape-and-batch property on one input.
fn replay(nodes: usize, p: usize, cap: u64, seqs: &[u64]) {
    for check in [
        check_every_token_placed_once,
        check_per_rank_capacity,
        check_zones_match_ring_spans,
        check_deterministic,
    ] {
        if let Err(e) = check(nodes, p, cap, seqs) {
            panic!("({nodes}, {p}, {cap}, {seqs:?}): {e:?}");
        }
    }
}

// Shrunk inputs that once failed these properties, replayed on every run.

#[test]
fn recorded_case_one_node_two_ranks() {
    replay(1, 2, 1808, &[750, 2649]);
}

#[test]
fn recorded_case_two_nodes_one_rank() {
    replay(2, 1, 1188, &[2074, 151]);
}

#[test]
fn recorded_case_three_nodes_five_ranks() {
    replay(
        3,
        5,
        4987,
        &[8911, 1501, 16041, 951, 13171, 11001, 12811, 8996],
    );
}

#[test]
fn recorded_case_three_nodes_one_rank() {
    replay(3, 1, 1720, &[1169, 552, 2334]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_token_is_placed_exactly_once((nodes, p, cap, seqs) in shape_and_batch()) {
        check_every_token_placed_once(nodes, p, cap, &seqs)?;
    }

    #[test]
    fn per_rank_capacity_is_respected((nodes, p, cap, seqs) in shape_and_batch()) {
        check_per_rank_capacity(nodes, p, cap, &seqs)?;
    }

    #[test]
    fn zones_match_ring_spans((nodes, p, cap, seqs) in shape_and_batch()) {
        check_zones_match_ring_spans(nodes, p, cap, &seqs)?;
    }

    #[test]
    fn partitioning_is_deterministic((nodes, p, cap, seqs) in shape_and_batch()) {
        check_deterministic(nodes, p, cap, &seqs)?;
    }

    #[test]
    fn zone_hints_never_break_feasibility(
        (nodes, p, cap, seqs) in shape_and_batch(),
        s0 in 1u64..=16_384,
        s1 in 1u64..=65_536,
    ) {
        let cfg = PartitionConfig::new(nodes, p, cap).with_zone_hints(s0, s1.max(s0));
        let part = partition(&seqs, &cfg).expect("hints must not cause failure");
        let plan = as_plan(part.placements);
        plan.validate(nodes * p).expect("valid");
        prop_assert_eq!(plan.total_tokens(), seqs.iter().sum::<u64>());
    }

    #[test]
    fn over_capacity_batches_are_rejected(
        nodes in 1usize..=3,
        p in 1usize..=4,
        cap in 64u64..=512,
    ) {
        let total_cap = cap * (nodes * p) as u64;
        let seqs = vec![cap; (total_cap / cap + 2) as usize];
        let cfg = PartitionConfig::new(nodes, p, cap);
        prop_assert!(partition(&seqs, &cfg).is_err());
    }
}
