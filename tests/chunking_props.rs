//! Property-based tests of the zigzag chunk math that all ring cost
//! accounting rests on.

use proptest::prelude::*;

use zeppelin::core::chunking::{
    chunks, chunks_with_weights, kv_source, position_chunks, position_chunks_weighted,
    position_pair_flops, position_pair_flops_weighted, position_tokens, position_tokens_weighted,
    position_total_flops, position_total_flops_weighted, ring_round_flops,
    ring_round_flops_weighted, ring_round_kv_bytes, ring_round_kv_bytes_weighted,
    ring_round_kv_tokens, ring_round_kv_tokens_weighted, Chunk, ZigzagCut,
};
use zeppelin::model::config::{llama_3b, ModelConfig};
use zeppelin::model::flops::{attention_block_flops, attention_seq_flops};
use zeppelin::model::memory::kv_bytes;

/// Lengths biased toward `len < 2G` (zero-length chunks) half the time.
fn arb_len() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..48, 0u64..100_000]
}

/// A ring size with per-position weights, usually non-uniform.
fn arb_weighted_ring() -> impl Strategy<Value = (usize, Vec<u32>)> {
    (1usize..17).prop_flat_map(|g| (Just(g), prop::collection::vec(1u32..=2048, g)))
}

/// Checks every per-position and per-round query, through [`ZigzagCut`]
/// and through the free functions, against the cost formulas evaluated
/// directly on an allocated chunk `table`, bit for bit.
fn check_queries_against_table(
    cfg: &ModelConfig,
    len: u64,
    g: usize,
    weights: &[u32],
    table: &[Chunk],
) -> Result<(), TestCaseError> {
    let cut = ZigzagCut::new(len, g, weights);
    let owned = |p: usize| [table[p], table[2 * g - 1 - p]];
    let tokens = |p: usize| owned(p).iter().map(|c| c.len).sum::<u64>();
    let pair = |q: usize, kv: usize| {
        let mut flops = 0.0;
        for qc in owned(q) {
            for kc in owned(kv) {
                flops += attention_block_flops(cfg, qc.offset, qc.len, kc.offset, kc.len);
            }
        }
        flops
    };
    let round = |p: usize, r: usize| pair(p, kv_source(g, p, r));
    let uniform = weights.iter().all(|&w| w == weights[0]);
    prop_assert_eq!(cut.seq_len(), len);
    for p in 0..g {
        prop_assert_eq!(cut.position_chunks(p), owned(p));
        prop_assert_eq!(position_chunks_weighted(len, g, weights, p), owned(p));
        prop_assert_eq!(cut.position_tokens(p), tokens(p));
        prop_assert_eq!(position_tokens_weighted(len, g, weights, p), tokens(p));
        let total: f64 = (0..g).map(|r| round(p, r)).sum();
        prop_assert_eq!(cut.position_total_flops(cfg, p).to_bits(), total.to_bits());
        prop_assert_eq!(
            position_total_flops_weighted(cfg, len, g, weights, p).to_bits(),
            total.to_bits()
        );
        if uniform {
            prop_assert_eq!(position_chunks(len, g, p), owned(p));
            prop_assert_eq!(position_tokens(len, g, p), tokens(p));
            prop_assert_eq!(
                position_total_flops(cfg, len, g, p).to_bits(),
                total.to_bits()
            );
        }
        for q in 0..g {
            let want = pair(p, q).to_bits();
            prop_assert_eq!(cut.pair_flops(cfg, p, q).to_bits(), want);
            prop_assert_eq!(
                position_pair_flops_weighted(cfg, len, g, weights, p, q).to_bits(),
                want
            );
            if uniform {
                prop_assert_eq!(position_pair_flops(cfg, len, g, p, q).to_bits(), want);
            }
        }
        for r in 0..g {
            let flops = round(p, r).to_bits();
            let kv = tokens(kv_source(g, p, r));
            let bytes = kv_bytes(cfg, kv).to_bits();
            prop_assert_eq!(cut.round_flops(cfg, p, r).to_bits(), flops);
            prop_assert_eq!(cut.round_kv_tokens(p, r), kv);
            prop_assert_eq!(cut.round_kv_bytes(cfg, p, r).to_bits(), bytes);
            prop_assert_eq!(
                ring_round_flops_weighted(cfg, len, g, weights, p, r).to_bits(),
                flops
            );
            prop_assert_eq!(ring_round_kv_tokens_weighted(len, g, weights, p, r), kv);
            prop_assert_eq!(
                ring_round_kv_bytes_weighted(cfg, len, g, weights, p, r).to_bits(),
                bytes
            );
            if uniform {
                prop_assert_eq!(ring_round_flops(cfg, len, g, p, r).to_bits(), flops);
                prop_assert_eq!(ring_round_kv_tokens(len, g, p, r), kv);
                prop_assert_eq!(ring_round_kv_bytes(cfg, len, g, p, r).to_bits(), bytes);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chunks_partition_any_sequence(len in 0u64..200_000, g in 1usize..64) {
        let cs = chunks(len, g);
        prop_assert_eq!(cs.len(), 2 * g);
        prop_assert_eq!(cs.iter().map(|c| c.len).sum::<u64>(), len);
        let mut offset = 0;
        for c in &cs {
            prop_assert_eq!(c.offset, offset);
            offset += c.len;
        }
        // Sizes within one token of each other.
        let max = cs.iter().map(|c| c.len).max().unwrap();
        let min = cs.iter().map(|c| c.len).min().unwrap();
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn position_tokens_sum_to_len(len in 0u64..200_000, g in 1usize..48) {
        let total: u64 = (0..g).map(|p| position_tokens(len, g, p)).sum();
        prop_assert_eq!(total, len);
    }

    #[test]
    fn ring_rounds_conserve_flops(len in 1u64..50_000, g in 1usize..24) {
        let cfg = llama_3b();
        let total: f64 = (0..g)
            .flat_map(|p| (0..g).map(move |r| (p, r)))
            .map(|(p, r)| ring_round_flops(&cfg, len, g, p, r))
            .sum();
        let expected = attention_seq_flops(&cfg, len);
        prop_assert!((total - expected).abs() <= expected * 1e-9 + 1.0);
    }

    #[test]
    fn pairwise_flops_cover_the_grid_once(len in 1u64..50_000, g in 1usize..16) {
        // Summing position_pair_flops over all (q, kv) pairs must equal the
        // per-round decomposition (both enumerate each pair exactly once).
        let cfg = llama_3b();
        let by_pairs: f64 = (0..g)
            .flat_map(|q| (0..g).map(move |kv| (q, kv)))
            .map(|(q, kv)| position_pair_flops(&cfg, len, g, q, kv))
            .sum();
        let by_rounds: f64 = (0..g)
            .flat_map(|p| (0..g).map(move |r| (p, r)))
            .map(|(p, r)| ring_round_flops(&cfg, len, g, p, r))
            .sum();
        prop_assert!((by_pairs - by_rounds).abs() <= by_pairs * 1e-12 + 1.0);
    }

    #[test]
    fn zigzag_positions_balance_within_rounding(len in 4_096u64..200_000, g in 2usize..32) {
        let cfg = llama_3b();
        let per: Vec<f64> = (0..g)
            .map(|p| position_total_flops(&cfg, len, g, p))
            .collect();
        let max = per.iter().cloned().fold(0.0f64, f64::max);
        let min = per.iter().cloned().fold(f64::INFINITY, f64::min);
        // Long sequences balance tightly; short ones are rounding-bound.
        let tolerance = if len as usize > 64 * g { 0.05 } else { 0.8 };
        prop_assert!(
            (max - min) / max <= tolerance,
            "imbalance {} at len {} g {}", (max - min) / max, len, g
        );
    }

    #[test]
    fn kv_rotation_is_a_permutation_every_round(g in 1usize..64, r in 0usize..64) {
        prop_assume!(r < g);
        let mut seen: Vec<usize> = (0..g).map(|p| kv_source(g, p, r)).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..g).collect::<Vec<_>>());
    }

    #[test]
    fn in_flight_kv_covers_the_sequence(len in 0u64..100_000, g in 1usize..24, r in 0usize..24) {
        prop_assume!(r < g);
        let total: u64 = (0..g).map(|p| ring_round_kv_tokens(len, g, p, r)).sum();
        prop_assert_eq!(total, len);
    }

    /// The closed-form uniform cut answers every query exactly as the
    /// allocated [`chunks`] table does, including `len < 2G`.
    #[test]
    fn closed_form_queries_match_the_chunks_table(len in arb_len(), g in 1usize..17) {
        let cfg = llama_3b();
        let table = chunks(len, g);
        check_queries_against_table(&cfg, len, g, &[], &table)?;
        check_queries_against_table(&cfg, len, g, &vec![777; g], &table)?;
    }

    /// A weighted cut keeps the [`chunks_with_weights`] table and answers
    /// every query exactly as that table does.
    #[test]
    fn weighted_cut_queries_match_the_weighted_table(
        len in arb_len(),
        (g, weights) in arb_weighted_ring(),
    ) {
        let cfg = llama_3b();
        let table = chunks_with_weights(len, g, &weights);
        check_queries_against_table(&cfg, len, g, &weights, &table)?;
    }
}
