//! Property-based tests of the message-passing substrate: collectives must
//! behave like their sequential definitions for arbitrary rank counts,
//! roots and payloads.

use proptest::prelude::*;
use tbmd_parallel::{partition_range, vmp_run};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn broadcast_delivers_everywhere(p in 1usize..10, root_sel in 0usize..10, len in 0usize..20) {
        let root = root_sel % p;
        let payload: Vec<f64> = (0..len).map(|i| i as f64 * 1.5 - 3.0).collect();
        let expect = payload.clone();
        let (results, stats) = vmp_run(p, move |mut rank| {
            let mut data = if rank.id() == root { payload.clone() } else { vec![] };
            rank.broadcast(root, 7, &mut data);
            data
        });
        for r in &results {
            prop_assert_eq!(r, &expect);
        }
        // Binomial tree: exactly p−1 messages.
        prop_assert_eq!(stats.total_messages(), (p - 1) as u64);
    }

    #[test]
    fn allreduce_equals_sequential_sum(p in 1usize..9, len in 1usize..12, seed in 0u64..100) {
        let (results, _) = vmp_run(p, move |mut rank| {
            let mut data: Vec<f64> = (0..len)
                .map(|i| ((seed + rank.id() as u64 * 31 + i as u64) % 17) as f64 - 8.0)
                .collect();
            rank.allreduce_sum(9, &mut data);
            data
        });
        // Sequential reference.
        let mut expect = vec![0.0; len];
        for r in 0..p {
            for (i, e) in expect.iter_mut().enumerate() {
                *e += ((seed + r as u64 * 31 + i as u64) % 17) as f64 - 8.0;
            }
        }
        for res in &results {
            for (a, b) in res.iter().zip(&expect) {
                prop_assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn allgather_preserves_rank_order(p in 1usize..8) {
        let (results, _) = vmp_run(p, |mut rank| {
            let chunk = vec![rank.id() as f64; rank.id() % 3 + 1];
            rank.allgather(11, &chunk)
        });
        for res in &results {
            prop_assert_eq!(res.len(), p);
            for (r, chunk) in res.iter().enumerate() {
                prop_assert_eq!(chunk.len(), r % 3 + 1);
                prop_assert!(chunk.iter().all(|&x| x == r as f64));
            }
        }
    }

    #[test]
    fn partition_is_contiguous_and_complete(n in 0usize..200, p in 1usize..17) {
        let mut next_start = 0usize;
        for r in 0..p {
            let range = partition_range(n, p, r);
            prop_assert_eq!(range.start, next_start, "gap before rank {}", r);
            next_start = range.end;
            // Balance: lengths differ by at most one.
            let len = range.end - range.start;
            prop_assert!(len >= n / p && len <= n / p + 1);
        }
        prop_assert_eq!(next_start, n);
    }
}
