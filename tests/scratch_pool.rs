//! The index-owned scratch pool: the allocating entry points (`topk`,
//! `topk_guarded`, `range_by_score`, `topk_traced`, every `BatchExecutor`
//! worker, every `DynamicIndex` probe) borrow a scratch from a bounded
//! pool inside the index instead of allocating one per call. Answers and
//! costs must stay bit-identical to a query on a brand-new scratch, a
//! scratch whose query panicked must never return to the pool, and the
//! pool must never hold more than its cap.

use drtopk::common::{topk_bruteforce, Distribution, Relation, Weights, WorkloadSpec};
use drtopk::core::{
    BatchExecutor, DlOptions, DualLayerIndex, DynamicIndex, QueryBudget, QueryScratch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn index(d: usize, n: usize, seed: u64) -> DualLayerIndex {
    let rel = WorkloadSpec::new(Distribution::AntiCorrelated, d, n, seed).generate();
    DualLayerIndex::build(&rel, DlOptions::dl_plus())
}

#[test]
fn concurrent_pooled_queries_match_fresh_scratch() {
    for d in [2usize, 3] {
        let idx = Arc::new(index(d, 1_500, 41 + d as u64));
        let workers: Vec<_> = (0..4u64)
            .map(|t| {
                let idx = Arc::clone(&idx);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x9001 + t);
                    for q in 0..60 {
                        let w = Weights::random(d, &mut rng);
                        let k = rng.gen_range(1..=40usize);
                        let mut fresh = QueryScratch::for_index(&idx);
                        let want = idx.topk_with_scratch(&w, k, &mut fresh);
                        let ctx = format!("d={d} thread {t} query {q}");
                        assert_eq!(idx.topk(&w, k), want, "{ctx}: topk");
                        let guarded = idx.topk_guarded(&w, k, &QueryBudget::unlimited());
                        assert!(guarded.is_complete(), "{ctx}");
                        assert_eq!(guarded.ids, want.ids, "{ctx}: topk_guarded");
                        assert_eq!(guarded.cost, want.cost, "{ctx}: topk_guarded");
                        assert_eq!(idx.topk_traced(&w, k).0, want, "{ctx}: topk_traced");
                        assert_eq!(
                            idx.topk_where(&w, k, |_, _| true),
                            want,
                            "{ctx}: topk_where"
                        );
                    }
                })
            })
            .collect();
        for h in workers {
            h.join().expect("query thread panicked");
        }
        assert!(
            idx.pooled_scratches() >= 1,
            "d={d}: finished queries check in"
        );
        assert!(idx.pooled_scratches() <= DualLayerIndex::scratch_pool_cap());
    }
}

#[test]
fn a_panicked_query_never_returns_its_scratch() {
    let d = 3;
    let idx = index(d, 800, 7);
    let w = Weights::new(vec![0.5, 0.3, 0.2]).unwrap();
    let mut fresh = QueryScratch::for_index(&idx);
    let want = idx.topk_with_scratch(&w, 25, &mut fresh);

    assert_eq!(idx.pooled_scratches(), 0, "a new index starts empty");
    assert_eq!(idx.topk(&w, 25), want);
    assert_eq!(idx.pooled_scratches(), 1, "the warm-up query checked in");

    // A weight vector of the wrong arity panics after the traversal has
    // reset the checked-out scratch: the unwinding guard must drop it.
    let poisoned = catch_unwind(AssertUnwindSafe(|| idx.topk(&Weights::uniform(d - 1), 25)));
    assert!(poisoned.is_err(), "dimensionality mismatch panics");
    assert_eq!(idx.pooled_scratches(), 0, "the panicked scratch is gone");

    assert_eq!(idx.topk(&w, 25), want, "the next query is bit-identical");
    assert_eq!(idx.pooled_scratches(), 1);

    // The batch executor catches the same panic itself and must discard
    // the worker's scratch rather than check it in.
    let poison_only = vec![(Weights::uniform(d - 1), 5)];
    let out =
        BatchExecutor::with_threads(&idx, 1).run_guarded(&poison_only, &QueryBudget::unlimited());
    assert!(out[0].is_err());
    assert_eq!(idx.pooled_scratches(), 0, "the batch worker discarded it");
    let healthy = vec![(w.clone(), 25)];
    let out = BatchExecutor::with_threads(&idx, 1).run(&healthy);
    assert_eq!(out[0], want);
    assert_eq!(idx.pooled_scratches(), 1);
}

/// The live set as a relation in handle order, so the oracle's id
/// tie-break agrees with the dynamic index's handle tie-break.
fn oracle(live: &[(u64, Vec<f64>)], d: usize, w: &Weights, k: usize) -> Vec<u64> {
    let rows: Vec<Vec<f64>> = live.iter().map(|(_, r)| r.clone()).collect();
    let rel = Relation::from_rows(d, &rows).unwrap();
    topk_bruteforce(&rel, w, k)
        .into_iter()
        .map(|id| live[id as usize].0)
        .collect()
}

#[test]
fn dynamic_probes_match_the_oracle_across_a_forced_rebuild() {
    let d = 3;
    let n = 600;
    let rel = WorkloadSpec::new(Distribution::Independent, d, n, 23).generate();
    // A rebuild fraction no workload reaches: only `compact` rebuilds.
    let mut dynamic = DynamicIndex::new(&rel, DlOptions::dl_plus(), 1e9);
    let mut live: Vec<(u64, Vec<f64>)> = (0..n as u32)
        .map(|id| (u64::from(id), rel.tuple(id).to_vec()))
        .collect();
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    let check = |dynamic: &DynamicIndex, live: &[(u64, Vec<f64>)], rng: &mut StdRng, ctx: &str| {
        for q in 0..20 {
            let w = Weights::random(d, rng);
            let k = rng.gen_range(1..=30usize);
            let want = oracle(live, d, &w, k);
            assert_eq!(dynamic.topk(&w, k).0, want, "{ctx} query {q}: topk");
            let guarded = dynamic.topk_guarded(&w, k, &QueryBudget::unlimited());
            assert_eq!(guarded.ids, want, "{ctx} query {q}: topk_guarded");
        }
    };
    check(&dynamic, &live, &mut rng, "fresh");

    for i in 0..40 {
        let row: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..1.0)).collect();
        let h = dynamic.insert(&row).unwrap();
        live.push((h, row));
        let victim = live.remove((i * 13) % live.len()).0;
        assert!(dynamic.delete(victim));
    }
    live.sort_by_key(|(h, _)| *h);
    check(&dynamic, &live, &mut rng, "pending updates");

    let rebuilds = dynamic.rebuilds();
    dynamic.compact();
    assert_eq!(dynamic.rebuilds(), rebuilds + 1, "compact forced a rebuild");
    check(&dynamic, &live, &mut rng, "after rebuild");
}

#[test]
fn the_pool_never_holds_more_than_its_cap() {
    let cap = DualLayerIndex::scratch_pool_cap();
    assert!(cap >= 1);
    let idx = Arc::new(index(3, 500, 3));
    // More concurrent callers than the cap: every one that finds the pool
    // empty allocates, and the surplus is dropped at check-in.
    let threads = 2 * cap + 2;
    let barrier = Arc::new(std::sync::Barrier::new(threads));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let idx = Arc::clone(&idx);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(t as u64);
                barrier.wait();
                for _ in 0..30 {
                    idx.topk(&Weights::random(3, &mut rng), 10);
                    assert!(idx.pooled_scratches() <= cap);
                }
            })
        })
        .collect();
    for h in workers {
        h.join().expect("query thread panicked");
    }
    assert!((1..=cap).contains(&idx.pooled_scratches()));

    // A clone starts with an empty pool of its own.
    let clone = (*idx).clone();
    assert_eq!(clone.pooled_scratches(), 0);
    let w = Weights::uniform(3);
    assert_eq!(clone.topk(&w, 10), idx.topk(&w, 10));
    assert_eq!(clone.pooled_scratches(), 1);
}
