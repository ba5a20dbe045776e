//! The `sharded-churn` writer's plan and its model of the live tuples.
//!
//! Writes alternate between inserting a fresh seeded row and deleting a
//! random live handle. Handles follow the shard rule of
//! `drtopk_storage::create_sharded`: the initial tuple `t` has handle
//! `t`, a new handle is one past the largest ever assigned (handles only
//! grow), and handle `h` lives on shard `h % P`. The plan keeps every
//! live row, so the oracle check after the run sees exactly the tuples
//! the stores should hold.

use drtopk_common::{Relation, Weights};
use drtopk_core::{shard_of, Handle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One write, addressed to the shard that owns its handle.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// Insert `row` under the fresh handle `h`.
    Insert {
        /// The new handle.
        h: Handle,
        /// The row's attribute values, each in `[0, 1)`.
        row: Vec<f64>,
    },
    /// Delete the live handle `h`.
    Delete {
        /// A handle live before this write.
        h: Handle,
    },
}

impl WriteOp {
    /// The handle the write touches.
    pub fn handle(&self) -> Handle {
        match self {
            WriteOp::Insert { h, .. } | WriteOp::Delete { h } => *h,
        }
    }
}

/// Seeded write sequence plus the live-set model it implies.
#[derive(Debug)]
pub struct ChurnPlan {
    shards: usize,
    dims: usize,
    rng: StdRng,
    /// Row of every handle ever assigned, indexed by handle.
    rows: Vec<Vec<f64>>,
    alive: Vec<bool>,
    /// Live handles in no particular order (swap-removed on delete).
    live: Vec<Handle>,
    writes: u64,
}

impl ChurnPlan {
    /// A plan over `rel`'s tuples (handles `0..n`) split `shards` ways.
    pub fn new(rel: &Relation, shards: usize, seed: u64) -> Self {
        let rows: Vec<Vec<f64>> = rel.iter().map(|(_, t)| t.to_vec()).collect();
        ChurnPlan {
            shards,
            dims: rel.dims(),
            rng: StdRng::seed_from_u64(seed),
            alive: vec![true; rows.len()],
            live: (0..rows.len() as Handle).collect(),
            rows,
            writes: 0,
        }
    }

    /// The shard that owns handle `h`.
    pub fn shard(&self, h: Handle) -> usize {
        shard_of(h, self.shards)
    }

    /// The next write; the model assumes it is applied.
    pub fn next_op(&mut self) -> WriteOp {
        self.writes += 1;
        if self.writes % 2 == 1 || self.live.is_empty() {
            let h = self.rows.len() as Handle;
            let row: Vec<f64> = (0..self.dims).map(|_| self.rng.gen::<f64>()).collect();
            self.rows.push(row.clone());
            self.alive.push(true);
            self.live.push(h);
            WriteOp::Insert { h, row }
        } else {
            let at = self.rng.gen_range(0..self.live.len());
            let h = self.live.swap_remove(at);
            self.alive[h as usize] = false;
            WriteOp::Delete { h }
        }
    }

    /// Number of live tuples.
    #[cfg(test)]
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// The live tuples as a relation in ascending handle order, with each
    /// position's handle (see [`oracle`]).
    pub fn live_relation(&self) -> (Relation, Vec<Handle>) {
        let mut flat = Vec::with_capacity(self.live.len() * self.dims);
        let mut handles = Vec::with_capacity(self.live.len());
        for (h, row) in self.rows.iter().enumerate() {
            if self.alive[h] {
                flat.extend_from_slice(row);
                handles.push(h as Handle);
            }
        }
        let rel = Relation::from_flat(self.dims, flat).expect("live rows are valid tuples");
        (rel, handles)
    }
}

/// Exact top-k over `rel` as handles, ties broken by `(score, handle)`:
/// `rel` lists rows in ascending handle order, so the oracle's id
/// tie-break is the handle order.
pub fn oracle(rel: &Relation, handles: &[Handle], w: &Weights, k: usize) -> Vec<u64> {
    drtopk_common::topk_bruteforce(rel, w, k)
        .into_iter()
        .map(|id| handles[id as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtopk_common::{Distribution, WorkloadSpec};

    #[test]
    fn new_handles_grow_and_land_on_their_residue_shard() {
        let rel = WorkloadSpec::new(Distribution::Independent, 3, 50, 1).generate();
        let mut plan = ChurnPlan::new(&rel, 4, 9);
        let mut last_new: Handle = 49;
        let mut live: std::collections::BTreeSet<Handle> = (0..50).collect();
        for step in 0..400 {
            let op = plan.next_op();
            assert_eq!(plan.shard(op.handle()), (op.handle() % 4) as usize);
            match op {
                WriteOp::Insert { h, row } => {
                    assert_eq!(step % 2, 0, "writes alternate, inserts first");
                    assert_eq!(h, last_new + 1, "a new handle is one past the largest");
                    assert!(row.iter().all(|v| (0.0..1.0).contains(v)));
                    last_new = h;
                    live.insert(h);
                }
                WriteOp::Delete { h } => {
                    assert!(live.remove(&h), "deletes only target live handles");
                }
            }
            assert_eq!(plan.live_len(), live.len());
        }
        let (_, handles) = plan.live_relation();
        assert_eq!(handles, live.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn same_seed_same_writes() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 20, 3).generate();
        let mut a = ChurnPlan::new(&rel, 2, 5);
        let mut b = ChurnPlan::new(&rel, 2, 5);
        for _ in 0..50 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn oracle_breaks_ties_by_handle() {
        // Two identical live rows: the lower handle ranks first even after
        // an earlier handle is deleted and positions shift.
        let rel =
            Relation::from_rows(2, &[vec![0.5, 0.5], vec![0.1, 0.1], vec![0.1, 0.1]]).unwrap();
        let mut plan = ChurnPlan::new(&rel, 2, 0);
        plan.alive[0] = false;
        plan.live.retain(|&h| h != 0);
        let w = Weights::new(vec![0.5, 0.5]).unwrap();
        let (live, handles) = plan.live_relation();
        assert_eq!(oracle(&live, &handles, &w, 2), vec![1, 2]);
    }
}
