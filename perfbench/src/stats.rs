//! Summary statistics and failure accounting shared by every workload.

use rand::Rng;

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`): the
/// smallest sample with at least `q` of the samples at or below it.
/// Returns 0 for an empty slice, so an absent series never prints NaN.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Keeps a seeded uniform sample of at most `cap` items of a stream in
/// `kept` (reservoir sampling). `seen` counts the items offered so far,
/// this one included; `item` is built only when it is kept.
pub fn reservoir<T>(
    kept: &mut Vec<T>,
    cap: usize,
    seen: u64,
    item: impl FnOnce() -> T,
    rng: &mut impl Rng,
) {
    if kept.len() < cap {
        kept.push(item());
    } else {
        let slot = rng.gen_range(0..seen) as usize;
        if slot < cap {
            kept[slot] = item();
        }
    }
}

/// Why an operation counts as failed. Every kind counts once against
/// `error_rate`; only [`Failure::Wrong`] also makes the run incorrect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The connection or the store call failed outright.
    Transport,
    /// The server answered with an ERROR frame other than a shed.
    ErrorReply,
    /// Admission control refused the query (`Overloaded`).
    Shed,
    /// The reply covered fewer than all shards.
    Degraded,
    /// The reply was a budget-truncated prefix.
    Truncated,
    /// The answer differs from the brute-force oracle.
    Wrong,
}

/// Attempted and failed operations (queries and writes together), with
/// the failures broken down by kind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed, of any kind.
    pub failed: u64,
    /// Failed operations per kind, in [`Failure`] declaration order.
    pub by_kind: [u64; 6],
}

impl Tally {
    /// Counts one operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one operation that failed.
    pub fn fail(&mut self, why: Failure) {
        self.attempted += 1;
        self.failed += 1;
        self.by_kind[why as usize] += 1;
    }

    /// Re-labels an operation already counted as a success: an answer
    /// found wrong when the oracle check runs after the timed loop.
    pub fn demote(&mut self, why: Failure) {
        self.failed += 1;
        self.by_kind[why as usize] += 1;
    }

    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (a, b) in self.by_kind.iter_mut().zip(other.by_kind) {
            *a += b;
        }
    }

    /// Failed over attempted operations; 0 when nothing was attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether any answer disagreed with the oracle.
    pub fn any_wrong(&self) -> bool {
        self.by_kind[Failure::Wrong as usize] > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Rank ceil(q·n): with 10 samples p50 is the 5th, p99 the 10th.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.5), 5.0);
        assert_eq!(percentile(&ten, 0.99), 10.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut kept = Vec::new();
        for seen in 1..=10_000u64 {
            reservoir(&mut kept, 100, seen, || seen, &mut rng);
        }
        assert_eq!(kept.len(), 100);
        // A uniform sample of 1..=10000 puts about half above 5000.
        let late = kept.iter().filter(|&&v| v > 5_000).count();
        assert!(
            (30..=70).contains(&late),
            "{late} of 100 kept from the second half"
        );
    }

    #[test]
    fn error_rate_counts_every_failure_kind_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        for _ in 0..94 {
            t.ok();
        }
        for why in [
            Failure::Transport,
            Failure::ErrorReply,
            Failure::Shed,
            Failure::Degraded,
            Failure::Truncated,
        ] {
            t.fail(why);
        }
        assert_eq!((t.attempted, t.failed), (99, 5));
        assert!(!t.any_wrong());
        // A wrong answer found after the loop was already attempted: it
        // adds a failure, not an attempt.
        t.demote(Failure::Wrong);
        assert_eq!((t.attempted, t.failed), (99, 6));
        assert!(t.any_wrong());
        t.ok();
        assert_eq!(t.error_rate(), 0.06);

        let mut total = Tally::default();
        total.absorb(&t);
        total.absorb(&t);
        assert_eq!((total.attempted, total.failed), (200, 12));
        assert_eq!(total.by_kind, [2, 2, 2, 2, 2, 2]);
    }
}
