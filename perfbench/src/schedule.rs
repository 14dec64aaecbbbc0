//! Seeded request streams: Zipf-skewed users and the open-loop burst
//! schedule. Equal seeds give identical streams; the engine only ever
//! sees the generated users.

use rm_dataset::ids::UserIdx;
use rm_dataset::interactions::Interactions;
use rm_util::rng::{derive_seed_str, rng_from_seed, SeedableStdRng};
use rm_util::sample::{AliasTable, ZipfWeights};
use std::time::Duration;

/// SplitMix64: the benchmark's own small deterministic generator.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }
}

/// Every user index `0..n` in a seeded random order.
pub fn shuffled_users(seed: u64, n: usize) -> Vec<UserIdx> {
    let mut rng = SplitMix::new(seed);
    let mut users: Vec<UserIdx> = (0..n as u32).map(UserIdx).collect();
    for i in (1..users.len()).rev() {
        users.swap(i, rng.below(i + 1));
    }
    users
}

/// Users from most to least active (training loans, descending; ties
/// toward the lower index): the Zipf streams' rank order. That the
/// readers who borrow most also browse most is an assumption of the
/// benchmark, not a measured fact; it sets the cache's hit ratio and
/// which users' misses the tail sees.
pub fn by_activity(train: &Interactions) -> Vec<UserIdx> {
    let mut users: Vec<UserIdx> = (0..train.n_users() as u32).map(UserIdx).collect();
    users.sort_by_key(|&u| (std::cmp::Reverse(train.seen(u).len()), u.0));
    users
}

/// An endless Zipf(`exponent`) user stream: rank `r` is drawn with
/// weight `1 / (r + 1)^exponent` and answered by `by_rank[r]`.
pub struct ZipfUsers {
    alias: AliasTable,
    rng: SeedableStdRng,
    by_rank: Vec<UserIdx>,
}

impl ZipfUsers {
    /// A stream over the users of `by_rank` (non-empty).
    pub fn new(seed: u64, by_rank: Vec<UserIdx>, exponent: f64) -> Self {
        Self {
            alias: ZipfWeights::new(exponent).alias_table(by_rank.len()),
            rng: rng_from_seed(derive_seed_str(seed, "zipf-draws")),
            by_rank,
        }
    }

    /// The next requesting user.
    pub fn next_user(&mut self) -> UserIdx {
        self.by_rank[self.alias.sample(&mut self.rng)]
    }
}

/// Fixed absolute rates of the open-loop burst schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstShape {
    /// Calm arrival rate, requests per second.
    pub calm_rps: f64,
    /// Burst rate as a multiple of the calm rate.
    pub burst_factor: f64,
    /// One calm-then-burst cycle.
    pub period: Duration,
    /// The burst at the end of each cycle.
    pub burst_len: Duration,
    /// Skew of the requesting users.
    pub zipf_exponent: f64,
}

/// The governed burst probe's schedule: 2 000 req/s calm, then a 20 000 req/s
/// burst in the last 200 ms of every 2 s, users drawn Zipf(0.6). The
/// flatter skew makes most requests run the pipeline, so a full queue
/// holds enough work for the brownout ladder to act, and the calm phase
/// gives the ladder time to climb back to full service before the next
/// burst.
pub const BURST: BurstShape = BurstShape {
    calm_rps: 2_000.0,
    burst_factor: 10.0,
    period: Duration::from_millis(2_000),
    burst_len: Duration::from_millis(200),
    zipf_exponent: 0.6,
};

impl BurstShape {
    /// Arrival rate in force `at` nanoseconds into the schedule.
    pub fn rate_at(&self, at_ns: u64) -> f64 {
        let period = self.period.as_nanos() as u64;
        if at_ns % period >= period - self.burst_len.as_nanos() as u64 {
            self.calm_rps * self.burst_factor
        } else {
            self.calm_rps
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the request is due, in nanoseconds from the schedule start.
    pub due_ns: u64,
    /// The requesting user.
    pub user: UserIdx,
}

/// Poisson arrivals at `shape`'s piecewise rate over `horizon`, with
/// Zipf users ranked by `by_rank`.
pub fn burst_schedule(
    seed: u64,
    by_rank: Vec<UserIdx>,
    shape: &BurstShape,
    horizon: Duration,
) -> Vec<Arrival> {
    let mut gaps = SplitMix::new(derive_seed_str(seed, "burst-arrivals"));
    let mut users = ZipfUsers::new(
        derive_seed_str(seed, "burst-users"),
        by_rank,
        shape.zipf_exponent,
    );
    let end = horizon.as_nanos() as u64;
    let mut at = 0u64;
    let mut out = Vec::new();
    loop {
        let u = 1.0 - gaps.next_f64(); // (0, 1]
        at += (-u.ln() / shape.rate_at(at) * 1e9) as u64;
        if at >= end {
            return out;
        }
        out.push(Arrival {
            due_ns: at,
            user: users.next_user(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranks() -> Vec<UserIdx> {
        shuffled_users(1, 5_000)
    }

    fn zipf_prefix(seed: u64) -> Vec<UserIdx> {
        let mut z = ZipfUsers::new(seed, ranks(), 1.0);
        (0..2_000).map(|_| z.next_user()).collect()
    }

    #[test]
    fn zipf_stream_repeats_for_equal_seeds_and_differs_otherwise() {
        assert_eq!(zipf_prefix(7), zipf_prefix(7));
        assert_ne!(zipf_prefix(7), zipf_prefix(8));
    }

    #[test]
    fn zipf_stream_is_skewed() {
        let draws = zipf_prefix(3);
        let mut counts = std::collections::BTreeMap::new();
        for u in &draws {
            *counts.entry(u.0).or_insert(0u32) += 1;
        }
        let top = counts.values().max().copied().unwrap_or(0);
        // Zipf(1) over 5 000 users gives the head ~11% of draws.
        assert!(top > 100, "head user drew only {top} of 2000");
        assert_eq!(
            counts.get(&ranks()[0].0).copied(),
            Some(top),
            "rank 0 is the head"
        );
    }

    #[test]
    fn burst_schedule_repeats_for_equal_seeds_and_differs_otherwise() {
        let h = Duration::from_millis(2_500);
        let a = burst_schedule(11, ranks(), &BURST, h);
        assert_eq!(a, burst_schedule(11, ranks(), &BURST, h));
        assert_ne!(a, burst_schedule(12, ranks(), &BURST, h));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    }

    #[test]
    fn burst_schedule_follows_its_rates() {
        let a = burst_schedule(5, ranks(), &BURST, Duration::from_secs(6));
        let in_burst = a
            .iter()
            .filter(|x| x.due_ns % 2_000_000_000 >= 1_800_000_000)
            .count();
        let calm = a.len() - in_burst;
        // Expected: 3 × (1.8 s × 2 000) = 10 800 calm, 3 × (0.2 s × 20 000) = 12 000 burst.
        assert!((10_100..11_500).contains(&calm), "calm arrivals {calm}");
        assert!(
            (11_300..12_700).contains(&in_burst),
            "burst arrivals {in_burst}"
        );
    }

    #[test]
    fn activity_order_puts_heavy_readers_first() {
        use rm_dataset::ids::BookIdx;
        let pairs = [(0, 1), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 4)]
            .map(|(u, b)| (UserIdx(u), BookIdx(b)));
        let train = Interactions::from_pairs(4, 5, &pairs);
        let order: Vec<u32> = by_activity(&train).iter().map(|u| u.0).collect();
        assert_eq!(order, vec![2, 1, 0, 3]);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut s = shuffled_users(9, 1_000);
        assert_ne!(s, (0..1_000u32).map(UserIdx).collect::<Vec<_>>());
        s.sort_by_key(|u| u.0);
        assert_eq!(s, (0..1_000u32).map(UserIdx).collect::<Vec<_>>());
    }
}
