//! The five KPIs of Section 5.
//!
//! All KPIs average over the evaluation users (BCT users with a non-empty
//! test set). One full ranking per user serves every KPI and every `k`
//! simultaneously:
//!
//! * **URR** (Eq. 4) — fraction of users with ≥ 1 relevant book in their
//!   top-k;
//! * **NRR** (Eq. 5) — mean number of relevant books in the top-k;
//! * **Precision** (Eq. 6) — mean `|T_u ∩ R_u| / |R_u|`;
//! * **Recall** (Eq. 7) — mean `|T_u ∩ R_u| / |T_u|`;
//! * **FR** — mean rank (1-based) of the first relevant book over the full
//!   ranking; independent of `k`. A user none of whose test books appear
//!   in the ranking contributes `ranking length + 1` — one position past
//!   the end, strictly worse than a last-place hit, per the paper's §5
//!   convention of penalising a miss beyond the list (cannot happen with
//!   the in-tree recommenders, whose rankings cover all unseen books, but
//!   the sentinel keeps the metric total).

use crate::split::Split;
use rm_core::Recommender;
use rm_dataset::ids::UserIdx;

/// One evaluation case: a user (in the recommender's index space) plus
/// their sorted test books.
#[derive(Debug, Clone)]
pub struct UserCase<'a> {
    /// User index *in the recommender's training matrix*.
    pub user: UserIdx,
    /// The user's test books, sorted ascending.
    pub test: &'a [u32],
}

/// The KPI values at one `k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kpis {
    /// Recommendation list length.
    pub k: usize,
    /// Users with Relevant Recommendations (Eq. 4).
    pub urr: f64,
    /// Average Number of Relevant Recommendations (Eq. 5).
    pub nrr: f64,
    /// Precision (Eq. 6).
    pub precision: f64,
    /// Recall (Eq. 7).
    pub recall: f64,
    /// Average First Rank position (1-based; k-independent).
    pub first_rank: f64,
    /// Number of users evaluated.
    pub n_users: usize,
}

/// Exact per-user outcomes over a run of cases, in case order: all the
/// KPIs need, before any float is summed. Evaluator threads produce these
/// for their chunks; only [`Counts::into_kpis`] sums floats, once and in
/// case order, so the KPIs are bit-identical for every thread count.
#[derive(Debug, Default)]
struct Counts {
    /// Per user: the first relevant rank (the miss sentinel when none)
    /// and the test-set size.
    users: Vec<(usize, usize)>,
    /// Per user and `k`, row-major: the hits in the top-k and the list
    /// length reached, `min(k, ranking length)`.
    per_k: Vec<(u64, usize)>,
}

impl Counts {
    fn into_kpis(self, ks: &[usize]) -> Vec<Kpis> {
        let n_users = self.users.len();
        let denom = n_users.max(1) as f64;
        let mut first_rank_sum = 0.0;
        for &(first_rank, _) in &self.users {
            first_rank_sum += first_rank as f64;
        }
        ks.iter()
            .enumerate()
            .map(|(ki, &k)| {
                let (mut hits, mut users_hit) = (0u64, 0u64);
                let (mut precision, mut recall) = (0.0, 0.0);
                let per_user = self.per_k.iter().skip(ki).step_by(ks.len());
                for (&(_, test_len), &(h, reach)) in self.users.iter().zip(per_user) {
                    hits += h;
                    users_hit += u64::from(h > 0);
                    if reach > 0 {
                        precision += h as f64 / reach as f64;
                    }
                    recall += h as f64 / test_len as f64;
                }
                Kpis {
                    k,
                    urr: users_hit as f64 / denom,
                    nrr: hits as f64 / denom,
                    precision: precision / denom,
                    recall: recall / denom,
                    first_rank: first_rank_sum / denom,
                    n_users,
                }
            })
            .collect()
    }
}

/// Users per [`Recommender::recommend_batch`] call inside
/// [`count`]: large enough to amortise per-batch setup (score
/// buffers), small enough to keep at most a few full rankings resident.
const EVAL_BATCH: usize = 64;

/// One ranking pass per user over a chunk of cases, reduced to exact
/// [`Counts`] and batched through
/// [`Recommender::recommend_batch_into`] so models that amortise per-call
/// setup across a batch (BPR's score buffer, Closest Items' similarity
/// buffer) serve the evaluator at batch speed. The ranking pool and the
/// per-position hit counters persist across chunks, so per-user scoring
/// does not touch the allocator once the buffers reach steady state.
fn count(rec: &dyn Recommender, cases: &[UserCase<'_>], ks: &[usize]) -> Counts {
    let max_k = *ks.iter().max().expect("non-empty ks");
    let mut counts = Counts::default();

    let live: Vec<&UserCase<'_>> = cases.iter().filter(|c| !c.test.is_empty()).collect();
    let mut users: Vec<UserIdx> = Vec::with_capacity(EVAL_BATCH);
    let mut rankings: Vec<Vec<u32>> = Vec::with_capacity(EVAL_BATCH);
    let mut hits_at: Vec<u32> = Vec::new();
    for chunk in live.chunks(EVAL_BATCH) {
        users.clear();
        users.extend(chunk.iter().map(|c| c.user));
        // Full rankings (k unbounded): FR needs the first relevant
        // position wherever it falls.
        rec.recommend_batch_into(&users, usize::MAX, &mut rankings);
        debug_assert_eq!(rankings.len(), chunk.len(), "recommend_batch contract");
        for (case, ranking) in chunk.iter().zip(&rankings) {
            // First relevant rank + cumulative hit counts at each position
            // up to max_k.
            let mut first_rank: Option<usize> = None;
            hits_at.clear();
            hits_at.resize(max_k + 1, 0);
            let mut hits = 0u32;
            for (pos, &b) in ranking.iter().enumerate() {
                let relevant = case.test.binary_search(&b).is_ok();
                if relevant && first_rank.is_none() {
                    first_rank = Some(pos + 1);
                }
                if pos < max_k {
                    if relevant {
                        hits += 1;
                    }
                    hits_at[pos + 1] = hits;
                } else if first_rank.is_some() {
                    break;
                }
            }
            // A miss is charged one rank past the end of the list —
            // strictly worse than a hit at the last position.
            let first_rank = first_rank.unwrap_or(ranking.len() + 1);
            counts.users.push((first_rank, case.test.len()));
            for &k in ks {
                let reach = k.min(ranking.len());
                counts
                    .per_k
                    .push((u64::from(hits_at[reach.min(max_k)]), reach));
            }
        }
    }
    counts
}

/// Evaluates a recommender at several `k` values with one ranking pass per
/// user. `ks` must be non-empty; cases with an empty test set are skipped.
#[must_use]
pub fn evaluate_at(rec: &dyn Recommender, cases: &[UserCase<'_>], ks: &[usize]) -> Vec<Kpis> {
    assert!(!ks.is_empty(), "need at least one k");
    count(rec, cases, ks).into_kpis(ks)
}

/// Parallel [`evaluate_at`]: users are split across `threads` chunks and
/// each chunk is ranked and reduced to exact per-user counts on its own
/// thread. The float sums then run once, in case order, so every KPI is
/// bit-identical to the serial version for every thread count.
///
/// # Panics
///
/// Panics if `ks` is empty or `threads == 0`.
#[must_use]
pub fn evaluate_at_parallel(
    rec: &(dyn Recommender + Sync),
    cases: &[UserCase<'_>],
    ks: &[usize],
    threads: usize,
) -> Vec<Kpis> {
    assert!(!ks.is_empty(), "need at least one k");
    assert!(threads > 0, "need at least one thread");
    if threads == 1 || cases.len() < 2 * threads {
        return evaluate_at(rec, cases, ks);
    }
    let chunk = cases.len().div_ceil(threads);
    let partials: Vec<Counts> = std::thread::scope(|scope| {
        let handles: Vec<_> = cases
            .chunks(chunk)
            .map(|slice| scope.spawn(move || count(rec, slice, ks)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("evaluator thread panicked"))
            .collect()
    });
    let mut total = Counts::default();
    for p in partials {
        total.users.extend(p.users);
        total.per_k.extend(p.per_k);
    }
    total.into_kpis(ks)
}

/// Evaluates at a single `k`.
#[must_use]
pub fn evaluate(rec: &dyn Recommender, cases: &[UserCase<'_>], k: usize) -> Kpis {
    evaluate_at(rec, cases, &[k])[0]
}

/// Parallel [`evaluate`].
#[must_use]
pub fn evaluate_parallel(
    rec: &(dyn Recommender + Sync),
    cases: &[UserCase<'_>],
    k: usize,
    threads: usize,
) -> Kpis {
    evaluate_at_parallel(rec, cases, &[k], threads)[0]
}

/// The machine's available parallelism (1 when unknown).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Builds the standard evaluation cases from a split: every user with a
/// non-empty test set, identified in the full corpus index space.
#[must_use]
pub fn test_cases(split: &Split) -> Vec<UserCase<'_>> {
    split
        .test
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_empty())
        .map(|(u, t)| UserCase {
            user: UserIdx(u as u32),
            test: t,
        })
        .collect()
}

/// Builds validation cases (used by the grid search, which selects by
/// validation URR).
#[must_use]
pub fn validation_cases(split: &Split) -> Vec<UserCase<'_>> {
    split
        .validation
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .map(|(u, v)| UserCase {
            user: UserIdx(u as u32),
            test: v,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_dataset::ids::BookIdx;
    use rm_dataset::interactions::Interactions;

    /// A recommender with a fixed global ranking (book 0 best), excluding
    /// seen books.
    struct FixedRanking {
        train: Interactions,
    }

    impl Recommender for FixedRanking {
        fn name(&self) -> &str {
            "fixed"
        }
        fn fit(&mut self, _train: &Interactions) {}
        fn score(&self, _u: UserIdx, b: BookIdx) -> f32 {
            -(b.0 as f32)
        }
        fn recommend(&self, user: UserIdx, k: usize) -> Vec<u32> {
            let seen = self.train.seen(user);
            (0..self.train.n_books() as u32)
                .filter(|b| seen.binary_search(b).is_err())
                .take(k)
                .collect()
        }
        fn rank_all(&self, user: UserIdx) -> Vec<u32> {
            self.recommend(user, self.train.n_books())
        }
    }

    fn rec() -> FixedRanking {
        FixedRanking {
            train: Interactions::from_pairs(2, 10, &[(UserIdx(0), BookIdx(0))]),
        }
    }

    #[test]
    fn kpis_hand_computed() {
        // User 0: seen {0}, ranking = 1..9. Test {2, 9}.
        // k=3 → recs {1,2,3}: hits 1; first relevant rank = 2.
        let r = rec();
        let test = [2u32, 9];
        let cases = [UserCase {
            user: UserIdx(0),
            test: &test,
        }];
        let k3 = evaluate(&r, &cases, 3);
        assert_eq!(k3.n_users, 1);
        assert_eq!(k3.urr, 1.0);
        assert_eq!(k3.nrr, 1.0);
        assert!((k3.precision - 1.0 / 3.0).abs() < 1e-12);
        assert!((k3.recall - 0.5).abs() < 1e-12);
        assert_eq!(k3.first_rank, 2.0);
    }

    #[test]
    fn k1_miss_counts_zero() {
        let r = rec();
        let test = [2u32];
        let cases = [UserCase {
            user: UserIdx(0),
            test: &test,
        }];
        let k1 = evaluate(&r, &cases, 1);
        assert_eq!(k1.urr, 0.0);
        assert_eq!(k1.nrr, 0.0);
        assert_eq!(k1.precision, 0.0);
        assert_eq!(k1.recall, 0.0);
        assert_eq!(k1.first_rank, 2.0); // FR ignores k
    }

    #[test]
    fn multi_k_consistent_with_single_k() {
        let r = rec();
        let test = [2u32, 5, 9];
        let cases = [UserCase {
            user: UserIdx(0),
            test: &test,
        }];
        let multi = evaluate_at(&r, &cases, &[1, 3, 5, 9]);
        for kpi in &multi {
            let single = evaluate(&r, &cases, kpi.k);
            assert_eq!(kpi, &single, "k = {}", kpi.k);
        }
    }

    #[test]
    fn averaging_over_users() {
        let r = rec();
        let t0 = [1u32]; // hit at rank 1 for user 0
        let t1 = [9u32]; // user 1 (nothing seen): rank of 9 is 10
        let cases = [
            UserCase {
                user: UserIdx(0),
                test: &t0,
            },
            UserCase {
                user: UserIdx(1),
                test: &t1,
            },
        ];
        let k = evaluate(&r, &cases, 1);
        assert_eq!(k.n_users, 2);
        assert_eq!(k.urr, 0.5);
        assert_eq!(k.nrr, 0.5);
        assert_eq!(k.first_rank, (1.0 + 10.0) / 2.0);
    }

    #[test]
    fn miss_sentinel_is_one_past_the_list() {
        let r = rec();
        // User 0's ranking is 1..=9 (book 0 is excluded as seen): 9
        // items. A hit at the very last position scores rank 9 …
        let last = [9u32];
        let hit = evaluate(
            &r,
            &[UserCase {
                user: UserIdx(0),
                test: &last,
            }],
            1,
        );
        assert_eq!(hit.first_rank, 9.0);
        // … while a test book that never appears in the ranking is
        // charged one rank past the end — strictly worse than any hit.
        let missing = [0u32];
        let miss = evaluate(
            &r,
            &[UserCase {
                user: UserIdx(0),
                test: &missing,
            }],
            1,
        );
        assert_eq!(miss.first_rank, 10.0);
        assert!(miss.first_rank > hit.first_rank);
    }

    #[test]
    fn empty_test_users_skipped() {
        let r = rec();
        let t: [u32; 0] = [];
        let t1 = [1u32];
        let cases = [
            UserCase {
                user: UserIdx(0),
                test: &t,
            },
            UserCase {
                user: UserIdx(1),
                test: &t1,
            },
        ];
        let k = evaluate(&r, &cases, 5);
        assert_eq!(k.n_users, 1);
        assert_eq!(k.urr, 1.0);
    }

    #[test]
    fn urr_bounded_by_one_nrr_by_test_size() {
        let r = rec();
        let test = [1u32, 2, 3];
        let cases = [UserCase {
            user: UserIdx(0),
            test: &test,
        }];
        let k = evaluate(&r, &cases, 9);
        assert_eq!(k.urr, 1.0);
        assert_eq!(k.nrr, 3.0);
        assert_eq!(k.recall, 1.0);
    }

    #[test]
    fn parallel_matches_serial() {
        let r = rec();
        // Test sets of one to seven books: recall divides by 3, 6 and 7
        // and precision by 3 and 7, so the float sums are inexact and
        // would change with any other summation order.
        let tests: Vec<Vec<u32>> = (0..40)
            .map(|i: u32| {
                let mut t: Vec<u32> = (0..1 + i % 7).map(|j| (i * 3 + j * 7) % 10).collect();
                t.sort_unstable();
                t
            })
            .collect();
        let cases: Vec<UserCase<'_>> = tests
            .iter()
            .map(|t| UserCase {
                user: UserIdx(1),
                test: t,
            })
            .collect();
        let ks = [1usize, 3, 7];
        let serial = evaluate_at(&r, &cases, &ks);
        for threads in [1usize, 2, 3, 4, 7] {
            let parallel = evaluate_at_parallel(&r, &cases, &ks, threads);
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.urr, p.urr, "threads {threads}");
                assert_eq!(s.nrr, p.nrr, "threads {threads}");
                assert_eq!(
                    s.precision.to_bits(),
                    p.precision.to_bits(),
                    "threads {threads}"
                );
                assert_eq!(s.recall.to_bits(), p.recall.to_bits(), "threads {threads}");
                assert_eq!(
                    s.first_rank.to_bits(),
                    p.first_rank.to_bits(),
                    "threads {threads}"
                );
                assert_eq!(s.n_users, p.n_users);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one k")]
    fn empty_ks_rejected() {
        let r = rec();
        let _ = evaluate_at(&r, &[], &[]);
    }

    /// Wraps [`FixedRanking`] to observe how the harness drives the batch
    /// path: counts calls and whether the ranking pool's first buffer kept
    /// its allocation between chunks.
    struct PoolProbe {
        inner: FixedRanking,
        calls: std::cell::Cell<usize>,
        reuses: std::cell::Cell<usize>,
        last_ptr: std::cell::Cell<*const u32>,
    }

    impl Recommender for PoolProbe {
        fn name(&self) -> &str {
            "probe"
        }
        fn fit(&mut self, train: &Interactions) {
            self.inner.fit(train);
        }
        fn score(&self, u: UserIdx, b: BookIdx) -> f32 {
            self.inner.score(u, b)
        }
        fn recommend(&self, user: UserIdx, k: usize) -> Vec<u32> {
            self.inner.recommend(user, k)
        }
        fn recommend_batch_into(&self, users: &[UserIdx], k: usize, out: &mut Vec<Vec<u32>>) {
            out.resize_with(users.len(), Vec::new);
            for (&u, slot) in users.iter().zip(out.iter_mut()) {
                slot.clear();
                let seen = self.inner.train.seen(u);
                slot.extend(
                    (0..self.inner.train.n_books() as u32)
                        .filter(|b| seen.binary_search(b).is_err())
                        .take(k),
                );
            }
            if let Some(first) = out.first() {
                if first.as_ptr() == self.last_ptr.get() {
                    self.reuses.set(self.reuses.get() + 1);
                }
                self.last_ptr.set(first.as_ptr());
            }
            self.calls.set(self.calls.get() + 1);
        }
        fn rank_all(&self, user: UserIdx) -> Vec<u32> {
            self.inner.rank_all(user)
        }
    }

    #[test]
    fn harness_reuses_ranking_pool_across_chunks() {
        // More cases than one EVAL_BATCH forces several batch calls; the
        // harness must hand the model the *same* pool each time so ranking
        // buffers are refilled in place (no per-user allocation).
        let probe = PoolProbe {
            inner: FixedRanking {
                train: Interactions::from_pairs(200, 10, &[]),
            },
            calls: std::cell::Cell::new(0),
            reuses: std::cell::Cell::new(0),
            last_ptr: std::cell::Cell::new(std::ptr::null()),
        };
        let tests: Vec<Vec<u32>> = (0..200).map(|i| vec![(i % 10) as u32]).collect();
        let cases: Vec<UserCase<'_>> = tests
            .iter()
            .enumerate()
            .map(|(u, t)| UserCase {
                user: UserIdx(u as u32),
                test: t,
            })
            .collect();
        let kpis = evaluate(&probe, &cases, 3);
        assert_eq!(kpis.n_users, 200);
        let calls = probe.calls.get();
        assert!(calls >= 2, "expected several batch chunks, got {calls}");
        assert_eq!(
            probe.reuses.get(),
            calls - 1,
            "every chunk after the first must see the same pooled buffer"
        );
    }
}
