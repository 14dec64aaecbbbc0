//! Answer checks and answer quality.
//!
//! Every answer must hold at most k books, no duplicates, and no book
//! the user already borrowed. Violations are counted as failures and
//! fail the run. Quality is URR@10 / NRR@10 as `rm_eval` defines them:
//! the share of users with at least one held-out book in their top 10,
//! and the mean number of such books.

use crate::schedule::shuffled_users;
use crate::world::{CORPUS_SEED, K};
use rm_dataset::ids::UserIdx;
use rm_dataset::interactions::Interactions;
use rm_serve::ServingEngine;
use rm_util::rng::derive_seed_str;

/// Counts answer-check violations and keeps the first message.
#[derive(Debug, Default)]
pub struct Violations {
    /// Violations seen.
    pub count: u64,
    /// The first violation, for the error report.
    pub first: Option<String>,
}

impl Violations {
    /// Records a violation.
    pub fn note(&mut self, message: impl FnOnce() -> String) {
        self.count += 1;
        if self.first.is_none() {
            self.first = Some(message());
        }
    }

    /// Adds another tally's violations to this one.
    pub fn absorb(&mut self, other: Self) {
        self.count += other.count;
        if self.first.is_none() {
            self.first = other.first;
        }
    }

    /// Checks one answer; returns whether it passed.
    pub fn check_answer(&mut self, train: &Interactions, user: UserIdx, books: &[u32]) -> bool {
        if books.len() > K {
            self.note(|| format!("user {}: {} books > k={K}", user.0, books.len()));
            return false;
        }
        for (i, b) in books.iter().enumerate() {
            if books[..i].contains(b) {
                self.note(|| format!("user {}: duplicate book {b} in {books:?}", user.0));
                return false;
            }
        }
        let seen = train.seen(user);
        if let Some(b) = books.iter().find(|b| seen.binary_search(b).is_ok()) {
            self.note(|| format!("user {}: already-borrowed book {b} recommended", user.0));
            return false;
        }
        true
    }

    /// Checks that two answers for one user agree.
    pub fn check_equal(&mut self, what: &str, user: UserIdx, a: &[u32], b: &[u32]) -> bool {
        if a == b {
            return true;
        }
        self.note(|| format!("user {}: {what}: {a:?} != {b:?}", user.0));
        false
    }
}

/// Held-out users whose answers measure quality.
pub const QUALITY_USERS: usize = 1_000;

/// Held-out books among the first k of `books`.
fn hits(test: &[u32], books: &[u32]) -> u64 {
    books
        .iter()
        .take(K)
        .filter(|b| test.binary_search(b).is_ok())
        .count() as u64
}

/// URR@10 and NRR@10 of the engine's full-service answers for a fixed
/// sample of [`QUALITY_USERS`] users with held-out books (drawn from the
/// corpus seed, so every run scores the same users). Explained requests
/// bypass the cache in both directions, so this leaves the cache as it
/// found it. Each answer is also checked.
pub fn served_quality(
    engine: &ServingEngine,
    train: &Interactions,
    test: &[Vec<u32>],
    violations: &mut Violations,
) -> (f64, f64) {
    let users: Vec<UserIdx> = shuffled_users(derive_seed_str(CORPUS_SEED, "quality"), test.len())
        .into_iter()
        .filter(|u| !test[u.index()].is_empty())
        .take(QUALITY_USERS)
        .collect();
    let (mut users_hit, mut total) = (0u64, 0u64);
    for &u in &users {
        let books = engine.recommend_explained(u, K).0;
        violations.check_answer(train, u, &books);
        let h = hits(&test[u.index()], &books);
        total += h;
        users_hit += u64::from(h > 0);
    }
    let n = users.len().max(1) as f64;
    (users_hit as f64 / n, total as f64 / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_dataset::ids::BookIdx;

    fn train() -> Interactions {
        Interactions::from_pairs(2, 20, &[(UserIdx(0), BookIdx(3)), (UserIdx(0), BookIdx(5))])
    }

    #[test]
    fn answer_checks_catch_each_violation() {
        let t = train();
        let mut v = Violations::default();
        assert!(v.check_answer(&t, UserIdx(0), &[1, 2, 4]));
        assert!(!v.check_answer(&t, UserIdx(0), &[1, 2, 1]));
        assert!(!v.check_answer(&t, UserIdx(0), &[1, 5]));
        assert!(!v.check_answer(&t, UserIdx(1), &(0..11).collect::<Vec<u32>>()));
        assert!(!v.check_equal("batch vs single", UserIdx(1), &[1], &[2]));
        assert_eq!(v.count, 4);
        assert!(v.first.as_deref().is_some_and(|m| m.contains("duplicate")));
    }

    #[test]
    fn hits_count_held_out_books_in_the_top_k() {
        assert_eq!(hits(&[1, 2, 7], &[2, 9, 1]), 2);
        assert_eq!(hits(&[1], &[]), 0);
        let long: Vec<u32> = (0..20).collect();
        assert_eq!(hits(&[15], &long), 0, "book 15 is past k");
    }
}
