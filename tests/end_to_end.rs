//! Cross-crate integration: the full generate → prepare → split → train →
//! recommend → evaluate flow, with structural invariants at each joint.

use reading_machine::core::bpr::BprModel;
use reading_machine::core::persist::PersistModel;
use reading_machine::dataset::corpus::Source as CorpusSource;
use reading_machine::prelude::*;

fn harness() -> Harness {
    Harness::generate(7, Preset::Tiny)
}

#[test]
fn split_partitions_every_users_readings() {
    let h = harness();
    let by_user = h.corpus.readings_by_user();
    for (u, user_readings) in by_user.iter().enumerate() {
        let user = UserIdx(u as u32);
        let train = h.split.train.seen(user).len();
        let val = h.split.validation[u].len();
        let test = h.split.test[u].len();
        assert_eq!(train + val + test, user_readings.len(), "user {u}");
        // Only BCT users have test books.
        if h.corpus.users[u].source == CorpusSource::Anobii {
            assert_eq!(test, 0, "anobii user {u} must have no test split");
        }
    }
}

#[test]
fn every_recommender_respects_the_contract() {
    let h = harness();
    let suite = TrainedSuite::train(
        &h,
        BprConfig {
            factors: 6,
            epochs: 4,
            ..BprConfig::default()
        },
        SummaryFields::BEST,
        7,
    );
    let n_books = h.corpus.n_books() as u32;
    let cases = h.test_cases();
    for rec in [
        &suite.random as &dyn Recommender,
        &suite.most_read,
        &suite.closest,
        &suite.bpr,
    ] {
        for case in cases.iter().take(15) {
            let seen = h.split.train.seen(case.user);
            let recs = rec.recommend(case.user, 20);
            assert!(recs.len() <= 20);
            let mut dedup = recs.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(
                dedup.len(),
                recs.len(),
                "{}: duplicate recommendations",
                rec.name()
            );
            for &b in &recs {
                assert!(b < n_books, "{}: book out of range", rec.name());
                assert!(
                    seen.binary_search(&b).is_err(),
                    "{}: recommended an already-read book",
                    rec.name()
                );
            }
            // The top-k list is a prefix of the full ranking.
            let full = rec.rank_all(case.user);
            assert_eq!(
                recs[..],
                full[..recs.len()],
                "{}: prefix property",
                rec.name()
            );
            assert_eq!(
                full.len(),
                n_books as usize - seen.len(),
                "{}: full ranking size",
                rec.name()
            );
        }
    }
}

#[test]
fn kpis_are_internally_consistent() {
    let h = harness();
    let mut bpr = Bpr::new(BprConfig {
        factors: 6,
        epochs: 6,
        ..BprConfig::default()
    });
    h.fit_timed(&mut bpr);
    let cases = h.test_cases();
    let ks = [1usize, 5, 10, 20];
    let kpis = evaluate_at(&bpr, &cases, &ks);
    for w in kpis.windows(2) {
        assert!(w[1].urr >= w[0].urr);
        assert!(w[1].nrr >= w[0].nrr);
        assert!(w[1].recall >= w[0].recall);
    }
    for k in &kpis {
        assert!(k.urr <= 1.0 && k.urr >= 0.0);
        assert!(k.nrr >= k.urr, "NRR >= URR");
        assert!(k.precision <= 1.0);
        assert!(k.recall <= 1.0 + 1e-12);
        assert!(k.first_rank >= 1.0);
        // NRR = precision · k when every user has >= k unseen books.
        assert!((k.nrr - k.precision * k.k as f64).abs() < 1e-6);
    }
}

#[test]
fn bct_only_variant_evaluates_same_users() {
    let h = harness();
    let (bpr, local_cases) = h.bct_only_bpr(BprConfig {
        factors: 6,
        epochs: 4,
        ..BprConfig::default()
    });
    assert_eq!(local_cases.len(), h.test_cases().len());
    let kpis = evaluate(&bpr, &local_cases, 10);
    assert_eq!(kpis.n_users, local_cases.len());
}

#[test]
fn model_persistence_round_trips_through_bytes() {
    let h = harness();
    let mut bpr = Bpr::new(BprConfig {
        factors: 6,
        epochs: 4,
        ..BprConfig::default()
    });
    h.fit_timed(&mut bpr);
    let bytes = bpr.model().unwrap().to_bytes();
    let model = BprModel::from_bytes(&bytes).unwrap();
    let mut restored = Bpr::new(bpr.config().clone());
    restored.install(model, &h.split.train);
    let u = h.test_cases()[0].user;
    assert_eq!(bpr.recommend(u, 20), restored.recommend(u, 20));
}

#[test]
fn corpus_books_carry_merged_attributes() {
    let h = harness();
    for b in &h.corpus.books {
        assert!(!b.title.is_empty());
        assert!(!b.authors.is_empty());
        // Anobii attributes came through the join.
        assert!(!b.plot.is_empty());
        assert!(!b.genres.is_empty());
        let p: f32 = b.genres.iter().map(|&(_, p)| p).sum();
        assert!((p - 1.0).abs() < 1e-4);
    }
}
