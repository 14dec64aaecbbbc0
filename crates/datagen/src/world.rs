//! The shared book world: authors, books, catalogue views.
//!
//! Books are generated genre-by-popularity so the reading sampler can draw
//! "a popular book of genre g visible in source s" in O(1). The same world
//! book is rendered into both catalogue tables (with the same title and
//! author, which is the join key of the merge stage); each table
//! additionally receives noise rows — foreign-language editions, DVDs,
//! non-book items — that the Section 3 filters must remove.

use crate::config::{GeneratorConfig, WorldConfig};
use crate::lexicon::{render_author, render_plot, render_title, GenreLexicon, WordPool};
use rand::seq::SliceRandom;
use rand::{Rng, RngExt};
use rm_dataset::genre::{genre_id, GenreId, N_RAW_GENRES};
use rm_dataset::ids::{AnobiiItemId, BctBookId};
use rm_dataset::tables::{
    AnobiiItemRow, AnobiiItemsTable, BctBookRow, BctBooksTable, ItemType, Language,
};
use rm_util::rng::SeedTree;
use rm_util::sample::{AliasTable, ZipfWeights};

/// Which catalogue(s) a world book appears in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Membership {
    /// Present in both catalogues (merge candidate).
    Overlap,
    /// BCT exclusive.
    BctOnly,
    /// Anobii exclusive.
    AnobiiOnly,
}

/// Which source's popularity profile a draw follows. Within-genre
/// popularity diverges between the two publics (controlled by
/// [`crate::config::WorldConfig::popularity_divergence`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopView {
    /// The library public's popularity.
    Bct,
    /// The Anobii community's popularity.
    Anobii,
}

/// One book of the world.
#[derive(Debug, Clone)]
pub struct WorldBook {
    /// Title (identical in both catalogue views).
    pub title: String,
    /// Index into [`World::authors`].
    pub author: u32,
    /// Sub-community within the primary genre (inherited from the
    /// author; invisible to metadata).
    pub subcluster: u8,
    /// Primary genre (raw taxonomy).
    pub primary_genre: u8,
    /// Secondary genre.
    pub secondary_genre: u8,
    /// Catalogue membership.
    pub membership: Membership,
    /// Plot synopsis (rendered into the Anobii view).
    pub plot: String,
    /// Keywords (Anobii view).
    pub keywords: Vec<String>,
    /// Crowd-sourced genre votes (Anobii view).
    pub genre_votes: Vec<(GenreId, u32)>,
    /// Row id in the generated BCT Books table, when present there.
    pub bct_id: Option<BctBookId>,
    /// Row id in the generated Anobii Items table, when present there.
    pub anobii_id: Option<AnobiiItemId>,
}

/// One author.
#[derive(Debug, Clone)]
pub struct Author {
    /// Display name (used in both catalogue views).
    pub name: String,
    /// The genre most of this author's books belong to.
    pub home_genre: u8,
    /// Sub-community within the home genre.
    pub subcluster: u8,
}

/// A weighted book pool.
#[derive(Debug, Clone)]
struct CellSampler {
    books: Vec<u32>,
    alias: AliasTable,
}

impl CellSampler {
    fn build(ids: Vec<u32>, weight_of: impl Fn(u32) -> f64) -> Option<Self> {
        if ids.is_empty() {
            return None;
        }
        let weights: Vec<f64> = ids.iter().map(|&i| weight_of(i)).collect();
        Some(Self {
            alias: AliasTable::new(&weights),
            books: ids,
        })
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        self.books[self.alias.sample(rng)]
    }
}

/// Samplers of one (view, class, genre) cell: the whole genre plus one
/// pool per sub-community.
#[derive(Debug, Clone)]
struct GenreSampler {
    all: CellSampler,
    by_sub: Vec<Option<CellSampler>>,
}

/// The generated world.
#[derive(Debug)]
pub struct World {
    /// All books (overlap first, then BCT-only, then Anobii-only).
    pub books: Vec<WorldBook>,
    /// All authors.
    pub authors: Vec<Author>,
    /// Books per author (indices into `books`).
    pub author_books: Vec<Vec<u32>>,
    /// `samplers[view][class][genre]`.
    samplers: [[Vec<Option<GenreSampler>>; 3]; 2],
    bct_table: BctBooksTable,
    anobii_table: AnobiiItemsTable,
}

fn class_index(m: Membership) -> usize {
    match m {
        Membership::Overlap => 0,
        Membership::BctOnly => 1,
        Membership::AnobiiOnly => 2,
    }
}

fn view_index(v: PopView) -> usize {
    match v {
        PopView::Bct => 0,
        PopView::Anobii => 1,
    }
}

impl World {
    /// Generates the world under `tree`'s seed.
    #[must_use]
    pub fn generate(tree: &SeedTree, config: &GeneratorConfig) -> Self {
        let wc = &config.world;
        let generic = WordPool::generate(&tree.child("generic"), wc.generic_lexicon_size);
        let surnames = WordPool::generate(&tree.child("surnames"), 2_000);
        let lexicons: Vec<GenreLexicon> = (0..N_RAW_GENRES)
            .map(|g| GenreLexicon::generate(tree, g, wc.genre_lexicon_size))
            .collect();

        let mut rng = tree.child("books").rng();
        let genre_alias = AliasTable::new(&wc.book_genre_shares);
        let pop = ZipfWeights::with_shift(wc.popularity_zipf, wc.popularity_shift);

        // --- Books, class by class so overlap books take the popular
        // within-genre ranks (libraries stock what is popular). ---
        let class_sizes = [
            (Membership::Overlap, wc.n_overlap_books),
            (Membership::BctOnly, wc.n_bct_only_books),
            (Membership::AnobiiOnly, wc.n_anobii_only_books),
        ];
        let mut books: Vec<WorldBook> =
            Vec::with_capacity(class_sizes.iter().map(|&(_, n)| n).sum());
        let mut genre_rank = vec![0usize; N_RAW_GENRES];
        let mut popularity: Vec<f64> = Vec::with_capacity(books.capacity());
        for (membership, n) in class_sizes {
            for _ in 0..n {
                let primary = genre_alias.sample(&mut rng) as u8;
                let secondary = loop {
                    let s = genre_alias.sample(&mut rng) as u8;
                    if s != primary {
                        break s;
                    }
                };
                let themed = &lexicons[primary as usize].themed;
                let title = render_title(&mut rng, &generic, themed, 0.15);
                let plot = render_plot(&mut rng, &generic, themed, wc.plot_len, 0.28);
                // Keywords are crowd-sourced and noisy: fewer than half
                // come from the genre's vocabulary, the rest are generic.
                let keywords: Vec<String> = (0..wc.n_keywords)
                    .map(|_| {
                        if rng.random_bool(0.4) {
                            themed.sample(&mut rng).to_owned()
                        } else {
                            generic.sample(&mut rng).to_owned()
                        }
                    })
                    .collect();
                let genre_votes = Self::sample_genre_votes(&mut rng, primary, secondary);
                let rank = genre_rank[primary as usize];
                genre_rank[primary as usize] += 1;
                popularity.push(pop.weight(rank));
                books.push(WorldBook {
                    title,
                    author: u32::MAX, // assigned below
                    subcluster: 0,    // inherited from the author below
                    primary_genre: primary,
                    secondary_genre: secondary,
                    membership,
                    plot,
                    keywords,
                    genre_votes,
                    bct_id: None,
                    anobii_id: None,
                });
            }
        }

        // --- Authors: per genre, enough authors for the genre's books at
        // the configured productivity; assignment is Zipf so head authors
        // carry long series. ---
        let mut author_rng = tree.child("authors").rng();
        let mut authors: Vec<Author> = Vec::new();
        let mut author_books: Vec<Vec<u32>> = Vec::new();
        let comics = genre_id("Comics").expect("Comics in taxonomy").0;
        for g in 0..N_RAW_GENRES {
            let genre_books: Vec<u32> = books
                .iter()
                .enumerate()
                .filter(|(_, b)| b.primary_genre == g as u8)
                .map(|(i, _)| i as u32)
                .collect();
            if genre_books.is_empty() {
                continue;
            }
            let bpa = if g as u8 == comics {
                wc.books_per_author * wc.comics_series_boost
            } else {
                wc.books_per_author
            };
            let n_authors = ((genre_books.len() as f64 / bpa).ceil() as usize).max(1);
            let base = authors.len();
            let n_subs = wc.subclusters_per_genre.max(1);
            for k in 0..n_authors {
                authors.push(Author {
                    name: render_author(&mut author_rng, &surnames),
                    home_genre: g as u8,
                    // Cycle sub-communities so each is populated even when
                    // the genre has few authors.
                    subcluster: (k % n_subs) as u8,
                });
                author_books.push(Vec::new());
            }
            let weights = ZipfWeights::new(1.0).weights(n_authors);
            let author_pick = AliasTable::new(&weights);
            for &b in &genre_books {
                let a = (base + author_pick.sample(&mut author_rng)) as u32;
                books[b as usize].author = a;
                books[b as usize].subcluster = authors[a as usize].subcluster;
                author_books[a as usize].push(b);
            }
        }
        debug_assert!(books.iter().all(|b| b.author != u32::MAX));

        // --- Catalogue tables with noise rows; assign table ids. ---
        let mut table_rng = tree.child("tables").rng();
        let (bct_table, anobii_table) = Self::render_tables(
            &mut table_rng,
            wc,
            &mut books,
            &authors,
            &generic,
            &surnames,
        );

        // --- Divergent per-view popularity: the BCT view blends the
        // Anobii weight with a within-genre permutation of the weights,
        // so the two publics agree partially on what is popular. ---
        let mut perm_rng = tree.child("bct-popularity").rng();
        let mut bct_popularity = popularity.clone();
        let d = wc.popularity_divergence.clamp(0.0, 1.0);
        if d > 0.0 {
            for g in 0..N_RAW_GENRES {
                let ids: Vec<usize> = books
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.primary_genre == g as u8)
                    .map(|(i, _)| i)
                    .collect();
                let mut shuffled = ids.clone();
                shuffled.shuffle(&mut perm_rng);
                for (&orig, &donor) in ids.iter().zip(&shuffled) {
                    bct_popularity[orig] = (1.0 - d) * popularity[orig] + d * popularity[donor];
                }
            }
        }

        // --- Popularity samplers per (view, class, genre, subcluster). ---
        let empty = || -> [Vec<Option<GenreSampler>>; 3] {
            [
                (0..N_RAW_GENRES).map(|_| None).collect(),
                (0..N_RAW_GENRES).map(|_| None).collect(),
                (0..N_RAW_GENRES).map(|_| None).collect(),
            ]
        };
        let mut samplers = [empty(), empty()];
        let n_subs = wc.subclusters_per_genre.max(1);
        for (view, weights) in [(0usize, &bct_popularity), (1, &popularity)] {
            for (class, per_class) in samplers[view].iter_mut().enumerate() {
                for (g, slot) in per_class.iter_mut().enumerate() {
                    let ids: Vec<u32> = books
                        .iter()
                        .enumerate()
                        .filter(|(_, b)| {
                            class_index(b.membership) == class && b.primary_genre == g as u8
                        })
                        .map(|(i, _)| i as u32)
                        .collect();
                    let Some(all) = CellSampler::build(ids.clone(), |i| weights[i as usize]) else {
                        continue;
                    };
                    let by_sub = (0..n_subs)
                        .map(|s| {
                            let sub_ids: Vec<u32> = ids
                                .iter()
                                .copied()
                                .filter(|&i| books[i as usize].subcluster == s as u8)
                                .collect();
                            CellSampler::build(sub_ids, |i| weights[i as usize])
                        })
                        .collect();
                    *slot = Some(GenreSampler { all, by_sub });
                }
            }
        }

        Self {
            books,
            authors,
            author_books,
            samplers,
            bct_table,
            anobii_table,
        }
    }

    /// Crowd-sourced genre votes for one book: strong primary, weaker
    /// secondary, the near-universal *Fiction and Literature* shelf on most
    /// books, occasional rare shelves — matching the "4 genres per book on
    /// average" and the pruning behaviour of Section 3.
    fn sample_genre_votes<R: Rng + ?Sized>(
        rng: &mut R,
        primary: u8,
        secondary: u8,
    ) -> Vec<(GenreId, u32)> {
        let mut votes = vec![
            (GenreId(primary), 22 + rng.random_range(0..12u32)),
            (GenreId(secondary), 3 + rng.random_range(0..5u32)),
        ];
        if rng.random_bool(0.85) {
            let universal = genre_id("Fiction and Literature").expect("taxonomy");
            // Strictly fewer votes than the primary genre's minimum, so the
            // primary stays the top-voted label.
            votes.push((universal, 5 + rng.random_range(0..8u32)));
        }
        if rng.random_bool(0.5) {
            let other = GenreId(rng.random_range(0..N_RAW_GENRES as u8));
            if other.0 != primary && other.0 != secondary {
                votes.push((other, 1 + rng.random_range(0..2u32)));
            }
        }
        for rare in ["Textbooks", "References", "Self Help"] {
            if rng.random_bool(0.03) {
                votes.push((genre_id(rare).expect("taxonomy"), 1));
            }
        }
        votes
    }

    #[allow(clippy::too_many_lines)]
    fn render_tables<R: Rng + ?Sized>(
        rng: &mut R,
        wc: &WorldConfig,
        books: &mut [WorldBook],
        authors: &[Author],
        generic: &WordPool,
        surnames: &WordPool,
    ) -> (BctBooksTable, AnobiiItemsTable) {
        let mut bct_rows: Vec<BctBookRow> = Vec::new();
        let mut anobii_rows: Vec<AnobiiItemRow> = Vec::new();

        let foreign_langs = [
            Language::English,
            Language::French,
            Language::German,
            Language::Spanish,
        ];

        for (i, book) in books.iter_mut().enumerate() {
            let author_name = authors[book.author as usize].name.clone();
            if matches!(book.membership, Membership::Overlap | Membership::BctOnly) {
                let id = BctBookId(bct_rows.len() as u32);
                book.bct_id = Some(id);
                bct_rows.push(BctBookRow {
                    book_id: id,
                    authors: vec![author_name.clone()],
                    title: book.title.clone(),
                    item_type: if i % 17 == 0 {
                        ItemType::Manuscript
                    } else {
                        ItemType::Monograph
                    },
                    language: Language::Italian,
                });
            }
            if matches!(
                book.membership,
                Membership::Overlap | Membership::AnobiiOnly
            ) {
                let id = AnobiiItemId(anobii_rows.len() as u32);
                book.anobii_id = Some(id);
                anobii_rows.push(AnobiiItemRow {
                    item_id: id,
                    authors: vec![author_name],
                    title: book.title.clone(),
                    language: Language::Italian,
                    plot: book.plot.clone(),
                    keywords: book.keywords.clone(),
                    genre_votes: book.genre_votes.clone(),
                    is_book: true,
                });
            }
        }

        // Noise rows: foreign editions and non-book items that the filters
        // must drop. Titles/authors are freshly generated so they do not
        // collide with real catalogue entries.
        let n_bct = bct_rows.len();
        let n_foreign_bct = (n_bct as f64 * wc.foreign_fraction) as usize;
        let n_nonbook_bct = (n_bct as f64 * wc.non_book_fraction) as usize;
        for k in 0..(n_foreign_bct + n_nonbook_bct) {
            let id = BctBookId(bct_rows.len() as u32);
            let title = render_title(rng, generic, generic, 0.0);
            let author = render_author(rng, surnames);
            let (item_type, language) = if k < n_foreign_bct {
                (ItemType::Monograph, foreign_langs[k % foreign_langs.len()])
            } else {
                (
                    if k % 2 == 0 {
                        ItemType::Dvd
                    } else {
                        ItemType::Periodical
                    },
                    Language::Italian,
                )
            };
            bct_rows.push(BctBookRow {
                book_id: id,
                authors: vec![author],
                title,
                item_type,
                language,
            });
        }

        let n_anobii = anobii_rows.len();
        let n_foreign_a = (n_anobii as f64 * wc.foreign_fraction) as usize;
        let n_nonbook_a = (n_anobii as f64 * wc.non_book_fraction) as usize;
        for k in 0..(n_foreign_a + n_nonbook_a) {
            let id = AnobiiItemId(anobii_rows.len() as u32);
            let title = render_title(rng, generic, generic, 0.0);
            let author = render_author(rng, surnames);
            let (language, is_book) = if k < n_foreign_a {
                (foreign_langs[k % foreign_langs.len()], true)
            } else {
                (Language::Italian, false)
            };
            anobii_rows.push(AnobiiItemRow {
                item_id: id,
                authors: vec![author],
                title,
                language,
                plot: String::new(),
                keywords: Vec::new(),
                genre_votes: Vec::new(),
                is_book,
            });
        }

        (
            BctBooksTable { rows: bct_rows },
            AnobiiItemsTable { rows: anobii_rows },
        )
    }

    /// The generated BCT Books table.
    #[must_use]
    pub fn bct_books_table(&self) -> BctBooksTable {
        self.bct_table.clone()
    }

    /// The generated Anobii Items table.
    #[must_use]
    pub fn anobii_items_table(&self) -> AnobiiItemsTable {
        self.anobii_table.clone()
    }

    /// Number of world books.
    #[must_use]
    pub fn n_books(&self) -> usize {
        self.books.len()
    }

    /// Number of sub-communities per genre (uniform across genres).
    #[must_use]
    pub fn n_subclusters(&self) -> usize {
        self.samplers[0][0]
            .iter()
            .flatten()
            .map(|s| s.by_sub.len())
            .next()
            .unwrap_or(1)
    }

    /// Samples a popularity-weighted book of `genre` in membership class
    /// `m` under popularity view `v`; `None` when that (genre, class) has
    /// no books.
    #[must_use]
    pub fn sample_book<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        genre: u8,
        m: Membership,
        v: PopView,
    ) -> Option<u32> {
        let sampler = self.samplers[view_index(v)][class_index(m)][genre as usize].as_ref()?;
        Some(sampler.all.sample(rng))
    }

    /// Samples a popularity-weighted book of `genre` within sub-community
    /// `sub`, falling back to the whole genre when the sub-community pool
    /// is empty in this (class, view) cell, and to the overlap class when
    /// the preferred class has no books of the genre at all.
    #[must_use]
    pub fn sample_book_sub<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        genre: u8,
        sub: u8,
        preferred: Membership,
        v: PopView,
    ) -> Option<u32> {
        for class in [preferred, Membership::Overlap] {
            if let Some(sampler) =
                self.samplers[view_index(v)][class_index(class)][genre as usize].as_ref()
            {
                if let Some(cell) = sampler.by_sub.get(sub as usize).and_then(Option::as_ref) {
                    return Some(cell.sample(rng));
                }
                return Some(sampler.all.sample(rng));
            }
            if class == preferred && preferred == Membership::Overlap {
                break;
            }
        }
        None
    }

    /// Samples a book of `genre` uniformly (no popularity, no
    /// sub-community), falling back to the overlap class when the
    /// preferred class has no books of the genre.
    #[must_use]
    pub fn sample_book_uniform<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        genre: u8,
        preferred: Membership,
    ) -> Option<u32> {
        for class in [preferred, Membership::Overlap] {
            // Book lists are identical across views; use view 0's.
            if let Some(sampler) = self.samplers[0][class_index(class)][genre as usize].as_ref() {
                let books = &sampler.all.books;
                return Some(books[rng.random_range(0..books.len())]);
            }
        }
        None
    }

    /// Picks uniformly one *other* book by the same author as `book`,
    /// restricted to books visible in `source_classes`; `None` when the
    /// author has no other visible book.
    #[must_use]
    pub fn sample_same_author<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        book: u32,
        source_classes: &[Membership],
    ) -> Option<u32> {
        let author = self.books[book as usize].author;
        let candidates: Vec<u32> = self.author_books[author as usize]
            .iter()
            .copied()
            .filter(|&b| b != book && source_classes.contains(&self.books[b as usize].membership))
            .collect();
        if candidates.is_empty() {
            None
        } else {
            Some(candidates[rng.random_range(0..candidates.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::Preset;

    fn tiny_world() -> World {
        let config = Preset::Tiny.generator_config();
        World::generate(&SeedTree::new(42), &config)
    }

    #[test]
    fn world_is_deterministic() {
        let config = Preset::Tiny.generator_config();
        let a = World::generate(&SeedTree::new(7), &config);
        let b = World::generate(&SeedTree::new(7), &config);
        assert_eq!(a.n_books(), b.n_books());
        for (x, y) in a.books.iter().zip(&b.books) {
            assert_eq!(x.title, y.title);
            assert_eq!(x.author, y.author);
            assert_eq!(x.primary_genre, y.primary_genre);
        }
    }

    #[test]
    fn class_sizes_match_config() {
        let config = Preset::Tiny.generator_config();
        let w = World::generate(&SeedTree::new(42), &config);
        let count = |m: Membership| w.books.iter().filter(|b| b.membership == m).count();
        assert_eq!(count(Membership::Overlap), config.world.n_overlap_books);
        assert_eq!(count(Membership::BctOnly), config.world.n_bct_only_books);
        assert_eq!(
            count(Membership::AnobiiOnly),
            config.world.n_anobii_only_books
        );
    }

    #[test]
    fn table_ids_round_trip() {
        let w = tiny_world();
        let bct = w.bct_books_table();
        let anobii = w.anobii_items_table();
        for b in &w.books {
            if let Some(id) = b.bct_id {
                assert_eq!(bct.rows[id.index()].title, b.title);
            }
            if let Some(id) = b.anobii_id {
                assert_eq!(anobii.rows[id.index()].title, b.title);
            }
            match b.membership {
                Membership::Overlap => assert!(b.bct_id.is_some() && b.anobii_id.is_some()),
                Membership::BctOnly => assert!(b.bct_id.is_some() && b.anobii_id.is_none()),
                Membership::AnobiiOnly => assert!(b.bct_id.is_none() && b.anobii_id.is_some()),
            }
        }
    }

    #[test]
    fn tables_contain_noise_rows() {
        let w = tiny_world();
        let bct = w.bct_books_table();
        assert!(bct.rows.iter().any(|r| r.language != Language::Italian));
        assert!(bct.rows.iter().any(|r| !r.item_type.is_kept()));
        let anobii = w.anobii_items_table();
        assert!(anobii.rows.iter().any(|r| !r.is_book));
        assert!(anobii.rows.iter().any(|r| r.language != Language::Italian));
    }

    #[test]
    fn every_book_has_an_author_with_books_list() {
        let w = tiny_world();
        for (i, b) in w.books.iter().enumerate() {
            assert!(w.author_books[b.author as usize].contains(&(i as u32)));
        }
    }

    #[test]
    fn genre_votes_include_primary_with_most_votes() {
        let w = tiny_world();
        for b in &w.books {
            let max = b.genre_votes.iter().max_by_key(|&&(_, v)| v).unwrap();
            assert_eq!(max.0 .0, b.primary_genre);
        }
    }

    #[test]
    fn sampling_respects_class_and_genre() {
        let w = tiny_world();
        let mut rng = SeedTree::new(9).rng();
        for _ in 0..100 {
            if let Some(b) = w.sample_book(
                &mut rng,
                w.books[0].primary_genre,
                Membership::Overlap,
                PopView::Bct,
            ) {
                assert_eq!(w.books[b as usize].membership, Membership::Overlap);
                assert_eq!(w.books[b as usize].primary_genre, w.books[0].primary_genre);
            }
        }
    }

    #[test]
    fn popularity_views_diverge() {
        // With divergence 1.0 (tiny preset), the popularity *ordering* of
        // a genre under the BCT view must differ from the Anobii view.
        // (Small cells share most of their top-set, so compare orders.)
        let w = tiny_world();
        // Pick the genre with the most overlap books.
        let mut per_genre = std::collections::HashMap::new();
        for b in &w.books {
            if b.membership == Membership::Overlap {
                *per_genre.entry(b.primary_genre).or_insert(0usize) += 1;
            }
        }
        let genre = per_genre.into_iter().max_by_key(|&(_, c)| c).unwrap().0;
        let mut rng = SeedTree::new(77).rng();
        let mut draw_order = |view: PopView| {
            let mut counts = std::collections::HashMap::new();
            for _ in 0..30_000 {
                if let Some(b) = w.sample_book(&mut rng, genre, Membership::Overlap, view) {
                    *counts.entry(b).or_insert(0usize) += 1;
                }
            }
            let mut v: Vec<(u32, usize)> = counts.into_iter().collect();
            v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            v.into_iter().map(|(b, _)| b).take(10).collect::<Vec<u32>>()
        };
        let bct = draw_order(PopView::Bct);
        let anobii = draw_order(PopView::Anobii);
        assert_ne!(bct, anobii, "popularity orderings should diverge");
    }

    #[test]
    fn subcluster_sampling_respects_cell() {
        let w = tiny_world();
        let mut rng = SeedTree::new(78).rng();
        let genre = w.books[0].primary_genre;
        let sub = w.books[0].subcluster;
        let mut hits = 0;
        for _ in 0..100 {
            if let Some(b) =
                w.sample_book_sub(&mut rng, genre, sub, Membership::Overlap, PopView::Anobii)
            {
                let book = &w.books[b as usize];
                assert_eq!(book.primary_genre, genre);
                // Falls back to the whole genre only when the cell is
                // empty, which cannot happen here (book 0 is in it).
                assert_eq!(book.subcluster, sub);
                hits += 1;
            }
        }
        assert!(hits > 0);
    }

    #[test]
    fn uniform_sampling_ignores_popularity() {
        let w = tiny_world();
        let mut rng = SeedTree::new(79).rng();
        let genre = w.books[0].primary_genre;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..6000 {
            if let Some(b) = w.sample_book_uniform(&mut rng, genre, Membership::Overlap) {
                assert_eq!(w.books[b as usize].primary_genre, genre);
                *counts.entry(b).or_insert(0usize) += 1;
            }
        }
        // Uniform: min and max counts within a loose factor.
        let max = counts.values().copied().max().unwrap();
        let min = counts.values().copied().min().unwrap();
        assert!(max < min * 5 + 20, "uniform draw too skewed: {min}..{max}");
    }

    #[test]
    fn books_inherit_author_subcluster() {
        let w = tiny_world();
        for b in &w.books {
            assert_eq!(b.subcluster, w.authors[b.author as usize].subcluster);
            assert!((b.subcluster as usize) < w.n_subclusters());
        }
    }

    #[test]
    fn same_author_sampling_excludes_self_and_respects_visibility() {
        let w = tiny_world();
        let mut rng = SeedTree::new(10).rng();
        // Find an author with at least two overlap books.
        let author = w
            .author_books
            .iter()
            .position(|bs| {
                bs.iter()
                    .filter(|&&b| w.books[b as usize].membership == Membership::Overlap)
                    .count()
                    >= 2
            })
            .expect("some author has two overlap books");
        let book = *w.author_books[author]
            .iter()
            .find(|&&b| w.books[b as usize].membership == Membership::Overlap)
            .unwrap();
        for _ in 0..50 {
            let other = w
                .sample_same_author(&mut rng, book, &[Membership::Overlap])
                .expect("another overlap book exists");
            assert_ne!(other, book);
            assert_eq!(
                w.books[other as usize].author,
                w.books[book as usize].author
            );
            assert_eq!(w.books[other as usize].membership, Membership::Overlap);
        }
    }
}
