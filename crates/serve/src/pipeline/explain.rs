//! Per-request explanations rendered from candidate provenance.
//!
//! Every candidate that survives to the final ranking carries the
//! [`SourceId`] and [`Reason`] stamped on it at emission time; an
//! [`Explanation`] is that provenance attached to one recommended book.
//! The serving engine returns them from
//! `ServingEngine::recommend_explained`, and the `explain` CLI
//! subcommand renders them as reader-facing sentences ("because you
//! borrowed X").

use super::sources::{Reason, SourceId};

/// Why one recommended book was recommended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Explanation {
    /// The recommended book.
    pub book: u32,
    /// The source whose provenance won the merge for this book.
    pub source: SourceId,
    /// The source's stated reason.
    pub reason: Reason,
}

impl Explanation {
    /// Renders the reason as a reader-facing sentence fragment. `title`
    /// resolves a book index to a display title (the CLI passes a
    /// corpus-backed closure; tests pass an index formatter).
    #[must_use]
    pub fn render(&self, title: &dyn Fn(u32) -> String) -> String {
        match self.reason {
            Reason::CfNeighbours => {
                "because readers with a borrowing history like yours also read it".to_owned()
            }
            Reason::SimilarToBorrowed { anchor } => {
                format!("because you borrowed {}", title(anchor))
            }
            Reason::MostRead { count } => {
                format!("because it is one of the library's most-read books ({count} readings)")
            }
            Reason::Exploration => "an exploration pick to broaden your shelf".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_anchor_title_for_content_similarity() {
        let ex = Explanation {
            book: 4,
            source: SourceId::ContentSimilar,
            reason: Reason::SimilarToBorrowed { anchor: 9 },
        };
        let rendered = ex.render(&|b| format!("book-{b}"));
        assert_eq!(rendered, "because you borrowed book-9");
    }

    #[test]
    fn renders_read_count_for_popularity() {
        let ex = Explanation {
            book: 1,
            source: SourceId::MostRead,
            reason: Reason::MostRead { count: 37 },
        };
        assert!(ex.render(&|_| String::new()).contains("37 readings"));
    }
}
