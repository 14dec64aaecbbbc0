//! Per-request explanations rendered from candidate provenance.
//!
//! Every candidate that survives to the final ranking carries the
//! [`SourceId`](super::SourceId) and [`Reason`] stamped on it at emission
//! time. The serving engine returns those winning candidates from
//! `ServingEngine::recommend_explained`, and the `explain` CLI
//! subcommand renders their reasons as reader-facing sentences
//! ("because you borrowed X").

use super::sources::Reason;

impl Reason {
    /// Renders the reason as a reader-facing sentence fragment. `title`
    /// resolves a book index to a display title (the CLI passes a
    /// corpus-backed closure; tests pass an index formatter).
    #[must_use]
    pub fn render(&self, title: &dyn Fn(u32) -> String) -> String {
        match *self {
            Self::CfNeighbours => {
                "because readers with a borrowing history like yours also read it".to_owned()
            }
            Self::SimilarToBorrowed { anchor } => {
                format!("because you borrowed {}", title(anchor))
            }
            Self::MostRead { count } => {
                format!("because it is one of the library's most-read books ({count} readings)")
            }
            Self::Exploration => "an exploration pick to broaden your shelf".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_anchor_title_for_content_similarity() {
        let title = |b: u32| format!("book-{b}");
        for (reason, expected) in [
            (
                Reason::CfNeighbours,
                "because readers with a borrowing history like yours also read it",
            ),
            (
                Reason::SimilarToBorrowed { anchor: 9 },
                "because you borrowed book-9",
            ),
            (
                Reason::MostRead { count: 37 },
                "because it is one of the library's most-read books (37 readings)",
            ),
            (
                Reason::Exploration,
                "an exploration pick to broaden your shelf",
            ),
        ] {
            assert_eq!(reason.render(&title), expected, "{reason:?}");
        }
    }

    #[test]
    fn renders_read_count_for_popularity() {
        let reason = Reason::MostRead { count: 37 };
        assert!(reason.render(&|_| String::new()).contains("37 readings"));
    }
}
