//! Newtype identifiers.
//!
//! Raw table identifiers (`BctBookId`, `AnobiiItemId`, per-source user ids)
//! are opaque labels assigned by the source systems; the merged corpus
//! re-numbers everything densely (`BookIdx`, `UserIdx`) so matrices can be
//! indexed directly. Keeping the two families as distinct types makes it a
//! compile error to index a matrix with a raw id.

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw integer value.
            #[inline]
            #[must_use]
            pub fn raw(self) -> u32 {
                self.0
            }

            /// The value as a `usize` index.
            #[inline]
            #[must_use]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of a book in the BCT Books table.
    BctBookId
);
id_type!(
    /// Identifier of a subscribed user in the BCT Loans table.
    BctUserId
);
id_type!(
    /// Identifier of an item in the Anobii Items table.
    AnobiiItemId
);
id_type!(
    /// Identifier of a user in the Anobii Ratings table.
    AnobiiUserId
);
id_type!(
    /// Dense index of a book in the merged corpus (row of the catalogue).
    BookIdx
);
id_type!(
    /// Dense index of a user in the merged corpus.
    UserIdx
);

/// A day number relative to 2012-01-01 (the start of the BCT observation
/// window). The pipeline only needs ordering and coarse ranges, so a bare
/// counter is sufficient and keeps tables at 12 bytes per loan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Day(pub u32);

impl Day {
    /// Days per (non-leap) year — the generators' coarse date ranges.
    pub const PER_YEAR: u32 = 365;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_types_with_round_trip() {
        let b = BctBookId::from(7);
        assert_eq!(b.raw(), 7);
        assert_eq!(b.index(), 7);
        assert_eq!(b, BctBookId(7));
        assert_eq!(format!("{b}"), "BctBookId(7)");
    }

    #[test]
    fn ids_order_by_value() {
        assert!(BookIdx(1) < BookIdx(2));
        assert!(UserIdx(0) < UserIdx(10));
    }
}
