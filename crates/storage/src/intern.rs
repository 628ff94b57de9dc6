//! Sharing the strings of low-cardinality columns while a table is
//! built.
//!
//! Two of every three `lineitem` strings are one of 4 ship
//! instructions or 7 ship modes; `orders`, `customer` and `part` have
//! their own such columns. An [`Interner`] — one per column, alive for
//! one build (a TPC-H load's column builder, one decode of a disk table's
//! columnar mirror) — hands every repeat of a value the `Arc<str>` of
//! its first occurrence, so the column costs one allocation per
//! distinct value instead of one per row. A column that turns out not
//! to repeat (`l_comment`, names, addresses) switches its interner off
//! after [`MAX_DISTINCT`] values, so no lookup table ever grows with
//! the table.
//!
//! Nothing observable changes but [`Arc::ptr_eq`]: an interned string
//! equals the fresh one it replaces.

use std::collections::HashSet;
use std::sync::Arc;

/// Distinct values after which a column stops being interned. TPC-H's
/// widest enumerated column, `p_type`, has 150.
const MAX_DISTINCT: usize = 256;

/// The strings one column has shown so far (see the [module
/// docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct Interner {
    /// `None` once the column has shown more than [`MAX_DISTINCT`]
    /// distinct values.
    seen: Option<HashSet<Arc<str>>>,
}

impl Default for Interner {
    fn default() -> Self {
        Self {
            seen: Some(HashSet::new()),
        }
    }
}

impl Interner {
    /// `s` as a shared string: the one handed out for an equal `s`
    /// before, while this column is still being interned.
    pub(crate) fn intern(&mut self, s: &str) -> Arc<str> {
        let Some(seen) = &mut self.seen else {
            return Arc::from(s);
        };
        if let Some(shared) = seen.get(s) {
            return Arc::clone(shared);
        }
        let fresh: Arc<str> = Arc::from(s);
        if seen.len() < MAX_DISTINCT {
            seen.insert(Arc::clone(&fresh));
        } else {
            self.seen = None;
        }
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_share_one_allocation_until_the_column_stops_repeating() {
        let mut strs = Interner::default();
        let mail = strs.intern("MAIL");
        assert!(Arc::ptr_eq(&mail, &strs.intern("MAIL")));
        assert!(!Arc::ptr_eq(&mail, &strs.intern("RAIL")));
        // Up to the cutoff every distinct value is kept …
        for i in 2..MAX_DISTINCT {
            strs.intern(&format!("v{i}"));
        }
        assert!(Arc::ptr_eq(&mail, &strs.intern("MAIL")));
        // … one more switches the column off, for old values too.
        assert_eq!(&*strs.intern("one too many"), "one too many");
        let after = strs.intern("MAIL");
        assert_eq!(after, mail);
        assert!(!Arc::ptr_eq(&mail, &after));
        assert!(strs.seen.is_none(), "the table is dropped, not kept");
    }
}
