//! String interning for tag and attribute names.
//!
//! Scientific datasets have a tiny vocabulary of element names relative to
//! their node count (OMIM: tens of names over ~200k nodes), so interning
//! turns all hot-path label comparisons into `u32` compares and shrinks the
//! arena nodes considerably.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An interned name. Only meaningful together with the [`SymbolTable`]
/// that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

impl Sym {
    /// Index into the owning table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// An append-only string interner.
///
/// Interned strings are never freed; lookups are O(1) amortised in both
/// directions (`intern` via a hash map, `resolve` via a vector). Each name
/// is one shared `Arc<str>`: the map and the vector hold the same copy,
/// and [`SymbolTable::shared`] hands it out without copying the string.
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, Sym>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning the existing symbol if already present.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&s) = self.index.get(name) {
            return s;
        }
        let s = Sym(self.names.len() as u32);
        let name: Arc<str> = name.into();
        self.names.push(Arc::clone(&name));
        self.index.insert(name, s);
        s
    }

    /// Looks up a symbol without interning.
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.index.get(name).copied()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was produced by a different table and is out of range.
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.names[sym.index()]
    }

    /// The table's own copy of `sym`'s name, for a holder that keeps the
    /// name beyond a borrow of the table: cloning it bumps a reference
    /// count and copies no string.
    ///
    /// # Panics
    /// Panics if `sym` was produced by a different table and is out of range.
    #[inline]
    pub fn shared(&self, sym: Sym) -> &Arc<str> {
        &self.names[sym.index()]
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no names have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(Sym, &str)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Sym(i as u32), &**n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("gene");
        let b = t.intern("gene");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn resolve_round_trips() {
        let mut t = SymbolTable::new();
        let names = ["db", "dept", "emp", "fn", "ln", "sal", "tel"];
        let syms: Vec<Sym> = names.iter().map(|n| t.intern(n)).collect();
        for (s, n) in syms.iter().zip(names.iter()) {
            assert_eq!(t.resolve(*s), *n);
        }
        assert_eq!(t.len(), names.len());
    }

    #[test]
    fn distinct_names_distinct_syms() {
        let mut t = SymbolTable::new();
        assert_ne!(t.intern("a"), t.intern("b"));
    }

    #[test]
    fn get_does_not_intern() {
        let mut t = SymbolTable::new();
        assert!(t.get("x").is_none());
        t.intern("x");
        assert!(t.get("x").is_some());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn shared_names_are_the_tables_one_copy() {
        let mut t = SymbolTable::new();
        let s = t.intern("gene");
        let held = Arc::clone(t.shared(s));
        let again = t.intern("gene");
        assert!(Arc::ptr_eq(&held, t.shared(again)));
        assert_eq!(&*held, "gene");
    }

    #[test]
    fn iter_in_order() {
        let mut t = SymbolTable::new();
        t.intern("a");
        t.intern("b");
        let v: Vec<_> = t.iter().map(|(_, n)| n.to_owned()).collect();
        assert_eq!(v, vec!["a", "b"]);
    }
}
