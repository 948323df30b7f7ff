//! Dictionary encoding for hot string attributes.
//!
//! Attack-investigation predicates compare the same few string attributes
//! over and over (executable names, file paths, destination IPs). A
//! [`Dict`] interns each distinct string once and hands out a dense
//! [`Sym`] — a `u32` code — so columnar storage can keep those columns as
//! flat `u32` vectors and predicate kernels can compare codes instead of
//! walking heap strings. One dictionary is shared per store: every table's
//! projection interns into the same code space, so a symbol compiled from a
//! query literal is valid against any column.
//!
//! Interning is exact (case-sensitive, byte equality), matching the strict
//! `Value::Str` equality of the row store. Case-insensitive `LIKE` still
//! runs over codes: a scan evaluates the pattern once per distinct symbol
//! it meets ([`SharedDict::read`] resolves them under one lock) and
//! compares codes from then on.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};

/// An interned string code. Codes are dense, starting at 0, and never
/// reused; [`NULL_SYM`] is reserved for SQL NULL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

/// The reserved symbol standing for NULL in a dictionary-encoded column.
/// Never returned by [`Dict::intern`].
pub const NULL_SYM: u32 = u32::MAX;

/// An append-only string interner: string → dense `u32` code.
#[derive(Debug, Default)]
pub struct Dict {
    strings: Vec<String>,
    codes: HashMap<String, u32>,
}

impl Dict {
    /// An empty dictionary.
    pub fn new() -> Dict {
        Dict::default()
    }

    /// Interns `s`, returning its (possibly pre-existing) symbol.
    ///
    /// # Panics
    ///
    /// Panics if the dictionary would exceed [`NULL_SYM`] distinct strings.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&c) = self.codes.get(s) {
            return Sym(c);
        }
        let code = self.strings.len() as u32;
        assert!(code != NULL_SYM, "dictionary full");
        self.strings.push(s.to_string());
        self.codes.insert(s.to_string(), code);
        Sym(code)
    }

    /// The symbol of `s`, if it has been interned.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        self.codes.get(s).copied().map(Sym)
    }

    /// The string behind a symbol.
    pub fn resolve(&self, sym: Sym) -> Option<&str> {
        self.strings.get(sym.0 as usize).map(String::as_str)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// All interned strings in code order (`strings()[i]` has code `i`) —
    /// the snapshot form of a dictionary. Re-interning them in order into
    /// an empty dictionary reproduces the exact code assignment.
    pub fn strings(&self) -> &[String] {
        &self.strings
    }
}

/// A cloneable, thread-safe dictionary handle — the "one shared dictionary
/// per store" of the columnar layout. Readers (query compilation) and
/// writers (ingestion) synchronize on an internal `RwLock`.
#[derive(Debug, Clone, Default)]
pub struct SharedDict {
    inner: Arc<RwLock<Dict>>,
}

impl SharedDict {
    /// A fresh, empty shared dictionary.
    pub fn new() -> SharedDict {
        SharedDict::default()
    }

    /// Interns `s` (write lock).
    pub fn intern(&self, s: &str) -> Sym {
        self.inner.write().expect("dict lock poisoned").intern(s)
    }

    /// The symbol of `s` without interning (read lock) — query literals not
    /// in the dictionary can match nothing.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        self.inner.read().expect("dict lock poisoned").lookup(s)
    }

    /// The string behind a symbol, cloned out of the lock.
    pub fn resolve(&self, sym: Sym) -> Option<String> {
        self.inner
            .read()
            .expect("dict lock poisoned")
            .resolve(sym)
            .map(String::from)
    }

    /// A read guard over the dictionary: any number of
    /// [`Dict::resolve`] calls under one lock acquisition, borrowing the
    /// strings instead of cloning them. Interning blocks while a guard is
    /// alive, so hold it for a bounded piece of work.
    pub fn read(&self) -> impl std::ops::Deref<Target = Dict> + '_ {
        self.inner.read().expect("dict lock poisoned")
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.inner.read().expect("dict lock poisoned").len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of every interned string in code order (cloned out of
    /// the lock) — what the durable store persists.
    pub fn strings(&self) -> Vec<String> {
        self.inner
            .read()
            .expect("dict lock poisoned")
            .strings()
            .to_vec()
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut d = Dict::new();
        let a = d.intern("cmd.exe");
        let b = d.intern("osql.exe");
        assert_eq!(a, Sym(0));
        assert_eq!(b, Sym(1));
        assert_eq!(d.intern("cmd.exe"), a);
        assert_eq!(d.len(), 2);
        assert_eq!(d.resolve(a), Some("cmd.exe"));
        assert_eq!(d.resolve(Sym(9)), None);
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut d = Dict::new();
        assert_eq!(d.lookup("x"), None);
        d.intern("x");
        assert_eq!(d.lookup("x"), Some(Sym(0)));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn interning_is_case_sensitive() {
        let mut d = Dict::new();
        let a = d.intern("CMD.EXE");
        let b = d.intern("cmd.exe");
        assert_ne!(a, b, "strict equality, like Value::Str ==");
    }

    #[test]
    fn shared_dict_is_consistent_across_clones() {
        let d = SharedDict::new();
        let d2 = d.clone();
        let a = d.intern("alpha");
        assert_eq!(d2.lookup("alpha"), Some(a));
        assert_eq!(d2.resolve(a).as_deref(), Some("alpha"));
        assert_eq!(d2.read().resolve(a), Some("alpha"));
        assert_eq!(d2.len(), 1);
        assert!(!d2.is_empty());
    }

    #[test]
    fn shared_dict_threads_agree() {
        let d = SharedDict::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let d = d.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        d.intern(&format!("s{}", i % 10));
                    }
                });
            }
        });
        assert_eq!(d.len(), 10, "concurrent interns deduplicate");
    }
}
