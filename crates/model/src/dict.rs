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
///
/// Each string is held once, as an `Arc<str>` that the code vector and the
/// lookup table share — and that every [`crate::Value::Str`] read from a
/// dictionary-coded column shares too ([`Dict::shared`]).
#[derive(Debug, Default)]
pub struct Dict {
    strings: Vec<Arc<str>>,
    codes: HashMap<Arc<str>, u32>,
    /// String payload bytes held.
    text_bytes: usize,
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
        match self.codes.get(s) {
            Some(&c) => Sym(c),
            None => self.insert(Arc::from(s)),
        }
    }

    /// Interns `s` and makes it the dictionary's string: a new string is
    /// kept as it is, a known one is swapped for the dictionary's `Arc`,
    /// so the caller's copy and the dictionary share one payload.
    pub fn intern_shared(&mut self, s: &mut Arc<str>) -> Sym {
        match self.codes.get(&**s) {
            Some(&c) => {
                *s = self.strings[c as usize].clone();
                Sym(c)
            }
            None => self.insert(s.clone()),
        }
    }

    fn insert(&mut self, s: Arc<str>) -> Sym {
        let code = self.strings.len() as u32;
        assert!(code != NULL_SYM, "dictionary full");
        self.text_bytes += s.len();
        self.strings.push(s.clone());
        self.codes.insert(s, code);
        Sym(code)
    }

    /// Heap bytes held: every string once (payload and reference counts),
    /// the code vector, and the lookup table's slots (one control byte
    /// each). O(1).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.text_bytes
            + self.strings.len() * 2 * size_of::<usize>()
            + self.strings.capacity() * size_of::<Arc<str>>()
            + self.codes.capacity() * (size_of::<(Arc<str>, u32)>() + 1)
    }

    /// The symbol of `s`, if it has been interned.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        self.codes.get(s).copied().map(Sym)
    }

    /// The string behind a symbol.
    pub fn resolve(&self, sym: Sym) -> Option<&str> {
        self.shared(sym).map(|s| &**s)
    }

    /// The string behind a symbol, as the dictionary holds it: cloning it
    /// copies no payload.
    pub fn shared(&self, sym: Sym) -> Option<&Arc<str>> {
        self.strings.get(sym.0 as usize)
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
    pub fn strings(&self) -> &[Arc<str>] {
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

    /// A read guard over the dictionary: any number of
    /// [`Dict::resolve`] calls under one lock acquisition, borrowing the
    /// strings instead of cloning them. Interning blocks while a guard is
    /// alive, so hold it for a bounded piece of work.
    pub fn read(&self) -> impl std::ops::Deref<Target = Dict> + '_ {
        self.inner.read().expect("dict lock poisoned")
    }

    /// A write guard over the dictionary: any number of [`Dict::intern`]
    /// calls under one lock acquisition. Readers block while it is alive.
    pub fn write(&self) -> impl std::ops::DerefMut<Target = Dict> + '_ {
        self.inner.write().expect("dict lock poisoned")
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.inner.read().expect("dict lock poisoned").len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of every interned string in code order — what the
    /// durable store persists. The strings are the dictionary's own: no
    /// payload is copied.
    pub fn strings(&self) -> Vec<Arc<str>> {
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
        assert!(d.resident_bytes() >= "cmd.exeosql.exe".len());
        assert_eq!(d.resolve(a), Some("cmd.exe"));
        assert_eq!(d.resolve(Sym(9)), None);
    }

    #[test]
    fn shared_interning_keeps_one_payload() {
        let mut d = Dict::new();
        let mut first: Arc<str> = Arc::from("cmd.exe");
        let a = d.intern_shared(&mut first);
        assert!(
            Arc::ptr_eq(&first, d.shared(a).unwrap()),
            "a new string is kept"
        );
        let mut again: Arc<str> = Arc::from("cmd.exe");
        assert_eq!(d.intern_shared(&mut again), a);
        assert!(Arc::ptr_eq(&again, &first), "a known one is swapped");
        assert_eq!(d.intern("cmd.exe"), a);
        assert_eq!(d.len(), 1);
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
