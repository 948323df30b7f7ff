//! Attribute values with a total order and SQL-`LIKE`-style matching.
//!
//! AIQL attribute constraints compare entity/event attributes against string,
//! integer, and floating-point literals, and string literals may contain `%`
//! wildcards (e.g. `"%cmd.exe"`). A single [`Value`] type flows end to end:
//! entity attributes, query literals, and aggregate results.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A dynamically-typed attribute value.
///
/// `Value` implements a *total* order (needed for sorting result rows and for
/// B-tree index keys): values of different types order by type tag first, and
/// floats order by `f64::total_cmp`.
///
/// A string is an `Arc<str>`: a value read from a dictionary-coded column
/// shares the dictionary's payload ([`crate::Dict`]), so cloning one is a
/// refcount bump, not an allocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Absent / NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer (also used for timestamps in row form).
    Int(i64),
    /// 64-bit float (aggregate results such as `avg`).
    Float(f64),
    /// UTF-8 string (names, paths, IPs, commands).
    Str(Arc<str>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// Returns the contained integer, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the contained string, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// Returns the value as a float when it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Whether this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
        }
    }

    /// Compares two values numerically when both are numeric (so `Int(2)`
    /// equals `Float(2.0)`), otherwise falls back to the total order. Two
    /// `Int`s compare exactly, as indexes and kernels compare them: through
    /// `f64` nanosecond timestamps 256 apart would collapse.
    pub fn loose_cmp(&self, other: &Value) -> Ordering {
        if let (Value::Int(a), Value::Int(b)) = (self, other) {
            return a.cmp(b);
        }
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => a.total_cmp(&b),
            _ => self.cmp(other),
        }
    }

    /// Loose equality: numeric values compare by magnitude across `Int` and
    /// `Float`; everything else compares structurally.
    pub fn loose_eq(&self, other: &Value) -> bool {
        self.loose_cmp(other) == Ordering::Equal
    }

    /// SQL-`LIKE`-style wildcard match: compiles `pattern` and matches it
    /// once. Convenient for one-off tests; anything that evaluates the same
    /// pattern against many values holds a [`LikePattern`] instead, which
    /// pays for the compilation once and matches without allocating.
    ///
    /// The semantics, pinned by this module's tests:
    ///
    /// - `%` matches any substring, including the empty one; there is no
    ///   single-character wildcard and no escape.
    /// - Matching is case-insensitive: both sides are compared in the form
    ///   `str::to_lowercase` gives them (so `İ` is `i` + U+0307, a
    ///   word-final `Σ` is `ς`, and `ß` is not `ss`).
    /// - A pattern without `%` is a case-insensitive equality test.
    /// - With `%`: the text must start with the part before the first `%`
    ///   and end with the part after the last, the suffix starting at or
    ///   after the end of everything matched before it (`a%a` does not
    ///   match `a`); the parts in between must occur in order, each at its
    ///   first position after the previous one. Empty parts (`%%`, leading
    ///   or trailing `%`) constrain nothing.
    /// - Only `Str` values match; `NULL` and numbers never do.
    ///
    /// # Examples
    ///
    /// ```
    /// use aiql_model::Value;
    /// let v = Value::str("C:\\Windows\\cmd.exe");
    /// assert!(v.like("%cmd.exe"));
    /// assert!(v.like("c:\\%"));
    /// assert!(!v.like("%powershell%"));
    /// ```
    pub fn like(&self, pattern: &str) -> bool {
        LikePattern::new(pattern).matches_value(self)
    }
}

/// A compiled `LIKE` pattern (semantics: [`Value::like`]).
///
/// The pattern is lower-cased and split at `%` once; [`LikePattern::matches`]
/// then compares ASCII text in place and allocates nothing, so one compiled
/// pattern serves a whole scan. Equality is equality of the source pattern.
///
/// # Examples
///
/// ```
/// use aiql_model::LikePattern;
/// let p = LikePattern::new("%\\cmd.exe");
/// assert!(p.matches("C:\\Windows\\CMD.EXE"));
/// assert!(!p.matches("cmd.exe.bak"));
/// assert_eq!(p.as_str(), "%\\cmd.exe");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LikePattern {
    source: String,
    shape: LikeShape,
}

/// The lower-cased parts of a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
enum LikeShape {
    /// No `%`: the whole text must equal this.
    Exact(String),
    /// Split at `%`: `prefix` and `suffix` may be empty (no constraint);
    /// `middles` holds the non-empty parts in between.
    Wild {
        prefix: String,
        middles: Vec<String>,
        suffix: String,
    },
}

impl LikePattern {
    /// Compiles `pattern`.
    pub fn new(pattern: impl Into<String>) -> LikePattern {
        let source = pattern.into();
        let lower = source.to_lowercase();
        let mut parts = lower.split('%');
        let first = parts.next().expect("split yields at least one part");
        let shape = match parts.next_back() {
            None => LikeShape::Exact(first.to_string()),
            Some(last) => LikeShape::Wild {
                prefix: first.to_string(),
                middles: parts.filter(|p| !p.is_empty()).map(String::from).collect(),
                suffix: last.to_string(),
            },
        };
        LikePattern { source, shape }
    }

    /// The pattern as written.
    pub fn as_str(&self) -> &str {
        &self.source
    }

    /// Whether `v` is a string matching the pattern.
    pub fn matches_value(&self, v: &Value) -> bool {
        matches!(v, Value::Str(s) if self.matches(s))
    }

    /// Whether `text` matches the pattern.
    pub fn matches(&self, text: &str) -> bool {
        if text.is_ascii() {
            self.matches_ascii(text.as_bytes())
        } else if text.contains('Σ') {
            // The one context-sensitive lower-casing (`Final_Sigma`) is
            // private to `str::to_lowercase`; such text pays for a copy.
            self.matches_chars(text.to_lowercase().chars())
        } else {
            self.matches_chars(text.chars().flat_map(char::to_lowercase))
        }
    }

    /// ASCII text lower-cases byte by byte, so the (already lower-case)
    /// parts compare against it in place.
    fn matches_ascii(&self, text: &[u8]) -> bool {
        match &self.shape {
            LikeShape::Exact(p) => text.eq_ignore_ascii_case(p.as_bytes()),
            LikeShape::Wild {
                prefix,
                middles,
                suffix,
            } => {
                let (prefix, suffix) = (prefix.as_bytes(), suffix.as_bytes());
                if text.len() < prefix.len() || !text[..prefix.len()].eq_ignore_ascii_case(prefix) {
                    return false;
                }
                let mut rest = &text[prefix.len()..];
                for m in middles {
                    let m = m.as_bytes();
                    match rest
                        .windows(m.len())
                        .position(|w| w.eq_ignore_ascii_case(m))
                    {
                        Some(at) => rest = &rest[at + m.len()..],
                        None => return false,
                    }
                }
                rest.len() >= suffix.len()
                    && rest[rest.len() - suffix.len()..].eq_ignore_ascii_case(suffix)
            }
        }
    }

    /// The general path over the lower-cased characters of the text.
    fn matches_chars(&self, mut rest: impl DoubleEndedIterator<Item = char> + Clone) -> bool {
        match &self.shape {
            LikeShape::Exact(p) => rest.eq(p.chars()),
            LikeShape::Wild {
                prefix,
                middles,
                suffix,
            } => {
                if !prefix.chars().all(|c| rest.next() == Some(c)) {
                    return false;
                }
                for m in middles {
                    // First occurrence in what is left of the text.
                    loop {
                        let mut probe = rest.clone();
                        if m.chars().all(|c| probe.next() == Some(c)) {
                            rest = probe;
                            break;
                        }
                        if rest.next().is_none() {
                            return false;
                        }
                    }
                }
                suffix.chars().rev().all(|c| rest.next_back() == Some(c))
            }
        }
    }
}

impl From<&str> for LikePattern {
    fn from(pattern: &str) -> Self {
        LikePattern::new(pattern)
    }
}

impl From<String> for LikePattern {
    fn from(pattern: String) -> Self {
        LikePattern::new(pattern)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The matcher [`LikePattern`] replaced, kept verbatim as the oracle of
    /// the differential tests below.
    fn reference_like_match(text: &str, pattern: &str) -> bool {
        let t: Vec<char> = text.to_lowercase().chars().collect();
        let parts: Vec<String> = pattern
            .to_lowercase()
            .split('%')
            .map(String::from)
            .collect();
        if parts.len() == 1 {
            return t.iter().collect::<String>() == parts[0];
        }
        let mut pos = 0usize;
        for (i, part) in parts.iter().enumerate() {
            let chars: Vec<char> = part.chars().collect();
            if chars.is_empty() {
                continue;
            }
            if i == 0 {
                // Must be a prefix.
                if t.len() < chars.len() || t[..chars.len()] != chars[..] {
                    return false;
                }
                pos = chars.len();
            } else if i == parts.len() - 1 {
                // Must be a suffix at or after `pos`.
                if t.len() < pos + chars.len() {
                    return false;
                }
                return t[t.len() - chars.len()..] == chars[..];
            } else {
                // Find the next occurrence at or after `pos`.
                match find_sub(&t, &chars, pos) {
                    Some(at) => pos = at + chars.len(),
                    None => return false,
                }
            }
        }
        true
    }

    fn find_sub(haystack: &[char], needle: &[char], from: usize) -> Option<usize> {
        if needle.is_empty() {
            return Some(from);
        }
        if haystack.len() < needle.len() {
            return None;
        }
        (from..=haystack.len() - needle.len()).find(|&i| haystack[i..i + needle.len()] == *needle)
    }

    #[test]
    fn total_order_across_types() {
        let mut vs = vec![
            Value::str("a"),
            Value::Int(1),
            Value::Null,
            Value::Float(0.5),
            Value::Bool(true),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(1),
                Value::Float(0.5),
                Value::str("a"),
            ]
        );
    }

    #[test]
    fn loose_numeric_equality() {
        assert!(Value::Int(2).loose_eq(&Value::Float(2.0)));
        assert!(!Value::Int(2).loose_eq(&Value::Float(2.5)));
        assert_eq!(
            Value::Int(3).loose_cmp(&Value::Float(2.5)),
            Ordering::Greater
        );
        // Strict equality stays type-sensitive.
        assert_ne!(Value::Int(2), Value::Float(2.0));
    }

    #[test]
    fn like_prefix_suffix_infix() {
        let v = Value::str("/var/www/html/info_stealer.sh");
        assert!(v.like("/var/www%"));
        assert!(v.like("%info_stealer%"));
        assert!(v.like("%.sh"));
        assert!(v.like("%"));
        assert!(v.like("/var/%/html/%.sh"));
        assert!(!v.like("/etc%"));
        assert!(!v.like("%exe"));
    }

    #[test]
    fn like_exact_and_case_insensitive() {
        assert!(Value::str("CMD.EXE").like("cmd.exe"));
        assert!(Value::str("BACKUP1.DMP").like("%backup1.dmp"));
        assert!(!Value::str("cmd.exe").like("cmd"));
        assert!(!Value::Int(5).like("5"));
    }

    #[test]
    fn like_adjacent_wildcards_and_empty() {
        assert!(Value::str("abc").like("a%%c"));
        assert!(Value::str("").like("%"));
        assert!(Value::str("").like(""));
        assert!(!Value::str("").like("a"));
        assert!(Value::str("aa").like("%a%a%"));
        assert!(!Value::str("a").like("%a%a%"));
    }

    #[test]
    fn like_semantics_table() {
        // (text, pattern, matches)
        let cases: &[(&str, &str, bool)] = &[
            // No `%`: case-insensitive equality, nothing looser.
            ("", "", true),
            ("a", "", false),
            ("CMD.exe", "cmd.EXE", true),
            ("cmd.exe", "cmd", false),
            // Empty parts constrain nothing.
            ("", "%", true),
            ("", "%%", true),
            ("abc", "%%%", true),
            ("abc", "a%%c", true),
            ("abc", "%b%", true),
            ("abc", "%%b%%", true),
            // Prefix, suffix, and the suffix never overlapping the prefix.
            ("a", "a%a", false),
            ("aa", "a%a", true),
            ("aba", "ab%ba", false),
            ("abba", "ab%ba", true),
            ("abc", "abcd%", false),
            ("abc", "%abcd", false),
            ("abc", "%abc", true),
            ("abc", "abc%", true),
            // Middles: in order, first occurrence, before the suffix.
            ("a", "%a%a%", false),
            ("aa", "%a%a%", true),
            ("xaybz", "x%a%b%z", true),
            ("xbyaz", "x%a%b%z", false),
            ("abab", "%ab%ab", true),
            ("abab", "%aba%ab", false),
            ("abcabc", "a%bc%bc", true),
            // Pattern longer than the text.
            ("ab", "a%b%c%d", false),
            // Non-ASCII: compared in `str::to_lowercase` form.
            ("İstanbul", "i\u{307}stanbul", true),
            ("İstanbul", "i%", true),
            ("İstanbul", "istanbul", false),
            ("istanbul", "İ%", false),
            ("STRASSE", "straße", false),
            ("Straße", "%SSE", false),
            ("STRAẞE", "straße", true),
            ("ΟΔΟΣ", "οδος", true),
            ("ΟΔΟΣ", "οδοσ", false),
            ("ΟΔΟΣ", "%Σ", false),
            ("ΣΟΦΙΑ", "σ%", true),
            ("ΟΔΟΣ ΣΟΦΙΑ", "%ς σ%", true),
            ("e\u{301}cole", "E\u{301}%", true),
            ("école", "e\u{301}%", false),
            ("naïve.EXE", "%ï%.exe", true),
            ("ascii", "%é%", false),
            ("K", "\u{212a}", true), // the Kelvin sign lower-cases to `k`
        ];
        for &(text, pattern, want) in cases {
            assert_eq!(
                LikePattern::new(pattern).matches(text),
                want,
                "{text:?} LIKE {pattern:?}"
            );
            assert_eq!(
                reference_like_match(text, pattern),
                want,
                "reference: {text:?} LIKE {pattern:?}"
            );
        }
        // Only strings match.
        let p = LikePattern::new("%");
        assert!(!p.matches_value(&Value::Null));
        assert!(!p.matches_value(&Value::Int(5)));
        assert!(p.matches_value(&Value::str("")));
        assert_eq!(p.as_str(), "%");
    }

    /// The compiled matcher against the one it replaced, over random text
    /// and patterns drawn from a small alphabet (so parts actually recur)
    /// that covers ASCII in both cases, the special lower-casings, a
    /// combining mark, and runs of `%`. Deterministic: a fixed-seed
    /// xorshift, since this crate takes no `proptest` dependency.
    #[test]
    fn like_pattern_agrees_with_reference() {
        const ALPHABET: &[&str] = &[
            "a", "A", "b", "B", "c", ".", "\\", "İ", "i", "\u{307}", "ß", "ẞ", "s", "S", "Σ", "σ",
            "ς", " ", "é", "e", "\u{301}", "K", "\u{212a}",
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut matched = 0;
        for case in 0..60_000 {
            let ascii_only = case % 3 == 0;
            let pick = |next: &mut dyn FnMut(usize) -> usize| {
                ALPHABET[next(if ascii_only { 7 } else { ALPHABET.len() })]
            };
            let text: String = (0..next(9)).map(|_| pick(&mut next)).collect();
            let pattern: String = (0..next(8))
                .map(|_| if next(3) == 0 { "%" } else { pick(&mut next) })
                .collect();
            let want = reference_like_match(&text, &pattern);
            assert_eq!(
                LikePattern::new(pattern.as_str()).matches(&text),
                want,
                "{text:?} LIKE {pattern:?}"
            );
            matched += want as u32;
        }
        assert!(
            matched > 5_000,
            "the generator must produce matches: {matched}"
        );
    }

    #[test]
    fn a_value_is_three_words() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::str("x").to_string(), "x");
    }

    #[test]
    fn hash_distinguishes_float_bits() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Value::Float(1.0));
        s.insert(Value::Float(1.0));
        s.insert(Value::Int(1));
        assert_eq!(s.len(), 2);
    }
}
