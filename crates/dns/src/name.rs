//! Fully-qualified domain names for the DNS substrate.
//!
//! Unlike [`ets_core::DomainName`] (registrable names only), [`Fqdn`]
//! models anything DNS can name: single labels, deep subdomains, the root,
//! and wildcard owners (`*.exampel.com.`) as used in Table 1's zone setup.

use ets_core::{DomainId, DomainInterner, DomainName};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Errors from parsing an [`Fqdn`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FqdnError {
    /// A label was empty (double dot).
    EmptyLabel,
    /// A label exceeded 63 octets.
    LabelTooLong(String),
    /// Total name exceeded 255 octets in wire form.
    NameTooLong,
    /// A label contained a byte outside letters/digits/hyphen/underscore
    /// (underscore is tolerated: service labels like `_dmarc` exist).
    BadCharacter(char),
    /// `*` appeared anywhere but as a whole leftmost label.
    BadWildcard,
}

impl fmt::Display for FqdnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FqdnError::EmptyLabel => write!(f, "empty label"),
            FqdnError::LabelTooLong(l) => write!(f, "label `{l}` over 63 octets"),
            FqdnError::NameTooLong => write!(f, "name over 255 octets"),
            FqdnError::BadCharacter(c) => write!(f, "character `{c}` not allowed"),
            FqdnError::BadWildcard => write!(f, "wildcard must be the whole leftmost label"),
        }
    }
}

impl std::error::Error for FqdnError {}

/// A fully-qualified, lower-cased domain name. The root is the empty label
/// sequence.
///
/// Stored as one shared dotted string (no trailing dot; empty for the
/// root): cloning is a refcount bump and equality/hashing are a single
/// pass, which matters because the registry keys ~10⁶ registrations and
/// zones by name and every zone record carries its owner name. Ordering
/// stays label-wise (see the manual `Ord`), so sorted outputs are
/// identical to the old label-vector representation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub struct Fqdn {
    name: Arc<str>,
}

impl Fqdn {
    /// The root name (`.`).
    pub fn root() -> Self {
        Fqdn {
            name: Arc::from(""),
        }
    }

    /// Parses a name; a trailing dot is accepted and ignored, `.` or the
    /// empty string denote the root.
    pub fn parse(input: &str) -> Result<Self, FqdnError> {
        let trimmed = input.strip_suffix('.').unwrap_or(input);
        if trimmed.is_empty() {
            return Ok(Fqdn::root());
        }
        let mut wire_len = 1usize; // root byte
        for (i, raw) in trimmed.split('.').enumerate() {
            if raw.is_empty() {
                return Err(FqdnError::EmptyLabel);
            }
            if raw.len() > 63 {
                return Err(FqdnError::LabelTooLong(raw.to_owned()));
            }
            if raw.contains('*') {
                if raw != "*" || i != 0 {
                    return Err(FqdnError::BadWildcard);
                }
            } else {
                for c in raw.chars() {
                    if !(c.is_ascii_alphanumeric() || c == '-' || c == '_') {
                        return Err(FqdnError::BadCharacter(c));
                    }
                }
            }
            wire_len += raw.len() + 1;
        }
        if wire_len > 255 {
            return Err(FqdnError::NameTooLong);
        }
        Ok(Fqdn {
            name: Arc::from(trimmed.to_ascii_lowercase()),
        })
    }

    /// The dotted form backing this name: no trailing dot, empty for the
    /// root (unlike [`fmt::Display`], which prints the root as `.`).
    pub fn as_str(&self) -> &str {
        &self.name
    }

    /// Labels left to right.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        // `"".split('.')` yields one empty label, so the root needs the
        // filter; valid names never contain empty labels.
        self.name.split('.').filter(|l| !l.is_empty())
    }

    /// Number of labels (0 for the root).
    pub fn label_count(&self) -> usize {
        if self.name.is_empty() {
            return 0;
        }
        self.name.as_bytes().iter().filter(|&&b| b == b'.').count() + 1
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.name.is_empty()
    }

    /// Whether the leftmost label is `*`.
    pub fn is_wildcard(&self) -> bool {
        &*self.name == "*" || self.name.starts_with("*.")
    }

    /// The name with its leftmost label removed (`a.b.c` → `b.c`;
    /// root stays root).
    pub fn parent(&self) -> Fqdn {
        match self.name.find('.') {
            Some(dot) => Fqdn {
                name: Arc::from(&self.name[dot + 1..]),
            },
            None => Fqdn::root(),
        }
    }

    /// Prepends a label (`x` + `b.c` → `x.b.c`).
    pub fn child(&self, label: &str) -> Result<Fqdn, FqdnError> {
        Fqdn::parse(&format!("{label}.{self}"))
    }

    /// The wildcard owner covering names below this one (`*.self`).
    /// Callers must not pass the root or an existing wildcard (the result
    /// would not be a valid name).
    pub fn wildcard(&self) -> Fqdn {
        debug_assert!(!self.is_root() && !self.is_wildcard());
        let mut s = String::with_capacity(self.name.len() + 2);
        s.push_str("*.");
        s.push_str(&self.name);
        Fqdn { name: Arc::from(s) }
    }

    /// Whether `self` equals `other` or is underneath it
    /// (`a.b.c` is within `b.c` and within `c`).
    pub fn is_within(&self, other: &Fqdn) -> bool {
        if other.name.is_empty() {
            return true; // everything is within the root
        }
        if other.name.len() > self.name.len() {
            return false;
        }
        if other.name.len() == self.name.len() {
            return self.name == other.name;
        }
        // A proper suffix counts only on a label boundary: `b.c` contains
        // `a.b.c` but not `ab.c`.
        self.name.ends_with(&*other.name)
            && self.name.as_bytes()[self.name.len() - other.name.len() - 1] == b'.'
    }

    /// Whether a wildcard owner name covers `name` (RFC 4592: `*.zone`
    /// matches any name at least one label below `zone`, but not `zone`
    /// itself). Non-wildcard owners match only exact names.
    pub fn matches(&self, name: &Fqdn) -> bool {
        if !self.is_wildcard() {
            return self == name;
        }
        let suffix = self.parent();
        name.label_count() > suffix.label_count() && name.is_within(&suffix)
    }

    /// Converts a registrable [`DomainName`] from `ets-core` — a single
    /// copy, no re-validation: a `DomainName` is by construction a
    /// lowercase dotted name within every `Fqdn` limit.
    pub fn from_domain(d: &DomainName) -> Fqdn {
        Fqdn {
            name: Arc::from(d.as_str()),
        }
    }

    /// The name `names` interned as `id` — one copy straight from the
    /// interner's arena, where [`Fqdn::from_domain`] of
    /// [`DomainInterner::domain`] would make two. Interned names are
    /// [`DomainName`]s, so no re-validation is needed either.
    pub fn from_interned(names: &DomainInterner, id: DomainId) -> Fqdn {
        Fqdn {
            name: Arc::from(names.name(id)),
        }
    }

    /// Tries to view this name as a registrable two-label domain.
    pub fn to_domain(&self) -> Option<DomainName> {
        DomainName::parse(&self.to_string()).ok()
    }

    /// The registrable suffix (last two labels), if this name has one.
    pub fn registrable(&self) -> Option<Fqdn> {
        let last = self.name.rfind('.')?;
        let start = match self.name[..last].rfind('.') {
            Some(dot) => dot + 1,
            None => 0,
        };
        Some(Fqdn {
            name: Arc::from(&self.name[start..]),
        })
    }

    /// Wire-format length (sum of label length bytes + label bytes + root).
    pub fn wire_len(&self) -> usize {
        if self.name.is_empty() {
            1
        } else {
            // count byte per label + label bytes + root byte: the dotted
            // form is one byte short per label boundary, plus the root.
            self.name.len() + 2
        }
    }
}

impl fmt::Display for Fqdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.name.is_empty() {
            return f.write_str(".");
        }
        f.write_str(&self.name)
    }
}

// Ordering is label-wise, exactly as the former `Vec<String>` layout
// compared: `a.b` sorts before `a-x.b` because the first *labels* are
// `a` < `a-x`, even though byte-wise `-` < `.` would say otherwise.
// Sorted result files depend on this order. The bytes are compared as if
// each dot were mapped below every label byte, which orders names
// exactly as their labels do (the first differing byte, or the shorter
// name, decides as the first differing label would) without splitting
// them. Only the first differing byte needs the mapping: before it the
// bytes are equal, and no name holds byte 0, so the mapping never turns
// a difference into a tie.
impl Ord for Fqdn {
    fn cmp(&self, other: &Self) -> Ordering {
        let below_labels = |c: u8| if c == b'.' { 0 } else { c };
        let (a, b) = (self.name.as_bytes(), other.name.as_bytes());
        match a.iter().zip(b).find(|(x, y)| x != y) {
            Some((&x, &y)) => below_labels(x).cmp(&below_labels(y)),
            None => a.len().cmp(&b.len()),
        }
    }
}

impl PartialOrd for Fqdn {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl FromStr for Fqdn {
    type Err = FqdnError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Fqdn::parse(s)
    }
}

impl TryFrom<String> for Fqdn {
    type Error = FqdnError;
    fn try_from(s: String) -> Result<Self, Self::Error> {
        Fqdn::parse(&s)
    }
}

impl From<Fqdn> for String {
    fn from(f: Fqdn) -> String {
        f.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Fqdn {
        Fqdn::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(n("ExAmPeL.com.").to_string(), "exampel.com");
        assert_eq!(n(".").to_string(), ".");
        assert_eq!(n("").to_string(), ".");
        assert!(n(".").is_root());
    }

    #[test]
    fn rejects_bad_labels() {
        assert_eq!(Fqdn::parse("a..b"), Err(FqdnError::EmptyLabel));
        assert!(matches!(
            Fqdn::parse("é.com"),
            Err(FqdnError::BadCharacter(_))
        ));
        let long = "a".repeat(64);
        assert!(matches!(
            Fqdn::parse(&format!("{long}.com")),
            Err(FqdnError::LabelTooLong(_))
        ));
    }

    #[test]
    fn underscore_labels_allowed() {
        assert_eq!(n("_dmarc.gmail.com").label_count(), 3);
    }

    #[test]
    fn wildcard_rules() {
        assert!(n("*.exampel.com").is_wildcard());
        assert_eq!(Fqdn::parse("a.*.com"), Err(FqdnError::BadWildcard));
        assert_eq!(Fqdn::parse("x*.com"), Err(FqdnError::BadWildcard));
    }

    #[test]
    fn wildcard_matching_rfc4592() {
        let wc = n("*.exampel.com");
        assert!(wc.matches(&n("mail.exampel.com")));
        assert!(wc.matches(&n("a.b.exampel.com")));
        assert!(
            !wc.matches(&n("exampel.com")),
            "wildcard must not match the zone apex"
        );
        assert!(!wc.matches(&n("other.com")));
        // exact owner matches only itself
        let exact = n("exampel.com");
        assert!(exact.matches(&n("exampel.com")));
        assert!(!exact.matches(&n("mail.exampel.com")));
    }

    #[test]
    fn parent_and_within() {
        assert_eq!(n("a.b.c").parent(), n("b.c"));
        assert!(n("a.b.c").is_within(&n("b.c")));
        assert!(n("a.b.c").is_within(&n("a.b.c")));
        assert!(!n("b.c").is_within(&n("a.b.c")));
        assert!(n("a.b.c").is_within(&Fqdn::root()));
    }

    #[test]
    fn child_builds_subdomains() {
        assert_eq!(n("gmail.com").child("smtp").unwrap(), n("smtp.gmail.com"));
    }

    #[test]
    fn domain_conversions() {
        let d: DomainName = "gmial.com".parse().unwrap();
        let f = Fqdn::from_domain(&d);
        assert_eq!(f.to_string(), "gmial.com");
        assert_eq!(f.to_domain().unwrap(), d);
        assert!(n("*.x.com").to_domain().is_none());
        assert_eq!(n("smtp.gmail.com").registrable().unwrap(), n("gmail.com"));
        assert!(n("com").registrable().is_none());
        let mut names = DomainInterner::new();
        let id = names.intern(&d);
        assert_eq!(Fqdn::from_interned(&names, id), f);
    }

    #[test]
    fn wire_len() {
        // "ab.cd" -> 1+2 + 1+2 + 1 = 7
        assert_eq!(n("ab.cd").wire_len(), 7);
        assert_eq!(Fqdn::root().wire_len(), 1);
    }

    #[test]
    fn ordering_is_stable() {
        let mut v = vec![n("b.com"), n("a.com"), n("a.com")];
        v.sort();
        v.dedup();
        assert_eq!(v, vec![n("a.com"), n("b.com")]);
    }

    /// The comparator `Ord` replaced: every byte mapped, dots below
    /// every label byte, then compared as sequences.
    fn mapped_cmp(a: &Fqdn, b: &Fqdn) -> Ordering {
        let below_labels = |c: u8| if c == b'.' { 0 } else { c };
        let (a, b) = (a.as_str().bytes(), b.as_str().bytes());
        a.map(below_labels).cmp(b.map(below_labels))
    }

    proptest::proptest! {
        /// `Ord` agrees with the mapped-iterator comparator on names that
        /// share long prefixes, differ at a dot, a hyphen or a label
        /// byte, or extend one another, the root included.
        #[test]
        fn ordering_matches_mapped_bytes(
            stem in proptest::collection::vec("[a-c._-]{0,3}", 1..4),
            tails in proptest::collection::vec("[a-c.9_-]{0,3}", 4..5),
        ) {
            let stem: String = stem.concat();
            let names: Vec<Fqdn> = tails
                .iter()
                .filter_map(|t| Fqdn::parse(&format!("{stem}{t}")).ok())
                .chain([Fqdn::root(), n("a"), n("a.b")])
                .collect();
            for p in &names {
                for q in &names {
                    proptest::prop_assert!(p.cmp(q) == mapped_cmp(p, q), "{p} vs {q}");
                }
            }
        }

        /// `Ord` is the label-wise order, for names that extend a shared
        /// first label with a hyphen (`a.b` vs `a-x.b`, where the bytes
        /// disagree) or with a label byte, and for unrelated names of any
        /// depth, the root included.
        #[test]
        fn ordering_is_label_wise(
            labels in proptest::collection::vec("[a-z0-9_-]{1,4}", 2..4),
            ext in "[a-z0-9_]{1,3}",
            other in proptest::collection::vec("[a-z0-9_-]{1,4}", 0..4),
        ) {
            let rest = labels[1..].join(".");
            let names = [
                n(&labels.join(".")),
                n(&format!("{}-{ext}.{rest}", labels[0])),
                n(&format!("{}{ext}.{rest}", labels[0])),
                n(&other.join(".")),
            ];
            for p in &names {
                for q in &names {
                    proptest::prop_assert!(p.cmp(q) == p.labels().cmp(q.labels()), "{p} vs {q}");
                }
            }
        }
    }
}
