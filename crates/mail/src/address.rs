//! Email addresses (`local@domain`).
//!
//! Receiver typos live in the *domain* part (`alice@gmial.com`); the study
//! explicitly leaves local-part typos to future work (§8), but the funnel
//! still needs to parse, compare, and classify full addresses — including
//! the system-user locals (`postmaster`, `root`, ...) filtered by Layer 4.

use serde::__private::de_field;
use serde::{DeError, Deserialize, Map, Serialize, Value};
use std::fmt;
use std::str::FromStr;

/// Errors from parsing an [`EmailAddress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddressParseError {
    /// No `@` separator was found.
    MissingAt,
    /// More than one unquoted `@`.
    MultipleAt,
    /// The local part was empty or contained forbidden characters.
    BadLocal(String),
    /// The domain part failed domain validation.
    BadDomain(String),
}

impl fmt::Display for AddressParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddressParseError::MissingAt => write!(f, "address has no @"),
            AddressParseError::MultipleAt => write!(f, "address has multiple @"),
            AddressParseError::BadLocal(l) => write!(f, "bad local part `{l}`"),
            AddressParseError::BadDomain(d) => write!(f, "bad domain `{d}`"),
        }
    }
}

impl std::error::Error for AddressParseError {}

/// A parsed `local@domain` address. The domain is lower-cased; the local
/// part keeps its case for display but compares case-insensitively, which
/// matches how every large provider actually routes mail.
///
/// Stored as the one rendered `local@domain` buffer plus the index of its
/// `@`: a parse allocates once, and [`as_str`](Self::as_str) hands out the
/// rendering without building it again.
#[derive(Clone)]
pub struct EmailAddress {
    addr: String,
    at: usize,
}

impl EmailAddress {
    /// Parses an address, accepting an optional `Display Name <addr>` form.
    pub fn parse(input: &str) -> Result<Self, AddressParseError> {
        let (local, domain) = split(input)?;
        let mut addr = Self::joined(local, domain);
        addr.addr[addr.at + 1..].make_ascii_lowercase();
        Ok(addr)
    }

    /// Builds an address from already-validated parts.
    pub fn new(local: &str, domain: &str) -> Result<Self, AddressParseError> {
        Self::parse(&format!("{local}@{domain}"))
    }

    /// `local@domain`, verbatim.
    fn joined(local: &str, domain: &str) -> Self {
        let mut addr = String::with_capacity(local.len() + 1 + domain.len());
        addr.push_str(local);
        addr.push('@');
        addr.push_str(domain);
        EmailAddress {
            addr,
            at: local.len(),
        }
    }

    /// The local part (case preserved).
    pub fn local(&self) -> &str {
        &self.addr[..self.at]
    }

    /// The domain part (lower-cased).
    pub fn domain(&self) -> &str {
        &self.addr[self.at + 1..]
    }

    /// The whole address, `local@domain` — what `Display` prints.
    pub fn as_str(&self) -> &str {
        &self.addr
    }

    /// The registrable domain of the address
    /// (`alice@smtp.gmail.com` → `gmail.com`): its last two labels, or
    /// the whole domain when it has fewer.
    pub fn registrable_domain(&self) -> &str {
        let domain = self.domain();
        match domain.rfind('.') {
            Some(last) => match domain[..last].rfind('.') {
                Some(prev) => &domain[prev + 1..],
                None => domain,
            },
            None => domain,
        }
    }

    /// Whether the local part is a "system user" Layer 4 filters out
    /// (`postmaster`, `root`, `admin`, ... — §4.3), in any case, alone or
    /// with a `+tag`.
    pub fn is_system_user(&self) -> bool {
        let local = self.local().as_bytes();
        SYSTEM_USERS.iter().any(|name| {
            let name = name.as_bytes();
            local.len() >= name.len()
                && local[..name.len()].eq_ignore_ascii_case(name)
                && (local.len() == name.len() || local[name.len()] == b'+')
        })
    }
}

/// The system-user local parts of [`EmailAddress::is_system_user`].
const SYSTEM_USERS: [&str; 11] = [
    "postmaster",
    "root",
    "admin",
    "administrator",
    "mailer-daemon",
    "noreply",
    "no-reply",
    "nobody",
    "hostmaster",
    "webmaster",
    "abuse",
];

/// Validates `input` and returns its local and domain parts, as written.
fn split(input: &str) -> Result<(&str, &str), AddressParseError> {
    let inner = match (input.rfind('<'), input.rfind('>')) {
        (Some(a), Some(b)) if a < b => &input[a + 1..b],
        _ => input,
    };
    let inner = inner.trim();
    let mut parts = inner.splitn(2, '@');
    let local = parts.next().unwrap_or("");
    let domain = parts.next().ok_or(AddressParseError::MissingAt)?;
    if domain.contains('@') {
        return Err(AddressParseError::MultipleAt);
    }
    if local.is_empty()
        || !local
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-' | '+' | '='))
    {
        return Err(AddressParseError::BadLocal(local.to_owned()));
    }
    // Validate the domain with the same rules as ets-core, but without
    // depending on it (keep ets-mail substrate-free).
    if !valid_domain(domain) {
        return Err(AddressParseError::BadDomain(domain.to_owned()));
    }
    Ok((local, domain))
}

fn valid_domain(domain: &str) -> bool {
    let d = domain.strip_suffix('.').unwrap_or(domain);
    if d.is_empty() || d.len() > 253 {
        return false;
    }
    let mut labels = 0;
    for label in d.split('.') {
        if label.is_empty() || label.len() > 63 {
            return false;
        }
        if label.starts_with('-') || label.ends_with('-') {
            return false;
        }
        if !label.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
            return false;
        }
        labels += 1;
    }
    labels >= 2
}

impl PartialEq for EmailAddress {
    fn eq(&self, other: &Self) -> bool {
        self.local().eq_ignore_ascii_case(other.local()) && self.domain() == other.domain()
    }
}

impl Eq for EmailAddress {}

impl std::hash::Hash for EmailAddress {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // The byte stream `str::hash` feeds for the lower-cased local part.
        for b in self.local().bytes() {
            state.write_u8(b.to_ascii_lowercase());
        }
        state.write_u8(0xff);
        self.domain().hash(state);
    }
}

impl fmt::Debug for EmailAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EmailAddress")
            .field("local", &self.local())
            .field("domain", &self.domain())
            .finish()
    }
}

/// `{"domain": .., "local": ..}`, the two parts as strings.
impl Serialize for EmailAddress {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("local".to_owned(), Value::String(self.local().to_owned()));
        m.insert("domain".to_owned(), Value::String(self.domain().to_owned()));
        Value::Object(m)
    }
}

/// Reads the two parts back as written, without re-validating them.
impl Deserialize for EmailAddress {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v
            .as_object()
            .ok_or_else(|| DeError::new("EmailAddress: expected object"))?;
        let local: String = de_field(m, "local")?;
        let domain: String = de_field(m, "domain")?;
        Ok(EmailAddress::joined(&local, &domain))
    }
}

impl FromStr for EmailAddress {
    type Err = AddressParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        EmailAddress::parse(s)
    }
}

impl fmt::Display for EmailAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> EmailAddress {
        EmailAddress::parse(s).unwrap()
    }

    #[test]
    fn parses_plain_address() {
        let addr = a("alice@gmail.com");
        assert_eq!(addr.local(), "alice");
        assert_eq!(addr.domain(), "gmail.com");
        assert_eq!(addr.to_string(), "alice@gmail.com");
    }

    #[test]
    fn parses_display_name_form() {
        let addr = a("Alice Liddell <alice@Gmail.Com>");
        assert_eq!(addr.local(), "alice");
        assert_eq!(addr.domain(), "gmail.com");
    }

    #[test]
    fn local_part_characters() {
        assert!(EmailAddress::parse("first.last+tag@x.com").is_ok());
        assert!(EmailAddress::parse("under_score=x@x.com").is_ok());
        assert!(EmailAddress::parse("sp ace@x.com").is_err());
        assert!(EmailAddress::parse("@x.com").is_err());
    }

    #[test]
    fn rejects_missing_or_multiple_at() {
        assert_eq!(
            EmailAddress::parse("nobody"),
            Err(AddressParseError::MissingAt)
        );
        assert_eq!(
            EmailAddress::parse("a@b@c.com"),
            Err(AddressParseError::MultipleAt)
        );
    }

    #[test]
    fn rejects_bad_domains() {
        assert!(matches!(
            EmailAddress::parse("a@nodot"),
            Err(AddressParseError::BadDomain(_))
        ));
        assert!(matches!(
            EmailAddress::parse("a@-x.com"),
            Err(AddressParseError::BadDomain(_))
        ));
        assert!(matches!(
            EmailAddress::parse("a@x..com"),
            Err(AddressParseError::BadDomain(_))
        ));
    }

    #[test]
    fn equality_ignores_local_case() {
        assert_eq!(a("Alice@gmail.com"), a("alice@GMAIL.com"));
        assert_ne!(a("alice@gmail.com"), a("alice@gmial.com"));
    }

    /// The label-collecting form `registrable_domain` replaced.
    fn registrable_domain_legacy(domain: &str) -> &str {
        let mut labels: Vec<&str> = domain.split('.').collect();
        if labels.len() <= 2 {
            return domain;
        }
        let tail = labels.split_off(labels.len() - 2);
        let offset = domain.len() - (tail[0].len() + 1 + tail[1].len());
        &domain[offset..]
    }

    #[test]
    fn registrable_domain() {
        assert_eq!(a("a@smtp.gmail.com").registrable_domain(), "gmail.com");
        assert_eq!(a("a@gmail.com").registrable_domain(), "gmail.com");
        assert_eq!(a("a@x.y.z.verizon.net").registrable_domain(), "verizon.net");
        assert_eq!(a("a@gmail.com.").registrable_domain(), "com.");
        assert_eq!(a("a@smtp.gmail.com.").registrable_domain(), "com.");
        // Parsing rejects a single label, but the rule leaves one whole.
        assert!(EmailAddress::parse("a@localhost").is_err());
        assert_eq!(
            EmailAddress::joined("a", "localhost").registrable_domain(),
            "localhost"
        );
        for domain in [
            "localhost",
            "gmail.com",
            "smtp.gmail.com",
            "x.y.z.verizon.net",
            "gmail.com.",
            "smtp.gmail.com.",
        ] {
            assert_eq!(
                EmailAddress::joined("a", domain).registrable_domain(),
                registrable_domain_legacy(domain),
                "{domain}"
            );
        }
    }

    #[test]
    fn system_users() {
        assert!(a("postmaster@x.com").is_system_user());
        assert!(a("ROOT@x.com").is_system_user());
        assert!(a("no-reply@shop.com").is_system_user());
        assert!(a("abuse+tickets@x.com").is_system_user());
        assert!(!a("alice@x.com").is_system_user());
        // Layer-4 matches whole local parts, not substrings.
        assert!(!a("rootbeer@x.com").is_system_user());
    }

    /// The allocating form `is_system_user` replaced.
    fn is_system_user_legacy(addr: &EmailAddress) -> bool {
        let l = addr.local().to_ascii_lowercase();
        SYSTEM_USERS
            .iter()
            .any(|s| l == *s || l.starts_with(&format!("{s}+")))
    }

    #[test]
    fn system_users_match_the_allocating_form() {
        for local in [
            "postmaster",
            "PostMaster",
            "Postmaster+x",
            "ROOT+",
            "root+a+b",
            "rootbeer",
            "root.beer",
            "roo",
            "r",
            "Administrator",
            "admin-x",
            "MAILER-DAEMON",
            "noreply+tag",
            "no-reply",
            "abuse+tickets",
            "alice",
        ] {
            let addr = a(&format!("{local}@x.com"));
            assert_eq!(
                addr.is_system_user(),
                is_system_user_legacy(&addr),
                "{local}"
            );
        }
    }

    #[test]
    fn renderings_agree() {
        for input in [
            "alice@gmail.com",
            "Alice Liddell <First.Last+tag@Smtp.Gmail.Com>",
            "  bob@X.com ",
        ] {
            let addr = a(input);
            let parts = format!("{}@{}", addr.local(), addr.domain());
            assert_eq!(addr.to_string(), parts);
            assert_eq!(addr.as_str(), parts);
        }
        let built = EmailAddress::new("Bob", "Smtp.Gmail.com").unwrap();
        assert_eq!(built.as_str(), "Bob@smtp.gmail.com");
    }

    #[test]
    fn debug_text_is_unchanged() {
        assert_eq!(
            format!("{:?}", a("Alice <Alice@Gmail.com>")),
            r#"EmailAddress { local: "Alice", domain: "gmail.com" }"#
        );
    }

    #[test]
    fn json_is_domain_and_local() {
        let addr = a("Alice@Gmail.com");
        let mut object = Map::new();
        object.insert("domain".to_owned(), Value::String("gmail.com".to_owned()));
        object.insert("local".to_owned(), Value::String("Alice".to_owned()));
        let value = addr.to_value();
        assert_eq!(value, Value::Object(object));
        let back = EmailAddress::from_value(&value).unwrap();
        assert_eq!(back.as_str(), "Alice@gmail.com");
        assert_eq!((back.local(), back.domain()), ("Alice", "gmail.com"));
        assert!(EmailAddress::from_value(&Value::Null).is_err());
    }

    #[test]
    fn hash_consistent_with_eq() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(a("Alice@gmail.com"));
        assert!(set.contains(&a("alice@gmail.com")));
    }
}
