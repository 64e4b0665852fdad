//! SMTP commands (RFC 5321 §4.1).

use ets_mail::EmailAddress;
use std::fmt;

/// The command subset the study's traffic exercises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `HELO <domain>`
    Helo(String),
    /// `EHLO <domain>`
    Ehlo(String),
    /// `MAIL FROM:<reverse-path>` (empty path allowed for bounces).
    MailFrom(Option<EmailAddress>),
    /// `RCPT TO:<forward-path>`
    RcptTo(EmailAddress),
    /// `DATA`
    Data,
    /// `STARTTLS`
    StartTls,
    /// `RSET`
    Rset,
    /// `NOOP`
    Noop,
    /// `QUIT`
    Quit,
}

/// Errors from [`Command::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandParseError {
    /// Not a recognized verb.
    UnknownVerb(String),
    /// Verb recognized, argument malformed.
    BadArgument(String),
}

impl fmt::Display for CommandParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandParseError::UnknownVerb(v) => write!(f, "unknown command {v:?}"),
            CommandParseError::BadArgument(a) => write!(f, "bad argument {a:?}"),
        }
    }
}

impl std::error::Error for CommandParseError {}

impl Command {
    /// Parses one command line (without CRLF). Verbs are case-insensitive.
    pub fn parse(line: &str) -> Result<Command, CommandParseError> {
        let line = line.trim_end_matches(['\r', '\n']);
        let (verb, rest) = match line.split_once(|c: char| c.is_ascii_whitespace()) {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        let is = |name: &str| verb.eq_ignore_ascii_case(name);
        if is("HELO") || is("EHLO") {
            if rest.is_empty() {
                Err(CommandParseError::BadArgument(line.to_owned()))
            } else if is("HELO") {
                Ok(Command::Helo(rest.to_owned()))
            } else {
                Ok(Command::Ehlo(rest.to_owned()))
            }
        } else if is("MAIL") {
            let path = strip_path_keyword(rest, "FROM:")
                .ok_or_else(|| CommandParseError::BadArgument(line.to_owned()))?;
            if path.is_empty() {
                Ok(Command::MailFrom(None))
            } else {
                let addr = EmailAddress::parse(path)
                    .map_err(|_| CommandParseError::BadArgument(line.to_owned()))?;
                Ok(Command::MailFrom(Some(addr)))
            }
        } else if is("RCPT") {
            let path = strip_path_keyword(rest, "TO:")
                .ok_or_else(|| CommandParseError::BadArgument(line.to_owned()))?;
            let addr = EmailAddress::parse(path)
                .map_err(|_| CommandParseError::BadArgument(line.to_owned()))?;
            Ok(Command::RcptTo(addr))
        } else if is("DATA") {
            Ok(Command::Data)
        } else if is("STARTTLS") {
            Ok(Command::StartTls)
        } else if is("RSET") {
            Ok(Command::Rset)
        } else if is("NOOP") {
            Ok(Command::Noop)
        } else if is("QUIT") {
            Ok(Command::Quit)
        } else {
            Err(CommandParseError::UnknownVerb(verb.to_owned()))
        }
    }
}

/// Extracts the path from `FROM:<a@b>` / `TO:<a@b>` syntax; `keyword`
/// (colon included) matches case-insensitively. Empty `<>` yields an
/// empty string.
fn strip_path_keyword<'a>(rest: &'a str, keyword: &str) -> Option<&'a str> {
    let head = rest.get(..keyword.len())?;
    if !head.eq_ignore_ascii_case(keyword) {
        return None;
    }
    let path = rest[keyword.len()..].trim();
    path.strip_prefix('<')?.strip_suffix('>')
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::Helo(d) => write!(f, "HELO {d}"),
            Command::Ehlo(d) => write!(f, "EHLO {d}"),
            Command::MailFrom(Some(a)) => write!(f, "MAIL FROM:<{a}>"),
            Command::MailFrom(None) => write!(f, "MAIL FROM:<>"),
            Command::RcptTo(a) => write!(f, "RCPT TO:<{a}>"),
            Command::Data => write!(f, "DATA"),
            Command::StartTls => write!(f, "STARTTLS"),
            Command::Rset => write!(f, "RSET"),
            Command::Noop => write!(f, "NOOP"),
            Command::Quit => write!(f, "QUIT"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_commands() {
        assert_eq!(
            Command::parse("EHLO client.example").unwrap(),
            Command::Ehlo("client.example".to_owned())
        );
        assert_eq!(Command::parse("data").unwrap(), Command::Data);
        assert_eq!(Command::parse("Quit").unwrap(), Command::Quit);
        assert_eq!(Command::parse("STARTTLS").unwrap(), Command::StartTls);
    }

    #[test]
    fn parse_paths() {
        match Command::parse("MAIL FROM:<alice@gmail.com>").unwrap() {
            Command::MailFrom(Some(a)) => assert_eq!(a.to_string(), "alice@gmail.com"),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            Command::parse("MAIL FROM:<>").unwrap(),
            Command::MailFrom(None)
        );
        match Command::parse("rcpt to:<bob@gmial.com>").unwrap() {
            Command::RcptTo(a) => assert_eq!(a.domain(), "gmial.com"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_tolerates_spacing_and_case() {
        assert!(Command::parse("MAIL   FROM:<a@b.com>").is_ok());
        assert!(Command::parse("mail from:<a@b.com>").is_ok());
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            Command::parse("FROB x"),
            Err(CommandParseError::UnknownVerb(_))
        ));
        assert!(matches!(
            Command::parse("MAIL TO:<a@b.com>"),
            Err(CommandParseError::BadArgument(_))
        ));
        assert!(matches!(
            Command::parse("RCPT TO:bob@x.com"),
            Err(CommandParseError::BadArgument(_))
        ));
        assert!(matches!(
            Command::parse("HELO"),
            Err(CommandParseError::BadArgument(_))
        ));
        // RCPT with empty path is invalid
        assert!(Command::parse("RCPT TO:<>").is_err());
    }

    #[test]
    fn display_round_trip() {
        for line in [
            "HELO vps1.example",
            "EHLO vps1.example",
            "MAIL FROM:<a@b.com>",
            "MAIL FROM:<>",
            "RCPT TO:<x@y.com>",
            "DATA",
            "STARTTLS",
            "RSET",
            "NOOP",
            "QUIT",
        ] {
            let cmd = Command::parse(line).unwrap();
            assert_eq!(Command::parse(&cmd.to_string()).unwrap(), cmd);
        }
    }
}
