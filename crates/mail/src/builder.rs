//! A fluent builder for [`Message`].

use crate::address::EmailAddress;
use crate::header::names;
use crate::message::{Attachment, Message};

/// Builds messages for the traffic generator, honey campaigns, and tests.
///
/// ```
/// use ets_mail::MessageBuilder;
///
/// let msg = MessageBuilder::new()
///     .from("alice@gmail.com").unwrap()
///     .to("bob@gmial.com").unwrap()
///     .subject("hotel booking")
///     .body("Book us 3 rooms.")
///     .build();
/// assert_eq!(msg.to_addr().unwrap().domain(), "gmial.com");
/// ```
#[derive(Debug, Clone, Default)]
pub struct MessageBuilder {
    msg: Message,
}

impl MessageBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `From:`. Fails on an unparseable address.
    pub fn from(mut self, addr: &str) -> Result<Self, crate::address::AddressParseError> {
        let a: EmailAddress = addr.parse()?;
        self.msg.headers.set(names::FROM, a.to_string());
        Ok(self)
    }

    /// Sets `To:`. Fails on an unparseable address.
    pub fn to(mut self, addr: &str) -> Result<Self, crate::address::AddressParseError> {
        let a: EmailAddress = addr.parse()?;
        self.msg.headers.set(names::TO, a.to_string());
        Ok(self)
    }

    /// Sets `From:` without validation (spam forges this freely).
    pub fn raw_from(mut self, value: &str) -> Self {
        self.msg.headers.set(names::FROM, value);
        self
    }

    /// Sets `To:` without validation.
    pub fn raw_to(mut self, value: &str) -> Self {
        self.msg.headers.set(names::TO, value);
        self
    }

    /// Sets `Reply-To:`.
    pub fn reply_to(mut self, value: &str) -> Self {
        self.msg.headers.set(names::REPLY_TO, value);
        self
    }

    /// Sets `Return-Path:`.
    pub fn return_path(mut self, value: &str) -> Self {
        self.msg.headers.set(names::RETURN_PATH, value);
        self
    }

    /// Sets `Subject:`.
    pub fn subject(mut self, value: &str) -> Self {
        self.msg.headers.set(names::SUBJECT, value);
        self
    }

    /// Sets `Date:`.
    pub fn date(mut self, value: &str) -> Self {
        self.msg.headers.set(names::DATE, value);
        self
    }

    /// Sets `Message-ID:`.
    pub fn message_id(mut self, value: &str) -> Self {
        self.msg.headers.set(names::MESSAGE_ID, value);
        self
    }

    /// Adds a `List-Unsubscribe:` header (Layer 4 keys on this).
    pub fn list_unsubscribe(mut self, value: &str) -> Self {
        self.msg.headers.set(names::LIST_UNSUBSCRIBE, value);
        self
    }

    /// Appends an arbitrary header.
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.msg.headers.append(name, value);
        self
    }

    /// Sets the body text.
    pub fn body(mut self, text: &str) -> Self {
        self.msg.body = text.to_owned();
        self
    }

    /// Adds an attachment.
    pub fn attach(mut self, filename: &str, content_type: &str, data: Vec<u8>) -> Self {
        self.msg
            .attachments
            .push(Attachment::new(filename, content_type, data));
        self
    }

    /// Finishes, returning the message.
    pub fn build(self) -> Message {
        self.msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_complete_message() {
        let m = MessageBuilder::new()
            .from("alice@gmail.com")
            .unwrap()
            .to("bob@gmial.com")
            .unwrap()
            .subject("s")
            .body("b")
            .reply_to("other@elsewhere.com")
            .list_unsubscribe("<mailto:unsub@list.com>")
            .attach("f.pdf", "application/pdf", vec![1, 2, 3])
            .build();
        assert_eq!(m.from_addr().unwrap().local(), "alice");
        assert_eq!(m.reply_to_addr().unwrap().domain(), "elsewhere.com");
        assert!(m.headers.contains("List-Unsubscribe"));
        assert_eq!(m.attachments.len(), 1);
    }

    #[test]
    fn from_rejects_invalid() {
        assert!(MessageBuilder::new().from("not-an-address").is_err());
    }

    #[test]
    fn raw_setters_bypass_validation() {
        let m = MessageBuilder::new().raw_from("<<<forged>>>").build();
        assert_eq!(m.headers.get("From"), Some("<<<forged>>>"));
        assert!(m.from_addr().is_none());
    }

    #[test]
    fn set_semantics_replace() {
        let m = MessageBuilder::new()
            .subject("first")
            .subject("second")
            .build();
        assert_eq!(m.subject(), "second");
        assert_eq!(m.headers.get_all("Subject").count(), 1);
    }
}
