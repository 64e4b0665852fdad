//! Line framing for the TCP driver.
//!
//! SMTP is line-oriented: commands and replies end with CRLF, and the DATA
//! payload ends with the lone-dot line `CRLF . CRLF` with leading-dot
//! transparency ("dot stuffing", RFC 5321 §4.5.2). [`LineCodec`]
//! accumulates raw socket bytes and yields complete frames.
//!
//! Frames borrow from a scratch buffer owned by the codec: decoding a
//! command line or unstuffing a DATA payload writes into the same
//! reusable `String`, so a session that handles a million lines performs
//! zero per-frame heap allocations after warm-up (the serving hot path
//! measured by `ets-loadgen`). A caller that needs the text beyond the
//! next `feed`/`next_frame` call copies it out explicitly.

use bytes::{Buf, BytesMut};

/// Maximum accepted command-line length (RFC 5321 allows 512 for commands;
/// we are generous to tolerate long paths).
pub const MAX_LINE_LEN: usize = 2048;

/// Maximum accepted DATA payload (defensive cap; the study's emails are
/// far smaller).
pub const MAX_DATA_LEN: usize = 16 * 1024 * 1024;

/// Framing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A line exceeded [`MAX_LINE_LEN`].
    LineTooLong,
    /// A DATA payload exceeded [`MAX_DATA_LEN`].
    DataTooLong,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::LineTooLong => write!(f, "line exceeds {MAX_LINE_LEN} bytes"),
            CodecError::DataTooLong => write!(f, "data exceeds {MAX_DATA_LEN} bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// What the codec is currently framing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Command/reply lines.
    Line,
    /// DATA payload until `CRLF . CRLF`.
    Data,
}

/// An incremental framer over a byte stream.
#[derive(Debug)]
pub struct LineCodec {
    buf: BytesMut,
    mode: Mode,
    /// Where the next search for the DATA terminator starts. No
    /// terminator begins before it, so each byte of a payload is
    /// searched a bounded number of times however it is split.
    data_scan: usize,
    /// Reusable decode target; the most recent frame borrows from it.
    scratch: String,
}

/// A decoded frame, borrowing the codec's scratch buffer. Valid until the
/// next `next_frame`/`feed` call on the codec that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame<'a> {
    /// One command or reply line, CRLF stripped.
    Line(&'a str),
    /// A complete DATA payload, dot-unstuffed, terminator stripped.
    Data(&'a str),
}

impl LineCodec {
    /// Creates an empty codec in line mode.
    pub fn new() -> Self {
        LineCodec {
            buf: BytesMut::with_capacity(1024),
            mode: Mode::Line,
            data_scan: 0,
            scratch: String::new(),
        }
    }

    /// Feeds raw bytes from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Switches to DATA framing (after the server answers 354).
    pub fn enter_data_mode(&mut self) {
        self.mode = Mode::Data;
        self.data_scan = 0;
    }

    /// Whether the codec is framing a DATA payload.
    pub fn in_data_mode(&self) -> bool {
        self.mode == Mode::Data
    }

    /// Attempts to extract the next complete frame.
    pub fn next_frame(&mut self) -> Result<Option<Frame<'_>>, CodecError> {
        match self.mode {
            Mode::Line => self.next_line(),
            Mode::Data => self.next_data(),
        }
    }

    fn next_line(&mut self) -> Result<Option<Frame<'_>>, CodecError> {
        if let Some(pos) = find_crlf(&self.buf) {
            if pos > MAX_LINE_LEN {
                return Err(CodecError::LineTooLong);
            }
            self.scratch.clear();
            push_lossy(&mut self.scratch, &self.buf[..pos]);
            self.buf.advance(pos + 2); // line + CRLF
            return Ok(Some(Frame::Line(&self.scratch)));
        }
        if self.buf.len() > MAX_LINE_LEN {
            return Err(CodecError::LineTooLong);
        }
        Ok(None)
    }

    fn next_data(&mut self) -> Result<Option<Frame<'_>>, CodecError> {
        // Terminator: CRLF.CRLF — or the degenerate ".CRLF" as the very
        // first bytes of the payload (empty message).
        if self.buf.starts_with(b".\r\n") {
            self.buf.advance(3);
            self.mode = Mode::Line;
            self.scratch.clear();
            return Ok(Some(Frame::Data(&self.scratch)));
        }
        let term = b"\r\n.\r\n";
        let from = self.data_scan;
        if let Some(pos) = find_subslice(&self.buf[from..], term).map(|p| from + p) {
            // Keep the final CRLF of the body; `unstuff_into` strips it.
            unstuff_into(&self.buf[..pos + 2], &mut self.scratch);
            self.buf.advance(pos + term.len());
            self.mode = Mode::Line;
            self.data_scan = 0;
            return Ok(Some(Frame::Data(&self.scratch)));
        }
        // A terminator the next bytes complete starts in the last 4.
        self.data_scan = self.buf.len().saturating_sub(term.len() - 1);
        if self.buf.len() > MAX_DATA_LEN {
            return Err(CodecError::DataTooLong);
        }
        Ok(None)
    }

    /// Bytes buffered but not yet framed.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

impl Default for LineCodec {
    fn default() -> Self {
        Self::new()
    }
}

fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

fn find_subslice(buf: &[u8], needle: &[u8]) -> Option<usize> {
    buf.windows(needle.len()).position(|w| w == needle)
}

/// Appends raw bytes as UTF-8; invalid sequences take the (allocating)
/// lossy decoder, which real SMTP traffic essentially never hits.
fn push_lossy(out: &mut String, raw: &[u8]) {
    match std::str::from_utf8(raw) {
        Ok(s) => out.push_str(s),
        Err(_) => out.push_str(&String::from_utf8_lossy(raw)),
    }
}

/// Removes dot-stuffing from raw payload bytes into `out` (cleared
/// first): a leading `..` on a CRLF-delimited line becomes `.`, and the
/// trailing CRLF that belonged to the terminator framing is dropped.
fn unstuff_into(raw: &[u8], out: &mut String) {
    out.clear();
    out.reserve(raw.len());
    let mut rest = raw;
    while !rest.is_empty() {
        let (line, remainder) = match find_subslice(rest, b"\r\n") {
            Some(p) => rest.split_at(p + 2),
            None => (rest, &[][..]),
        };
        if let Some(stripped) = line.strip_prefix(b"..") {
            out.push('.');
            push_lossy(out, stripped);
        } else {
            push_lossy(out, line);
        }
        rest = remainder;
    }
    if out.ends_with("\r\n") {
        out.truncate(out.len() - 2);
    }
}

/// Removes dot-stuffing: a leading `..` on a line becomes `.`.
pub fn unstuff(data: &str) -> String {
    let mut out = String::new();
    unstuff_into(data.as_bytes(), &mut out);
    out
}

/// Adds dot-stuffing and the terminator to a payload for transmission.
pub fn stuff(data: &str) -> String {
    let mut out = String::with_capacity(data.len() + 8);
    for line in data.split('\n') {
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.starts_with('.') {
            out.push('.');
        }
        out.push_str(line);
        out.push_str("\r\n");
    }
    out.push_str(".\r\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Detaches a frame from the codec's scratch buffer for tests that
    /// interleave frame extraction with further feeds.
    fn owned(f: Option<Frame<'_>>) -> Option<(bool, String)> {
        f.map(|f| match f {
            Frame::Line(s) => (false, s.to_owned()),
            Frame::Data(s) => (true, s.to_owned()),
        })
    }

    #[test]
    fn splits_lines() {
        let mut c = LineCodec::new();
        c.feed(b"EHLO a.com\r\nMAIL FROM:<x@y.com>\r\npartial");
        assert_eq!(c.next_frame().unwrap(), Some(Frame::Line("EHLO a.com")));
        assert_eq!(
            c.next_frame().unwrap(),
            Some(Frame::Line("MAIL FROM:<x@y.com>"))
        );
        assert_eq!(c.next_frame().unwrap(), None);
        c.feed(b" done\r\n");
        assert_eq!(c.next_frame().unwrap(), Some(Frame::Line("partial done")));
    }

    #[test]
    fn data_mode_frames_payload() {
        let mut c = LineCodec::new();
        c.enter_data_mode();
        c.feed(b"Subject: hi\r\n\r\nbody line\r\n.\r\nQUIT\r\n");
        assert_eq!(
            c.next_frame().unwrap(),
            Some(Frame::Data("Subject: hi\r\n\r\nbody line"))
        );
        assert!(!c.in_data_mode());
        assert_eq!(c.next_frame().unwrap(), Some(Frame::Line("QUIT")));
    }

    #[test]
    fn empty_data_payload() {
        let mut c = LineCodec::new();
        c.enter_data_mode();
        c.feed(b".\r\n");
        assert_eq!(c.next_frame().unwrap(), Some(Frame::Data("")));
    }

    #[test]
    fn dot_unstuffing() {
        let mut c = LineCodec::new();
        c.enter_data_mode();
        c.feed(b"..leading dot\r\nnormal\r\n.\r\n");
        assert_eq!(
            c.next_frame().unwrap(),
            Some(Frame::Data(".leading dot\r\nnormal"))
        );
    }

    #[test]
    fn line_length_limit() {
        let mut c = LineCodec::new();
        c.feed(&vec![b'a'; MAX_LINE_LEN + 1]);
        assert_eq!(c.next_frame(), Err(CodecError::LineTooLong));
        // The cap also applies when the oversized line arrives complete
        // with its CRLF in one segment.
        let mut c2 = LineCodec::new();
        let mut big = vec![b'a'; MAX_LINE_LEN + 1];
        big.extend_from_slice(b"\r\n");
        c2.feed(&big);
        assert_eq!(c2.next_frame(), Err(CodecError::LineTooLong));
    }

    #[test]
    fn incremental_data_terminator() {
        // Terminator split across feeds.
        let mut c = LineCodec::new();
        c.enter_data_mode();
        c.feed(b"body\r\n.");
        assert_eq!(c.next_frame().unwrap(), None);
        c.feed(b"\r\n");
        assert_eq!(c.next_frame().unwrap(), Some(Frame::Data("body")));
    }

    #[test]
    fn stuff_round_trips_dotted_lines() {
        let payload = ".starts with dot\nplain\n..double";
        let stuffed = stuff(payload);
        let mut c = LineCodec::new();
        c.enter_data_mode();
        c.feed(stuffed.as_bytes());
        match c.next_frame().unwrap() {
            Some(Frame::Data(d)) => {
                assert_eq!(d, ".starts with dot\r\nplain\r\n..double");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scratch_is_reused_across_frames() {
        // Two frames through one codec must not grow new allocations for
        // same-or-smaller lines: the scratch capacity is retained.
        let mut c = LineCodec::new();
        c.feed(b"MAIL FROM:<someone-long@example.com>\r\n");
        let _ = c.next_frame().unwrap();
        let cap = c.scratch.capacity();
        c.feed(b"RCPT TO:<u@example.com>\r\n");
        assert_eq!(
            c.next_frame().unwrap(),
            Some(Frame::Line("RCPT TO:<u@example.com>"))
        );
        assert_eq!(c.scratch.capacity(), cap);
    }

    #[test]
    fn unstuff_helper_matches_codec() {
        assert_eq!(unstuff("..x\r\ny\r\n"), ".x\r\ny");
        assert_eq!(unstuff(""), "");
        assert_eq!(unstuff("plain"), "plain");
    }

    proptest! {
        #[test]
        fn stuffed_payload_round_trips(body in "[ -~]{0,300}") {
            // Normalize: transmission canonicalizes line endings to CRLF.
            let stuffed = stuff(&body);
            let mut c = LineCodec::new();
            c.enter_data_mode();
            c.feed(stuffed.as_bytes());
            let frame = c.next_frame().unwrap().expect("complete payload");
            let expected = body.split('\n')
                .map(|l| l.strip_suffix('\r').unwrap_or(l))
                .collect::<Vec<_>>()
                .join("\r\n");
            prop_assert_eq!(frame, Frame::Data(expected.as_str()));
            prop_assert_eq!(c.pending(), 0);
        }

        #[test]
        fn feed_in_chunks_equals_feed_at_once(
            body in "[a-z\r\n.]{0,200}",
            chunks in proptest::collection::vec(1usize..64, 1..64),
        ) {
            // Chunk sizes cycle until the payload is fed, so the
            // terminator is split at every offset across the cases.
            let stuffed = stuff(&body);
            let bytes = stuffed.as_bytes();
            let mut c1 = LineCodec::new();
            c1.enter_data_mode();
            c1.feed(bytes);
            let f1 = owned(c1.next_frame().unwrap());
            let mut c2 = LineCodec::new();
            c2.enter_data_mode();
            let mut f2 = None;
            let mut rest = bytes;
            for &size in chunks.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (chunk, tail) = rest.split_at(size.min(rest.len()));
                c2.feed(chunk);
                rest = tail;
                if f2.is_none() {
                    f2 = owned(c2.next_frame().unwrap());
                }
            }
            prop_assert_eq!(f1, f2);
            prop_assert_eq!(c1.pending(), c2.pending());
        }
    }
}
