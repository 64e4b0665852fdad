//! The TCP client driver: delivers one message over a real socket.

use crate::client::{ClientAction, ClientOutcome, ClientSession, Email};
use crate::codec::{Frame, LineCodec};
use crate::reply::Reply;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Errors from a TCP delivery attempt. Protocol-level rejections are *not*
/// errors — they come back as [`ClientOutcome`].
#[derive(Debug)]
pub enum SendError {
    /// TCP connect/read/write failure (Table 5 "Network Error" / "Timeout").
    Io(std::io::Error),
    /// The server sent something that is not an SMTP reply.
    ProtocolGarbage(String),
    /// The server closed the connection mid-session.
    ConnectionClosed,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Io(e) => write!(f, "io: {e}"),
            SendError::ProtocolGarbage(l) => write!(f, "not an SMTP reply: {l:?}"),
            SendError::ConnectionClosed => write!(f, "connection closed mid-session"),
        }
    }
}

impl std::error::Error for SendError {}

impl From<std::io::Error> for SendError {
    fn from(e: std::io::Error) -> Self {
        SendError::Io(e)
    }
}

/// Connects to `addr` and delivers `email`, driving a [`ClientSession`].
pub fn send_email(
    addr: &str,
    email: Email,
    helo_name: &str,
    use_starttls: bool,
    timeout: Duration,
) -> Result<ClientOutcome, SendError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    exchange(stream, ClientSession::new(email, helo_name, use_starttls))
}

/// Runs `session` to its outcome over `stream`. Each command goes out
/// as one write: on a `TCP_NODELAY` socket a line and its CRLF written
/// apart leave as two segments, and the server wakes for each.
fn exchange<S: Read + Write>(
    mut stream: S,
    mut session: ClientSession,
) -> Result<ClientOutcome, SendError> {
    let mut framer = LineCodec::new();
    let mut buf = [0u8; 4096];
    // One line buffer, reused for every reply read and every command
    // written. The frame borrows the codec's scratch, so a reply is
    // copied out before the next read can invalidate it; the parsed
    // reply owns its text, so the buffer is free again for the answer.
    let mut line = String::new();
    loop {
        // Read one complete reply line.
        loop {
            match framer.next_frame() {
                Ok(Some(Frame::Line(l))) => {
                    line.clear();
                    line.push_str(l);
                    break;
                }
                // ets-lint: allow(panic-in-library): framer stays in line mode
                // on the client side; a DATA frame here is impossible.
                Ok(Some(Frame::Data(_))) => unreachable!("client never reads DATA frames"),
                Ok(None) => {
                    let n = stream.read(&mut buf)?;
                    if n == 0 {
                        return Err(SendError::ConnectionClosed);
                    }
                    framer.feed(&buf[..n]);
                }
                Err(e) => return Err(SendError::ProtocolGarbage(e.to_string())),
            }
        }
        // Multiline replies: consume continuation lines (code-dash).
        if line.as_bytes().get(3) == Some(&b'-') {
            continue;
        }
        let reply = Reply::parse(&line).ok_or_else(|| SendError::ProtocolGarbage(line.clone()))?;
        match session.on_reply(&reply) {
            ClientAction::SendLine(l) => {
                line.clear();
                line.push_str(&l);
                line.push_str("\r\n");
                stream.write_all(line.as_bytes())?;
                stream.flush()?;
            }
            ClientAction::SendData(payload) => {
                stream.write_all(payload.as_bytes())?;
                stream.flush()?;
            }
            ClientAction::Finished(outcome) => {
                // ets-lint: allow(swallowed-error): QUIT is a courtesy;
                // the delivery outcome is already decided at this point.
                let _ = stream.write_all(b"QUIT\r\n");
                return Ok(outcome);
            }
        }
    }
}

/// A scripted raw-socket SMTP exchange: the shared low-level client for
/// the server's protocol-fault tests and `ets-loadgen`'s
/// malformed/slowloris scenarios.
///
/// Unlike [`send_email`] it makes no attempt to speak well-formed SMTP:
/// the caller writes whatever bytes it wants with
/// [`RawSession::write_raw`] and reads whatever reply lines arrive with
/// [`RawSession::read_line_into`] / [`RawSession::read_code`]. Every
/// transport failure surfaces as a [`SendError`] — no unwraps, so test
/// clients and fault injectors share one audited error path.
pub struct RawSession {
    stream: TcpStream,
    framer: LineCodec,
    buf: [u8; 1024],
}

impl RawSession {
    /// Connects to `addr` with symmetric read/write timeouts.
    pub fn connect(addr: &str, timeout: Duration) -> Result<RawSession, SendError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(RawSession {
            stream,
            framer: LineCodec::new(),
            buf: [0u8; 1024],
        })
    }

    /// Reads one complete reply line (CRLF stripped) into `line`,
    /// replacing its contents. Reusing one `String` across calls keeps
    /// the read loop allocation-free.
    pub fn read_line_into(&mut self, line: &mut String) -> Result<(), SendError> {
        loop {
            match self.framer.next_frame() {
                Ok(Some(Frame::Line(l))) => {
                    line.clear();
                    line.push_str(l);
                    return Ok(());
                }
                // The raw framer never enters DATA mode; a server pushing
                // a payload frame at us is protocol garbage, not a panic.
                Ok(Some(Frame::Data(d))) => return Err(SendError::ProtocolGarbage(d.to_owned())),
                Ok(None) => {
                    let n = self.stream.read(&mut self.buf)?;
                    if n == 0 {
                        return Err(SendError::ConnectionClosed);
                    }
                    self.framer.feed(&self.buf[..n]);
                }
                Err(e) => return Err(SendError::ProtocolGarbage(e.to_string())),
            }
        }
    }

    /// Reads one reply line, returning it owned.
    pub fn read_line(&mut self) -> Result<String, SendError> {
        let mut line = String::new();
        self.read_line_into(&mut line)?;
        Ok(line)
    }

    /// Reads one reply line and returns its parsed three-digit code.
    pub fn read_code(&mut self) -> Result<u16, SendError> {
        let line = self.read_line()?;
        match Reply::parse(&line) {
            Some(r) => Ok(r.code),
            None => Err(SendError::ProtocolGarbage(line)),
        }
    }

    /// Writes raw bytes verbatim and flushes.
    pub fn write_raw(&mut self, bytes: &[u8]) -> Result<(), SendError> {
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_refused_is_io_error() {
        // Bind then immediately drop to get a (very likely) dead port.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let email = Email::new(None, vec!["a@b.com".parse().unwrap()], "x".to_owned());
        let r = send_email(
            &format!("127.0.0.1:{port}"),
            email,
            "c",
            false,
            Duration::from_millis(500),
        );
        assert!(matches!(r, Err(SendError::Io(_))));
    }

    #[test]
    fn garbage_server_is_protocol_error() {
        // The second banner puts a two-byte character across byte 3.
        for banner in ["NOT SMTP AT ALL\r\n", "22é ok\r\n"] {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let t = std::thread::spawn(move || {
                let (mut s, _) = listener.accept().unwrap();
                let _ = s.write_all(banner.as_bytes());
            });
            let email = Email::new(None, vec!["a@b.com".parse().unwrap()], "x".to_owned());
            let r = send_email(
                &addr.to_string(),
                email,
                "c",
                false,
                Duration::from_millis(1000),
            );
            assert!(matches!(r, Err(SendError::ProtocolGarbage(_))), "{r:?}");
            t.join().unwrap();
        }
    }

    /// A peer that answers from a script and records every write call.
    struct Scripted {
        replies: &'static [u8],
        writes: Vec<Vec<u8>>,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.replies.len());
            buf[..n].copy_from_slice(&self.replies[..n]);
            self.replies = &self.replies[n..];
            Ok(n)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The writes `send_email` makes against `replies`, and its result.
    fn scripted(replies: &'static str) -> (Result<ClientOutcome, SendError>, Vec<String>) {
        let mut peer = Scripted {
            replies: replies.as_bytes(),
            writes: Vec::new(),
        };
        let email = Email::new(
            Some("alice@gmail.com".parse().unwrap()),
            vec!["bob@gmial.com".parse().unwrap()],
            "Subject: hi\r\n\r\nbody".to_owned(),
        );
        let r = exchange(&mut peer, ClientSession::new(email, "c.example", false));
        let writes = peer
            .writes
            .into_iter()
            .map(|w| String::from_utf8(w).unwrap());
        (r, writes.collect())
    }

    #[test]
    fn each_command_is_one_write() {
        let (r, writes) = scripted("220 mx\r\n250 mx\r\n250 OK\r\n550 no\r\n");
        assert!(matches!(r, Ok(ClientOutcome::Rejected { code: 550, .. })));
        assert_eq!(
            writes,
            [
                "EHLO c.example\r\n",
                "MAIL FROM:<alice@gmail.com>\r\n",
                "RCPT TO:<bob@gmial.com>\r\n",
                "QUIT\r\n",
            ]
        );
        let (r, writes) = scripted("220 mx\r\n250 mx\r\n250 OK\r\n250 OK\r\n354 go\r\n250 OK\r\n");
        assert_eq!(r.unwrap(), ClientOutcome::Accepted);
        assert_eq!(
            writes,
            [
                "EHLO c.example\r\n",
                "MAIL FROM:<alice@gmail.com>\r\n",
                "RCPT TO:<bob@gmial.com>\r\n",
                "DATA\r\n",
                "Subject: hi\r\n\r\nbody\r\n.\r\n",
                "QUIT\r\n",
            ]
        );
    }

    #[test]
    fn multibyte_after_the_code_never_panics() {
        // Byte 3 opens a two-byte character, so slicing `[3..4]` would
        // panic; the banner parses, and the peer then hangs up.
        let (r, writes) = scripted("220é ok\r\n");
        assert!(matches!(r, Err(SendError::ConnectionClosed)), "{r:?}");
        assert_eq!(writes, ["EHLO c.example\r\n"]);
    }

    #[test]
    fn server_hangup_is_connection_closed() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            drop(s);
        });
        let email = Email::new(None, vec!["a@b.com".parse().unwrap()], "x".to_owned());
        let r = send_email(
            &addr.to_string(),
            email,
            "c",
            false,
            Duration::from_millis(1000),
        );
        assert!(matches!(
            r,
            Err(SendError::ConnectionClosed) | Err(SendError::Io(_))
        ));
        t.join().unwrap();
    }
}
