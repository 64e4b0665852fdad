//! A UDP driver serving the resolver over real sockets.
//!
//! Like the SMTP substrate, the DNS protocol logic is transport-free (the
//! [`crate::resolver::Resolver`] answers [`crate::wire::DnsMessage`]s);
//! this driver binds a `std::net::UdpSocket`, decodes RFC 1035 packets,
//! and serves authoritative answers — the piece of Figure 1 that answers
//! MX queries for the study's typo domains.

use crate::resolver::Resolver;
use crate::wire::{self, DnsMessage, Rcode};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running UDP DNS server.
pub struct DnsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl DnsServer {
    /// Binds to `addr` (port 0 for ephemeral) and serves `resolver`.
    pub fn bind(addr: &str, resolver: Resolver) -> std::io::Result<DnsServer> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_read_timeout(Some(Duration::from_millis(200)))?;
        let local = socket.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let thread = std::thread::spawn(move || serve_loop(socket, resolver, flag));
        Ok(DnsServer {
            addr: local,
            shutdown,
            thread: Some(thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server and joins its thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for DnsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_loop(socket: UdpSocket, resolver: Resolver, shutdown: Arc<AtomicBool>) {
    let mut buf = [0u8; 1500];
    while !shutdown.load(Ordering::SeqCst) {
        let (n, peer) = match socket.recv_from(&mut buf) {
            Ok(v) => v,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        let response = match wire::decode(&buf[..n]) {
            Ok(query) => resolver.serve(&query),
            Err(_) => {
                // Best effort FORMERR: echo the id if we can read it.
                let id = if n >= 2 {
                    u16::from_be_bytes([buf[0], buf[1]])
                } else {
                    0
                };
                let mut resp =
                    DnsMessage::query(id, crate::name::Fqdn::root(), crate::record::RecordType::A);
                resp.questions.clear();
                resp.is_response = true;
                resp.rcode = Rcode::FormErr;
                resp
            }
        };
        let bytes = wire::encode(&response);
        // ets-lint: allow(swallowed-error): UDP responses are best-effort
        // by protocol; a failed send is the client's timeout to handle.
        let _ = socket.send_to(&bytes, peer);
    }
}

/// A blocking UDP query helper (client side of the driver).
pub fn query_udp(
    server: SocketAddr,
    query: &DnsMessage,
    timeout: Duration,
) -> std::io::Result<DnsMessage> {
    let socket = UdpSocket::bind("127.0.0.1:0")?;
    socket.set_read_timeout(Some(timeout))?;
    socket.send_to(&wire::encode(query), server)?;
    let mut buf = [0u8; 1500];
    let (n, _) = socket.recv_from(&mut buf)?;
    wire::decode(&buf[..n])
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RecordData, RecordType};
    use crate::registry::{Registration, Registry};
    use crate::whois::WhoisRecord;
    use crate::zone::Zone;
    use crate::Fqdn;
    use std::net::Ipv4Addr;

    fn registry() -> Registry {
        let registry = Registry::new();
        registry.register(
            Registration {
                domain: "gmial.com".parse().unwrap(),
                registrar: "r",
                whois: WhoisRecord::default().into(),
                privacy_proxy: None,
                nameservers: vec![],
                created_day: 0,
            },
            Some(Zone::catch_all(
                &"gmial.com".parse().unwrap(),
                Ipv4Addr::new(198, 51, 100, 1),
                300,
            )),
        );
        registry
    }

    #[test]
    fn serves_mx_over_udp() {
        let server = DnsServer::bind("127.0.0.1:0", Resolver::new(registry())).unwrap();
        let q = DnsMessage::query(
            0x55AA,
            "smtp.gmial.com".parse::<Fqdn>().unwrap(),
            RecordType::Mx,
        );
        let resp = query_udp(server.addr(), &q, Duration::from_secs(2)).unwrap();
        assert_eq!(resp.id, 0x55AA);
        assert!(resp.is_response);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert_eq!(resp.answers.len(), 1);
        match &resp.answers[0].data {
            RecordData::Mx { exchange, .. } => {
                assert_eq!(exchange, &"gmial.com".parse::<Fqdn>().unwrap())
            }
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn nxdomain_over_udp() {
        let server = DnsServer::bind("127.0.0.1:0", Resolver::new(registry())).unwrap();
        let q = DnsMessage::query(
            7,
            "unregistered-name.com".parse::<Fqdn>().unwrap(),
            RecordType::A,
        );
        let resp = query_udp(server.addr(), &q, Duration::from_secs(2)).unwrap();
        assert_eq!(resp.rcode, Rcode::NxDomain);
        assert!(resp.answers.is_empty());
    }

    #[test]
    fn garbage_gets_formerr() {
        let server = DnsServer::bind("127.0.0.1:0", Resolver::new(registry())).unwrap();
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        socket.send_to(&[0xAB, 0xCD, 0xFF], server.addr()).unwrap();
        let mut buf = [0u8; 512];
        let (n, _) = socket.recv_from(&mut buf).unwrap();
        let resp = wire::decode(&buf[..n]).unwrap();
        assert_eq!(resp.id, 0xABCD);
        assert_eq!(resp.rcode, Rcode::FormErr);
    }

    #[test]
    fn many_queries_sequentially() {
        let server = DnsServer::bind("127.0.0.1:0", Resolver::new(registry())).unwrap();
        for i in 0..20u16 {
            let q = DnsMessage::query(i, "gmial.com".parse::<Fqdn>().unwrap(), RecordType::A);
            let resp = query_udp(server.addr(), &q, Duration::from_secs(2)).unwrap();
            assert_eq!(resp.id, i);
            assert_eq!(resp.answers.len(), 1);
        }
    }
}
