//! RFC 1035 wire-format codec.
//!
//! Encodes and decodes DNS messages — header, question, resource records —
//! including name compression on encode and pointer-chasing (with loop
//! protection) on decode. The §5 census does not use it: `scan_world`
//! classifies each ctypo through `Resolver::mail_route`, in memory. The
//! codec's caller is [`crate::server::DnsServer`], which answers real
//! UDP queries from a resolver, as `examples/defense_toolkit.rs` runs it.

use crate::name::Fqdn;
use crate::record::{RecordData, RecordType, ResourceRecord};
use bytes::{BufMut, Bytes, BytesMut};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Maximum compression-pointer hops tolerated while decoding one name.
const MAX_POINTER_HOPS: usize = 32;

/// DNS opcode (only QUERY is used).
pub const OPCODE_QUERY: u8 = 0;

/// Response codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Format error.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist (authoritative).
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Query refused.
    Refused,
}

impl Rcode {
    /// 4-bit wire value.
    pub fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
        }
    }

    /// Parses the 4-bit wire value.
    pub fn from_code(code: u8) -> Option<Rcode> {
        Some(match code {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            _ => return None,
        })
    }
}

/// A question section entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Queried name.
    pub name: Fqdn,
    /// Queried type.
    pub qtype: RecordType,
}

/// A DNS message (header flags reduced to the ones the study exercises).
#[derive(Debug, Clone, PartialEq)]
pub struct DnsMessage {
    /// Transaction ID.
    pub id: u16,
    /// Response flag (QR).
    pub is_response: bool,
    /// Authoritative answer flag (AA).
    pub authoritative: bool,
    /// Recursion desired (RD).
    pub recursion_desired: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<ResourceRecord>,
    /// Authority section.
    pub authority: Vec<ResourceRecord>,
}

impl DnsMessage {
    /// Builds a query for one (name, type).
    pub fn query(id: u16, name: Fqdn, qtype: RecordType) -> DnsMessage {
        DnsMessage {
            id,
            is_response: false,
            authoritative: false,
            recursion_desired: true,
            rcode: Rcode::NoError,
            questions: vec![Question { name, qtype }],
            answers: Vec::new(),
            authority: Vec::new(),
        }
    }

    /// Builds a response skeleton echoing a query.
    pub fn response_to(query: &DnsMessage, rcode: Rcode) -> DnsMessage {
        DnsMessage {
            id: query.id,
            is_response: true,
            authoritative: true,
            recursion_desired: query.recursion_desired,
            rcode,
            questions: query.questions.clone(),
            answers: Vec::new(),
            authority: Vec::new(),
        }
    }
}

/// Errors from [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Message shorter than its own structure claims.
    Truncated,
    /// A label length byte used the reserved 0x80/0x40 prefixes.
    BadLabelType(u8),
    /// Compression pointers formed a loop (or chain beyond the hop limit).
    PointerLoop,
    /// A pointer referenced data at or beyond its own position.
    ForwardPointer,
    /// Unknown record type in a section that must be understood.
    UnknownType(u16),
    /// Unknown class (only IN is supported).
    UnknownClass(u16),
    /// A decoded name failed validation.
    BadName,
    /// RDLENGTH disagreed with the actual RDATA size.
    BadRdLength,
    /// Unknown RCODE bits.
    BadRcode(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadLabelType(b) => write!(f, "reserved label type byte {b:#x}"),
            WireError::PointerLoop => write!(f, "compression pointer loop"),
            WireError::ForwardPointer => write!(f, "forward compression pointer"),
            WireError::UnknownType(t) => write!(f, "unknown record type {t}"),
            WireError::UnknownClass(c) => write!(f, "unknown class {c}"),
            WireError::BadName => write!(f, "invalid name"),
            WireError::BadRdLength => write!(f, "rdlength mismatch"),
            WireError::BadRcode(c) => write!(f, "unknown rcode {c}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a message, compressing names against earlier occurrences.
pub fn encode(msg: &DnsMessage) -> Bytes {
    let mut buf = BytesMut::with_capacity(512);
    let mut compress: HashMap<String, u16> = HashMap::new();
    buf.put_u16(msg.id);
    let mut flags: u16 = 0;
    if msg.is_response {
        flags |= 0x8000;
    }
    flags |= (OPCODE_QUERY as u16) << 11;
    if msg.authoritative {
        flags |= 0x0400;
    }
    if msg.recursion_desired {
        flags |= 0x0100;
    }
    flags |= msg.rcode.code() as u16;
    buf.put_u16(flags);
    buf.put_u16(msg.questions.len() as u16);
    buf.put_u16(msg.answers.len() as u16);
    buf.put_u16(msg.authority.len() as u16);
    buf.put_u16(0); // no additional section
    for q in &msg.questions {
        encode_name(&mut buf, &q.name, &mut compress);
        buf.put_u16(q.qtype.code());
        buf.put_u16(1); // class IN
    }
    for rr in msg.answers.iter().chain(msg.authority.iter()) {
        encode_rr(&mut buf, rr, &mut compress);
    }
    buf.freeze()
}

fn encode_rr(buf: &mut BytesMut, rr: &ResourceRecord, compress: &mut HashMap<String, u16>) {
    encode_name(buf, &rr.name, compress);
    buf.put_u16(rr.record_type().code());
    buf.put_u16(1); // class IN
    buf.put_u32(rr.ttl);
    let len_pos = buf.len();
    buf.put_u16(0); // placeholder
    let start = buf.len();
    match &rr.data {
        RecordData::A(ip) => buf.put_slice(&ip.octets()),
        RecordData::Ns(h) | RecordData::Cname(h) => encode_name(buf, h, compress),
        RecordData::Soa {
            mname,
            rname,
            serial,
        } => {
            encode_name(buf, mname, compress);
            encode_name(buf, rname, compress);
            buf.put_u32(*serial);
            // refresh/retry/expire/minimum fixed for the simulation
            buf.put_u32(3600);
            buf.put_u32(600);
            buf.put_u32(86_400);
            buf.put_u32(300);
        }
        RecordData::Mx {
            preference,
            exchange,
        } => {
            buf.put_u16(*preference);
            encode_name(buf, exchange, compress);
        }
        RecordData::Txt(t) => {
            for chunk in t.as_bytes().chunks(255) {
                buf.put_u8(chunk.len() as u8);
                buf.put_slice(chunk);
            }
            if t.is_empty() {
                buf.put_u8(0);
            }
        }
    }
    let rdlen = (buf.len() - start) as u16;
    buf[len_pos..len_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
}

/// Encodes a name with compression: each suffix already emitted is replaced
/// by a pointer.
fn encode_name(buf: &mut BytesMut, name: &Fqdn, compress: &mut HashMap<String, u16>) {
    let labels: Vec<&str> = name.labels().collect();
    for i in 0..labels.len() {
        let suffix = labels[i..].join(".");
        if let Some(&off) = compress.get(&suffix) {
            buf.put_u16(0xC000 | off);
            return;
        }
        if buf.len() <= 0x3FFF {
            compress.insert(suffix, buf.len() as u16);
        }
        let label = labels[i];
        buf.put_u8(label.len() as u8);
        buf.put_slice(label.as_bytes());
    }
    buf.put_u8(0);
}

fn read_u16(data: &[u8], pos: &mut usize) -> Result<u16, WireError> {
    if *pos + 2 > data.len() {
        return Err(WireError::Truncated);
    }
    let v = u16::from_be_bytes([data[*pos], data[*pos + 1]]);
    *pos += 2;
    Ok(v)
}

/// Decodes a message.
pub fn decode(data: &[u8]) -> Result<DnsMessage, WireError> {
    let mut pos = 0usize;
    let id = read_u16(data, &mut pos)?;
    let flags = read_u16(data, &mut pos)?;
    let qd = read_u16(data, &mut pos)?;
    let an = read_u16(data, &mut pos)?;
    let ns = read_u16(data, &mut pos)?;
    let _ar = read_u16(data, &mut pos)?;
    let rcode =
        Rcode::from_code((flags & 0xF) as u8).ok_or(WireError::BadRcode((flags & 0xF) as u8))?;
    let mut msg = DnsMessage {
        id,
        is_response: flags & 0x8000 != 0,
        authoritative: flags & 0x0400 != 0,
        recursion_desired: flags & 0x0100 != 0,
        rcode,
        questions: Vec::new(),
        answers: Vec::new(),
        authority: Vec::new(),
    };
    for _ in 0..qd {
        let (name, new_pos) = decode_name(data, pos)?;
        pos = new_pos;
        let qtype = read_u16(data, &mut pos)?;
        let class = read_u16(data, &mut pos)?;
        if class != 1 {
            return Err(WireError::UnknownClass(class));
        }
        msg.questions.push(Question {
            name,
            qtype: RecordType::from_code(qtype).ok_or(WireError::UnknownType(qtype))?,
        });
    }
    for section in 0..2 {
        let count = if section == 0 { an } else { ns };
        for _ in 0..count {
            let (rr, new_pos) = decode_rr(data, pos)?;
            pos = new_pos;
            if section == 0 {
                msg.answers.push(rr);
            } else {
                msg.authority.push(rr);
            }
        }
    }
    Ok(msg)
}

fn decode_rr(data: &[u8], mut pos: usize) -> Result<(ResourceRecord, usize), WireError> {
    let (name, p) = decode_name(data, pos)?;
    pos = p;
    if pos + 10 > data.len() {
        return Err(WireError::Truncated);
    }
    let rtype = u16::from_be_bytes(data[pos..pos + 2].try_into().unwrap());
    let class = u16::from_be_bytes(data[pos + 2..pos + 4].try_into().unwrap());
    let ttl = u32::from_be_bytes(data[pos + 4..pos + 8].try_into().unwrap());
    let rdlen = u16::from_be_bytes(data[pos + 8..pos + 10].try_into().unwrap()) as usize;
    pos += 10;
    if class != 1 {
        return Err(WireError::UnknownClass(class));
    }
    if pos + rdlen > data.len() {
        return Err(WireError::Truncated);
    }
    let rd_end = pos + rdlen;
    let rtype = RecordType::from_code(rtype).ok_or(WireError::UnknownType(rtype))?;
    let record_data = match rtype {
        RecordType::A => {
            if rdlen != 4 {
                return Err(WireError::BadRdLength);
            }
            RecordData::A(Ipv4Addr::new(
                data[pos],
                data[pos + 1],
                data[pos + 2],
                data[pos + 3],
            ))
        }
        RecordType::Ns => {
            let (h, p) = decode_name(data, pos)?;
            if p != rd_end {
                return Err(WireError::BadRdLength);
            }
            RecordData::Ns(h)
        }
        RecordType::Cname => {
            let (h, p) = decode_name(data, pos)?;
            if p != rd_end {
                return Err(WireError::BadRdLength);
            }
            RecordData::Cname(h)
        }
        RecordType::Soa => {
            let (mname, p1) = decode_name(data, pos)?;
            let (rname, p2) = decode_name(data, p1)?;
            if p2 + 20 != rd_end {
                return Err(WireError::BadRdLength);
            }
            let serial = u32::from_be_bytes(data[p2..p2 + 4].try_into().unwrap());
            RecordData::Soa {
                mname,
                rname,
                serial,
            }
        }
        RecordType::Mx => {
            if rdlen < 3 {
                return Err(WireError::BadRdLength);
            }
            let preference = u16::from_be_bytes(data[pos..pos + 2].try_into().unwrap());
            let (exchange, p) = decode_name(data, pos + 2)?;
            if p != rd_end {
                return Err(WireError::BadRdLength);
            }
            RecordData::Mx {
                preference,
                exchange,
            }
        }
        RecordType::Txt => {
            let mut text = String::new();
            let mut tp = pos;
            while tp < rd_end {
                let l = data[tp] as usize;
                tp += 1;
                if tp + l > rd_end {
                    return Err(WireError::BadRdLength);
                }
                text.push_str(&String::from_utf8_lossy(&data[tp..tp + l]));
                tp += l;
            }
            RecordData::Txt(text)
        }
    };
    Ok((
        ResourceRecord {
            name,
            ttl,
            data: record_data,
        },
        rd_end,
    ))
}

/// Decodes a (possibly compressed) name starting at `pos`; returns the name
/// and the position just past its in-place representation.
fn decode_name(data: &[u8], start: usize) -> Result<(Fqdn, usize), WireError> {
    let mut labels: Vec<String> = Vec::new();
    let mut pos = start;
    let mut after: Option<usize> = None;
    let mut hops = 0usize;
    loop {
        if pos >= data.len() {
            return Err(WireError::Truncated);
        }
        let len = data[pos];
        match len & 0xC0 {
            0x00 => {
                if len == 0 {
                    pos += 1;
                    break;
                }
                let l = len as usize;
                if pos + 1 + l > data.len() {
                    return Err(WireError::Truncated);
                }
                let label = std::str::from_utf8(&data[pos + 1..pos + 1 + l])
                    .map_err(|_| WireError::BadName)?;
                labels.push(label.to_ascii_lowercase());
                pos += 1 + l;
            }
            0xC0 => {
                if pos + 2 > data.len() {
                    return Err(WireError::Truncated);
                }
                let target = (u16::from_be_bytes([data[pos] & 0x3F, data[pos + 1]])) as usize;
                if target >= pos {
                    return Err(WireError::ForwardPointer);
                }
                if after.is_none() {
                    after = Some(pos + 2);
                }
                hops += 1;
                if hops > MAX_POINTER_HOPS {
                    return Err(WireError::PointerLoop);
                }
                pos = target;
            }
            other => return Err(WireError::BadLabelType(other)),
        }
    }
    let name = Fqdn::parse(&labels.join(".")).map_err(|_| WireError::BadName)?;
    Ok((name, after.unwrap_or(pos)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(s: &str) -> Fqdn {
        s.parse().unwrap()
    }

    fn sample_response() -> DnsMessage {
        let q = DnsMessage::query(0x1234, n("smtp.exampel.com"), RecordType::Mx);
        let mut resp = DnsMessage::response_to(&q, Rcode::NoError);
        resp.answers.push(ResourceRecord::mx(
            "smtp.exampel.com",
            300,
            1,
            "exampel.com",
        ));
        resp.answers.push(ResourceRecord::a(
            "exampel.com",
            300,
            Ipv4Addr::new(1, 1, 1, 1),
        ));
        resp.authority
            .push(ResourceRecord::ns("exampel.com", 300, "ns1.exampel.com"));
        resp
    }

    #[test]
    fn query_round_trip() {
        let q = DnsMessage::query(42, n("gmial.com"), RecordType::A);
        let wire = encode(&q);
        let back = decode(&wire).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn response_round_trip() {
        let resp = sample_response();
        let wire = encode(&resp);
        let back = decode(&wire).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn compression_shrinks_repeated_suffixes() {
        let resp = sample_response();
        let compressed = encode(&resp);
        // Upper bound: sum of uncompressed name lengths + fixed fields.
        // The shared "exampel.com" suffix appears 5 times; compression must
        // save at least 3 pointer substitutions (11 bytes saved each).
        let mut uncompressed = 12usize; // header
        uncompressed += n("smtp.exampel.com").wire_len() + 4;
        uncompressed += n("smtp.exampel.com").wire_len() + 10 + 2 + n("exampel.com").wire_len();
        uncompressed += n("exampel.com").wire_len() + 10 + 4;
        uncompressed += n("exampel.com").wire_len() + 10 + n("ns1.exampel.com").wire_len();
        assert!(
            compressed.len() + 20 < uncompressed,
            "compressed {} vs uncompressed {}",
            compressed.len(),
            uncompressed
        );
    }

    #[test]
    fn all_record_types_round_trip() {
        let q = DnsMessage::query(7, n("x.com"), RecordType::Txt);
        let mut resp = DnsMessage::response_to(&q, Rcode::NoError);
        resp.answers.push(ResourceRecord::new(
            n("x.com"),
            60,
            RecordData::Txt("v=spf1 -all".to_owned()),
        ));
        resp.answers.push(ResourceRecord::new(
            n("x.com"),
            60,
            RecordData::Cname(n("y.com")),
        ));
        resp.answers.push(ResourceRecord::new(
            n("x.com"),
            60,
            RecordData::Soa {
                mname: n("ns1.x.com"),
                rname: n("hostmaster.x.com"),
                serial: 2016110501,
            },
        ));
        let back = decode(&encode(&resp)).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn nxdomain_round_trip() {
        let q = DnsMessage::query(9, n("unregistered-typo.com"), RecordType::Mx);
        let resp = DnsMessage::response_to(&q, Rcode::NxDomain);
        let back = decode(&encode(&resp)).unwrap();
        assert_eq!(back.rcode, Rcode::NxDomain);
        assert!(back.answers.is_empty());
    }

    #[test]
    fn truncated_input_errors() {
        let wire = encode(&sample_response());
        for cut in [0, 5, 11, 13, wire.len() - 1] {
            assert!(decode(&wire[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn pointer_loop_is_rejected() {
        // Hand-craft: header + a name that is a pointer to itself.
        let mut raw = vec![0u8; 12];
        raw[4] = 0;
        raw[5] = 1; // one question
                    // name at offset 12: pointer to offset 12 (forward/self)
        raw.extend_from_slice(&[0xC0, 12]);
        raw.extend_from_slice(&[0, 1, 0, 1]);
        assert_eq!(decode(&raw).unwrap_err(), WireError::ForwardPointer);
    }

    #[test]
    fn legal_pointer_chains_decode() {
        // Craft: question name stored plainly; answer 1's owner is a
        // pointer to it; answer 2's owner is a pointer to answer 1's
        // pointer (a two-hop chain) -- legal per RFC 1035 since every hop
        // is strictly backward.
        let mut raw = vec![0u8; 12];
        raw[2] = 0x80; // response bit
        raw[5] = 1; // qdcount
        raw[7] = 2; // ancount
                    // question: "ab.cd" at offset 12
        raw.extend_from_slice(&[2, b'a', b'b', 2, b'c', b'd', 0]);
        raw.extend_from_slice(&[0, 1, 0, 1]); // A IN
                                              // answer 1: owner = pointer to offset 12
        let p1 = raw.len();
        raw.extend_from_slice(&[0xC0, 12]);
        raw.extend_from_slice(&[0, 1, 0, 1]); // A IN
        raw.extend_from_slice(&[0, 0, 1, 44]); // ttl 300
        raw.extend_from_slice(&[0, 4, 10, 0, 0, 1]); // rdlen 4, 10.0.0.1
                                                     // answer 2: owner = pointer to answer 1's pointer (two hops)
        raw.extend_from_slice(&[0xC0, p1 as u8]);
        raw.extend_from_slice(&[0, 1, 0, 1]); // A IN
        raw.extend_from_slice(&[0, 0, 1, 44]); // ttl 300
        raw.extend_from_slice(&[0, 4, 10, 0, 0, 2]); // rdlen 4, 10.0.0.2
        let msg = decode(&raw).expect("pointer chain is legal");
        assert_eq!(msg.answers.len(), 2);
        assert_eq!(msg.answers[0].name, n("ab.cd"));
        assert_eq!(msg.answers[1].name, n("ab.cd"));
        assert_eq!(
            msg.answers[1].data,
            RecordData::A(Ipv4Addr::new(10, 0, 0, 2))
        );
    }

    #[test]
    fn reserved_label_bits_rejected() {
        let mut raw = vec![0u8; 12];
        raw[4] = 0;
        raw[5] = 1;
        raw.push(0x80); // reserved label type
        assert_eq!(decode(&raw).unwrap_err(), WireError::BadLabelType(0x80));
    }

    #[test]
    fn long_txt_splits_into_chunks() {
        let big = "x".repeat(600);
        let q = DnsMessage::query(1, n("t.com"), RecordType::Txt);
        let mut resp = DnsMessage::response_to(&q, Rcode::NoError);
        resp.answers.push(ResourceRecord::new(
            n("t.com"),
            60,
            RecordData::Txt(big.clone()),
        ));
        let back = decode(&encode(&resp)).unwrap();
        match &back.answers[0].data {
            RecordData::Txt(t) => assert_eq!(t, &big),
            _ => panic!("not TXT"),
        }
    }

    proptest! {
        #[test]
        fn decoder_never_panics(data: Vec<u8>) {
            let _ = decode(&data);
        }

        #[test]
        fn arbitrary_queries_round_trip(
            id: u16,
            label_a in "[a-z]{1,20}",
            label_b in "[a-z]{1,20}",
        ) {
            let name = Fqdn::parse(&format!("{label_a}.{label_b}.com")).unwrap();
            let q = DnsMessage::query(id, name, RecordType::Mx);
            prop_assert_eq!(decode(&encode(&q)).unwrap(), q);
        }
    }
}
