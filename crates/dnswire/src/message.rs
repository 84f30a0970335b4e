//! Whole DNS messages: sections, compression-aware encoding, decoding and
//! the 512-byte UDP truncation rule that the TCP-based guard scheme exploits.

use crate::error::{WireError, WireResult};
use crate::header::{Header, SectionCounts, HEADER_LEN};
use crate::name::Name;
use crate::question::Question;
use crate::record::Record;
use crate::types::{RrType, Rcode};
use std::fmt;

/// Classic maximum UDP DNS payload (RFC 1035); larger answers set TC.
pub const MAX_UDP_PAYLOAD: usize = 512;

/// A DNS message: header plus the four sections.
///
/// # Examples
///
/// ```
/// use dnswire::message::Message;
/// use dnswire::types::RrType;
///
/// let query = Message::query(0x1234, "www.foo.com".parse()?, RrType::A);
/// let wire = query.encode();
/// let back = Message::decode(&wire)?;
/// assert_eq!(back, query);
/// # Ok::<(), dnswire::error::WireError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Message {
    /// The header (counts are derived from the vectors below).
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section — where referral NS records live.
    pub authorities: Vec<Record>,
    /// Additional section — glue A records and the cookie TXT extension.
    pub additionals: Vec<Record>,
}

impl Message {
    /// Builds a recursive query (RD set) for `name`/`rtype`.
    pub fn query(id: u16, name: Name, rtype: RrType) -> Self {
        Message {
            header: Header::query(id),
            questions: vec![Question::new(name, rtype)],
            ..Message::default()
        }
    }

    /// Builds an iterative query (RD clear), as an LRS sends to an ANS.
    pub fn iterative_query(id: u16, name: Name, rtype: RrType) -> Self {
        Message {
            header: Header::iterative_query(id),
            questions: vec![Question::new(name, rtype)],
            ..Message::default()
        }
    }

    /// Starts a response to this query: header echoed, question copied,
    /// sections empty.
    pub fn response(&self) -> Self {
        Message {
            header: self.header.response_to(),
            questions: self.questions.clone(),
            ..Message::default()
        }
    }

    /// Starts an error response with the given rcode.
    pub fn error_response(&self, rcode: Rcode) -> Self {
        let mut r = self.response();
        r.header.rcode = rcode;
        r
    }

    /// A truncation response: question echoed, TC set, all sections empty.
    /// This is what the guard sends to push a requester onto TCP; it is the
    /// same size as the request, so there is no amplification.
    pub fn truncated_response(&self) -> Self {
        let mut r = self.response();
        r.header.truncated = true;
        r
    }

    /// The first question, if any — the common single-question case.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// True when this message is a response carrying *referral* information:
    /// no answers, but NS records in the authority section (or, for guard
    /// purposes, NS in answers with no terminal records).
    pub fn is_referral(&self) -> bool {
        if !self.header.response {
            return false;
        }
        let ns_in_authority = self.authorities.iter().any(|r| r.rtype == RrType::Ns);
        self.answers.is_empty() && ns_in_authority
    }

    /// Encodes with name compression, no size limit.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_all(usize::MAX).0
    }

    /// Encodes with name compression, truncating at `limit` bytes.
    ///
    /// When the full message does not fit, records are dropped
    /// (additional → authority → answer, whole records at a time), the TC
    /// bit is set, and the shortened message is returned with `true`.
    ///
    /// Dropping records in that order removes a suffix of the records in
    /// wire order, and compression only points backwards, so the shortened
    /// message is a prefix of the full encoding with its header patched:
    /// one encode, cut at the last record boundary that fits.
    ///
    /// # Errors
    ///
    /// [`WireError::TooLarge`] if even header + questions exceed `limit`.
    pub fn encode_with_limit(&self, limit: usize) -> WireResult<(Vec<u8>, bool)> {
        let (mut buf, cut) = self.encode_all(limit);
        if buf.len() <= limit {
            return Ok((buf, false));
        }
        if cut.end > limit {
            return Err(WireError::TooLarge {
                needed: cut.end,
                limit,
            });
        }
        buf.truncate(cut.end);
        let mut head = Vec::with_capacity(HEADER_LEN);
        let header = Header {
            truncated: true,
            ..self.header
        };
        header.encode(self.counts(cut.records), &mut head);
        buf.splice(..HEADER_LEN, head);
        Ok((buf, true))
    }

    /// The wire size of the fully-encoded message (with compression).
    pub fn wire_len(&self) -> usize {
        self.encode().len()
    }

    /// Section counts for the first `records` records in wire order
    /// (answers, then authorities, then additionals).
    fn counts(&self, records: usize) -> SectionCounts {
        let answers = records.min(self.answers.len());
        let authorities = (records - answers).min(self.authorities.len());
        let additionals = (records - answers - authorities).min(self.additionals.len());
        SectionCounts {
            questions: self.questions.len() as u16,
            answers: answers as u16,
            authorities: authorities as u16,
            additionals: additionals as u16,
        }
    }

    /// Encodes the whole message and returns it with the longest prefix
    /// (header, questions, then whole records) that fits in `limit`.
    fn encode_all(&self, limit: usize) -> (Vec<u8>, Cut) {
        let mut buf = Vec::with_capacity(128);
        self.header.encode(self.counts(usize::MAX), &mut buf);
        let mut compressor = Compressor::default();
        for q in &self.questions {
            compressor.encode_name(&q.name, &mut buf);
            buf.extend_from_slice(&q.qtype.code().to_be_bytes());
            buf.extend_from_slice(&q.qclass.code().to_be_bytes());
        }
        let mut cut = Cut {
            records: 0,
            end: buf.len(),
        };
        let records = self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals);
        for (i, r) in records.enumerate() {
            compressor.encode_name(&r.name, &mut buf);
            buf.extend_from_slice(&r.rtype.code().to_be_bytes());
            buf.extend_from_slice(&r.class.code().to_be_bytes());
            buf.extend_from_slice(&r.ttl.to_be_bytes());
            let rdlen_at = buf.len();
            buf.extend_from_slice(&[0, 0]);
            r.rdata.encode(&mut buf);
            let rdlen = (buf.len() - rdlen_at - 2) as u16;
            // lint: index-ok — encode path patching a placeholder we pushed
            // into our own buffer two statements above; rdlen_at+2 <= buf.len().
            buf[rdlen_at..rdlen_at + 2].copy_from_slice(&rdlen.to_be_bytes());
            if buf.len() <= limit {
                cut = Cut {
                    records: i + 1,
                    end: buf.len(),
                };
            }
        }
        (buf, cut)
    }

    /// Decodes a full message.
    ///
    /// # Errors
    ///
    /// Any structural error, including trailing bytes after the counted
    /// records.
    pub fn decode(msg: &[u8]) -> WireResult<Message> {
        let (header, counts) = Header::decode(msg)?;
        let mut pos = crate::header::HEADER_LEN;
        let mut questions = Vec::with_capacity(counts.questions as usize);
        for _ in 0..counts.questions {
            let (q, next) = Question::decode(msg, pos)?;
            questions.push(q);
            pos = next;
        }
        let decode_section = |count: u16, pos: &mut usize| -> WireResult<Vec<Record>> {
            let mut records = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let (r, next) = Record::decode(msg, *pos)?;
                records.push(r);
                *pos = next;
            }
            Ok(records)
        };
        let answers = decode_section(counts.answers, &mut pos)?;
        let authorities = decode_section(counts.authorities, &mut pos)?;
        let additionals = decode_section(counts.additionals, &mut pos)?;
        if pos != msg.len() {
            return Err(WireError::TrailingBytes(msg.len() - pos));
        }
        Ok(Message {
            header,
            questions,
            answers,
            authorities,
            additionals,
        })
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            ";; id {} {} {} {}{}",
            self.header.id,
            if self.header.response { "response" } else { "query" },
            self.header.rcode,
            if self.header.authoritative { "aa " } else { "" },
            if self.header.truncated { "tc" } else { "" },
        )?;
        for q in &self.questions {
            writeln!(f, ";; question: {q}")?;
        }
        for (label, section) in [
            ("answer", &self.answers),
            ("authority", &self.authorities),
            ("additional", &self.additionals),
        ] {
            for r in section {
                writeln!(f, ";; {label}: {r}")?;
            }
        }
        Ok(())
    }
}

/// Where [`Message::encode_with_limit`] cuts an over-long encoding: the
/// number of records kept and the byte offset just past the last of them
/// (just past the questions when none fits).
struct Cut {
    records: usize,
    end: usize,
}

/// Suffix-sharing name compressor. Remembers the offset of every name
/// suffix written out literally so far and emits a pointer to the longest
/// known suffix, recognised by reading the names back out of the output
/// buffer (no per-suffix copies).
///
/// Matching is byte-exact, case included, so a name is only ever pointed
/// at an earlier name that reads back identically: a 0x20 resolver checks
/// its MiXeD-cAsE question name byte for byte. A suffix is registered only
/// when it is written out literally, which happens only when no offset
/// holds it yet, so each suffix has one offset: the first one written.
/// Offsets from 0x4000 on do not fit a pointer and are never registered.
#[derive(Default)]
struct Compressor {
    /// Registered suffix offsets, in the order they were written.
    offsets: Vec<u16>,
}

impl Compressor {
    fn encode_name(&mut self, name: &Name, buf: &mut Vec<u8>) {
        let flat = name.flat();
        // Find the longest registered suffix: the leftmost label boundary
        // `at` whose remaining labels some offset reads back as.
        let mut at = 0;
        let mut pointer = None;
        while let Some(&len) = flat.get(at) {
            let suffix = flat.get(at..).unwrap_or_default();
            pointer = self
                .offsets
                .iter()
                .copied()
                .find(|&off| names_equal_at(buf, off as usize, suffix));
            if pointer.is_some() {
                break;
            }
            at += 1 + len as usize;
        }
        // The labels before `at` are written literally; none of their
        // suffixes is registered yet (the search above would have stopped
        // earlier), so each is registered at its offset.
        let literal = flat.get(..at).unwrap_or_default();
        let mut start = 0;
        while let Some(&len) = literal.get(start) {
            let here = buf.len() + start;
            if here < 0x4000 {
                self.offsets.push(here as u16);
            }
            start += 1 + len as usize;
        }
        buf.extend_from_slice(literal);
        match pointer {
            Some(off) => {
                buf.push(0xC0 | (off >> 8) as u8);
                buf.push((off & 0xFF) as u8);
            }
            None => buf.push(0),
        }
    }
}

/// Whether the name the compressor wrote at `pos` in `buf` (following its
/// pointers) is byte for byte the flat labels `want`. Every registered
/// offset starts a literal label and every pointer points back at one, so
/// each step either consumes a label of `want` or ends the walk.
fn names_equal_at(buf: &[u8], mut pos: usize, mut want: &[u8]) -> bool {
    loop {
        match buf.get(pos) {
            Some(0) => return want.is_empty(),
            Some(&hi) if hi & 0xC0 == 0xC0 => match buf.get(pos + 1) {
                Some(&lo) => pos = (((hi & 0x3F) as usize) << 8) | lo as usize,
                None => return false,
            },
            Some(&len) => {
                let n = 1 + len as usize;
                match (buf.get(pos..pos + n), want.split_at_checked(n)) {
                    (Some(have), Some((label, rest))) if have == label => {
                        pos += n;
                        want = rest;
                    }
                    _ => return false,
                }
            }
            None => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdata::RData;
    use crate::Mix;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn sample_response() -> Message {
        let query = Message::query(7, n("www.foo.com"), RrType::A);
        let mut resp = query.response();
        resp.header.authoritative = true;
        resp.answers.push(Record::a(n("www.foo.com"), Ipv4Addr::new(192, 0, 2, 10), 300));
        resp.authorities.push(Record::ns(n("foo.com"), n("ns1.foo.com"), 3600));
        resp.authorities.push(Record::ns(n("foo.com"), n("ns2.foo.com"), 3600));
        resp.additionals.push(Record::a(n("ns1.foo.com"), Ipv4Addr::new(192, 0, 2, 1), 3600));
        resp.additionals.push(Record::a(n("ns2.foo.com"), Ipv4Addr::new(192, 0, 2, 2), 3600));
        resp
    }

    #[test]
    fn query_round_trip() {
        let q = Message::query(0x1234, n("example.org"), RrType::Aaaa);
        let wire = q.encode();
        assert_eq!(Message::decode(&wire).unwrap(), q);
    }

    #[test]
    fn response_round_trip_with_all_sections() {
        let resp = sample_response();
        let wire = resp.encode();
        assert_eq!(Message::decode(&wire).unwrap(), resp);
    }

    #[test]
    fn compression_shrinks_output() {
        let resp = sample_response();
        let compressed = resp.encode();
        // Rough uncompressed size: encode each record standalone.
        let mut uncompressed = 12usize;
        for q in &resp.questions {
            let mut b = Vec::new();
            q.encode(&mut b);
            uncompressed += b.len();
        }
        for r in resp.answers.iter().chain(&resp.authorities).chain(&resp.additionals) {
            let mut b = Vec::new();
            r.name.encode_uncompressed(&mut b);
            b.extend_from_slice(&[0u8; 10]);
            r.rdata.encode(&mut b);
            uncompressed += b.len();
        }
        assert!(
            compressed.len() < uncompressed,
            "compressed {} >= uncompressed {}",
            compressed.len(),
            uncompressed
        );
    }

    #[test]
    fn pointers_resolve_to_original_names() {
        // Decoding the compressed form must reproduce identical names.
        let resp = sample_response();
        let decoded = Message::decode(&resp.encode()).unwrap();
        assert_eq!(decoded.authorities[0].name, n("foo.com"));
        assert_eq!(decoded.additionals[1].name, n("ns2.foo.com"));
    }

    #[test]
    fn truncation_drops_records_and_sets_tc() {
        let mut resp = sample_response();
        // Inflate with many answers so it cannot fit in 512 bytes.
        for i in 0..60u8 {
            resp.answers.push(Record::a(
                n(&format!("host{i}.foo.com")),
                Ipv4Addr::new(10, 0, 0, i),
                60,
            ));
        }
        let full = resp.encode();
        assert!(full.len() > MAX_UDP_PAYLOAD);
        let (wire, truncated) = resp.encode_with_limit(MAX_UDP_PAYLOAD).unwrap();
        assert!(truncated);
        assert!(wire.len() <= MAX_UDP_PAYLOAD);
        let decoded = Message::decode(&wire).unwrap();
        assert!(decoded.header.truncated);
        assert_eq!(decoded.questions, resp.questions);
    }

    #[test]
    fn no_truncation_when_it_fits() {
        let resp = sample_response();
        let (wire, truncated) = resp.encode_with_limit(MAX_UDP_PAYLOAD).unwrap();
        assert!(!truncated);
        assert!(!Message::decode(&wire).unwrap().header.truncated);
    }

    #[test]
    fn too_large_when_question_alone_exceeds_limit() {
        let q = Message::query(1, n("a-rather-long-domain-name.example.org"), RrType::A);
        assert!(matches!(
            q.encode_with_limit(20),
            Err(WireError::TooLarge { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut wire = Message::query(9, n("x.y"), RrType::A).encode();
        wire.push(0);
        assert!(matches!(
            Message::decode(&wire),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn is_referral_detects_delegation() {
        let query = Message::iterative_query(3, n("www.foo.com"), RrType::A);
        let mut referral = query.response();
        referral.authorities.push(Record::ns(n("com"), n("a.gtld-servers.net"), 172800));
        referral.additionals.push(Record::a(n("a.gtld-servers.net"), Ipv4Addr::new(192, 5, 6, 30), 172800));
        assert!(referral.is_referral());

        let mut answer = query.response();
        answer.answers.push(Record::a(n("www.foo.com"), Ipv4Addr::new(1, 2, 3, 4), 60));
        assert!(!answer.is_referral());
        assert!(!query.is_referral(), "queries are never referrals");
    }

    #[test]
    fn truncated_response_same_size_as_request() {
        let query = Message::query(5, n("www.foo.com"), RrType::A);
        let tc = query.truncated_response();
        assert_eq!(tc.encode().len(), query.encode().len());
        assert!(tc.header.truncated);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Message::decode(&[]).is_err());
        assert!(Message::decode(&[0u8; 5]).is_err());
        // Header claiming one question but no question bytes.
        let mut buf = Vec::new();
        Header::query(1).encode(
            SectionCounts {
                questions: 1,
                ..SectionCounts::default()
            },
            &mut buf,
        );
        assert!(Message::decode(&buf).is_err());
    }

    #[test]
    fn decoder_never_panics_on_fuzzed_mutations() {
        let wire = sample_response().encode();
        for i in 0..wire.len() {
            for bit in 0..8 {
                let mut mutated = wire.clone();
                mutated[i] ^= 1 << bit;
                let _ = Message::decode(&mutated); // must not panic
            }
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `sample_response()` as the label-map compressor encoded it: question
    /// and answer share `www.foo.com`, the NS and glue names point into it.
    const SAMPLE_RESPONSE_WIRE: &str = "0007850000010001000200020377777703666f6f03636f6d0000010001\
        c00c000100010000012c0004c000020ac0100002000100000e10000d036e733103666f6f03636f6d00\
        c0100002000100000e10000d036e733203666f6f03636f6d00036e7331c0100001000100000e100004\
        c0000201036e7332c0100001000100000e100004c0000202";

    #[test]
    fn sample_response_wire_bytes_are_pinned() {
        assert_eq!(hex(&sample_response().encode()), SAMPLE_RESPONSE_WIRE);
        let (limited, truncated) = sample_response()
            .encode_with_limit(MAX_UDP_PAYLOAD)
            .unwrap();
        assert!(!truncated);
        assert_eq!(hex(&limited), SAMPLE_RESPONSE_WIRE);
    }

    #[test]
    fn differently_cased_names_are_not_compressed_together() {
        // A 0x20 question name and a lowercase owner name are equal names,
        // but the owner must not point at the question's MiXeD case bytes.
        let mut i = 0u32;
        let qname = n("www.foo.com").with_case(|| {
            i += 1;
            i.is_multiple_of(3)
        });
        let query = Message::query(7, qname, RrType::A);
        let mut resp = query.response();
        resp.answers.push(Record::a(
            n("www.foo.com"),
            Ipv4Addr::new(192, 0, 2, 10),
            300,
        ));
        assert_eq!(
            hex(&resp.encode()),
            "0007810000010001000000000377775703666f4f03636f4d0000010001\
             0377777703666f6f03636f6d00000100010000012c0004c000020a"
        );
        let decoded = Message::decode(&resp.encode()).unwrap();
        assert!(decoded.questions[0]
            .name
            .eq_case_sensitive(&query.questions[0].name));
        assert!(decoded.answers[0].name.eq_case_sensitive(&n("www.foo.com")));
    }

    #[test]
    fn truncation_cut_matches_reencoding_the_kept_records() {
        let mut resp = sample_response();
        for i in 0..60u8 {
            resp.authorities
                .push(Record::ns(n("foo.com"), n(&format!("ns{i}.foo.com")), 60));
        }
        let (wire, truncated) = resp.encode_with_limit(MAX_UDP_PAYLOAD).unwrap();
        assert!(truncated);
        let decoded = Message::decode(&wire).unwrap();
        assert!(decoded.additionals.is_empty(), "additionals go first");
        assert_eq!(decoded.answers, resp.answers);
        assert_eq!(decoded.encode(), wire, "a prefix re-encodes to itself");
        assert_eq!(
            Some(&wire),
            reference_encode_with_limit(&resp, MAX_UDP_PAYLOAD)
                .ok()
                .map(|(w, _)| w)
                .as_ref()
        );
    }

    // ----------------------------------------------- differential reference

    /// The compressor this encoder replaced, kept verbatim as the reference
    /// for the differential test: it keys a map by copied label vectors.
    #[derive(Default)]
    struct ReferenceCompressor {
        offsets: std::collections::HashMap<Vec<Vec<u8>>, u16>,
    }

    impl ReferenceCompressor {
        fn encode_name(&mut self, name: &Name, buf: &mut Vec<u8>) {
            let labels: Vec<Vec<u8>> = name.labels().map(|l| l.to_vec()).collect();
            // Find the longest suffix already in the map.
            let mut emit_until = labels.len(); // labels[..emit_until] written literally
            let mut pointer: Option<u16> = None;
            for start in 0..labels.len() {
                if let Some(&off) = self.offsets.get(&labels[start..]) {
                    emit_until = start;
                    pointer = Some(off);
                    break;
                }
            }
            // Register the new suffixes that will be written literally.
            for start in 0..emit_until {
                let here = buf.len() + labels[..start].iter().map(|l| l.len() + 1).sum::<usize>();
                if here < 0x4000 {
                    self.offsets
                        .entry(labels[start..].to_vec())
                        .or_insert(here as u16);
                }
            }
            for label in &labels[..emit_until] {
                buf.push(label.len() as u8);
                buf.extend_from_slice(label);
            }
            match pointer {
                Some(off) => {
                    buf.push(0xC0 | (off >> 8) as u8);
                    buf.push((off & 0xFF) as u8);
                }
                None => buf.push(0),
            }
        }
    }

    /// The whole-message encoder as it was, over the reference compressor.
    fn reference_encode_all(m: &Message) -> Vec<u8> {
        let mut buf = Vec::with_capacity(128);
        let counts = SectionCounts {
            questions: m.questions.len() as u16,
            answers: m.answers.len() as u16,
            authorities: m.authorities.len() as u16,
            additionals: m.additionals.len() as u16,
        };
        m.header.encode(counts, &mut buf);
        let mut compressor = ReferenceCompressor::default();
        for q in &m.questions {
            compressor.encode_name(&q.name, &mut buf);
            buf.extend_from_slice(&q.qtype.code().to_be_bytes());
            buf.extend_from_slice(&q.qclass.code().to_be_bytes());
        }
        for r in m.answers.iter().chain(&m.authorities).chain(&m.additionals) {
            compressor.encode_name(&r.name, &mut buf);
            buf.extend_from_slice(&r.rtype.code().to_be_bytes());
            buf.extend_from_slice(&r.class.code().to_be_bytes());
            buf.extend_from_slice(&r.ttl.to_be_bytes());
            let rdlen_at = buf.len();
            buf.extend_from_slice(&[0, 0]);
            r.rdata.encode(&mut buf);
            let rdlen = (buf.len() - rdlen_at - 2) as u16;
            buf[rdlen_at..rdlen_at + 2].copy_from_slice(&rdlen.to_be_bytes());
        }
        buf
    }

    /// The truncating encoder as it was: clone, drop one record, re-encode.
    fn reference_encode_with_limit(msg: &Message, limit: usize) -> WireResult<(Vec<u8>, bool)> {
        let full = reference_encode_all(msg);
        if full.len() <= limit {
            return Ok((full, false));
        }
        let mut m = msg.clone();
        m.header.truncated = true;
        while !(m.additionals.is_empty() && m.authorities.is_empty() && m.answers.is_empty()) {
            if !m.additionals.is_empty() {
                m.additionals.pop();
            } else if !m.authorities.is_empty() {
                m.authorities.pop();
            } else {
                m.answers.pop();
            }
            let enc = reference_encode_all(&m);
            if enc.len() <= limit {
                return Ok((enc, true));
            }
        }
        let enc = reference_encode_all(&m);
        if enc.len() <= limit {
            Ok((enc, true))
        } else {
            Err(WireError::TooLarge {
                needed: enc.len(),
                limit,
            })
        }
    }

    /// A name drawn from a small label pool, so names share whole and
    /// partial suffixes, with some letters' case flipped; now and then a
    /// random label up to the 63-byte limit.
    fn random_name(rng: &mut Mix) -> Name {
        const POOL: [&str; 9] = [
            "www", "foo", "com", "ns1", "ns2", "example", "org", "a", "mail",
        ];
        const TLDS: [&str; 3] = ["com", "org", "net"];
        if rng.chance(12) {
            return Name::root();
        }
        let mut labels: Vec<Vec<u8>> = vec![TLDS[rng.below(3) as usize].as_bytes().to_vec()];
        for _ in 0..rng.below(4) {
            let label = if rng.chance(10) {
                let len = 1 + rng.below(63) as usize;
                (0..len).map(|_| b'a' + rng.below(26) as u8).collect()
            } else {
                POOL[rng.below(POOL.len() as u64) as usize]
                    .as_bytes()
                    .to_vec()
            };
            labels.insert(0, label);
        }
        if rng.chance(3) {
            for b in labels.iter_mut().flatten() {
                if rng.chance(3) {
                    *b = b.to_ascii_uppercase();
                }
            }
        }
        Name::from_labels(labels).unwrap_or_else(|_| Name::root())
    }

    fn random_record(rng: &mut Mix) -> Record {
        let name = random_name(rng);
        let rdata = match rng.below(8) {
            0 => RData::A(Ipv4Addr::from(rng.next() as u32)),
            1 => RData::Aaaa(std::net::Ipv6Addr::from(u128::from(rng.next()))),
            2 => RData::Ns(random_name(rng)),
            3 => RData::Cname(random_name(rng)),
            4 => RData::Soa(crate::rdata::Soa {
                mname: random_name(rng),
                rname: random_name(rng),
                serial: rng.next() as u32,
                refresh: 3600,
                retry: 600,
                expire: 86400,
                minimum: 300,
            }),
            5 => RData::Mx {
                preference: rng.next() as u16,
                exchange: random_name(rng),
            },
            6 => RData::Ptr(random_name(rng)),
            _ => RData::Txt(vec![vec![b't'; rng.below(40) as usize]]),
        };
        Record::new(name, rng.next() as u32, rdata)
    }

    /// A TXT record of 64–71 full character-strings (16.4–18.4 KB): placed
    /// mid-message, it pushes every later name past the 0x4000 pointer
    /// range.
    fn filler_record(rng: &mut Mix) -> Record {
        let strings = 64 + rng.below(8) as usize;
        Record::new(
            random_name(rng),
            60,
            RData::Txt(vec![vec![b'f'; 255]; strings]),
        )
    }

    fn random_message(seed: u64) -> Message {
        let mut rng = Mix(seed);
        let mut m = Message::query(rng.next() as u16, random_name(&mut rng), RrType::A);
        if rng.chance(8) {
            m.questions
                .push(Question::new(random_name(&mut rng), RrType::Ns));
        }
        m.header.response = rng.chance(2);
        m.header.authoritative = rng.chance(2);
        let big = rng.chance(4);
        let count = rng.below(if big { 40 } else { 14 });
        let mut records: Vec<Record> = (0..count).map(|_| random_record(&mut rng)).collect();
        if big {
            let at = rng.below(count + 1) as usize;
            records.insert(at, filler_record(&mut rng));
        }
        for record in records {
            match rng.below(3) {
                0 => m.answers.push(record),
                1 => m.authorities.push(record),
                _ => m.additionals.push(record),
            }
        }
        m
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// The offset-scanning compressor and the single-pass cut write the
        /// same bytes as the label-map compressor and the drop-and-reencode
        /// loop, with and without the 512-byte limit.
        #[test]
        fn encoder_matches_reference(seed in proptest::prelude::any::<u64>()) {
            let m = random_message(seed);
            proptest::prop_assert_eq!(m.encode(), reference_encode_all(&m), "seed {}", seed);
            for limit in [MAX_UDP_PAYLOAD, 64, usize::MAX] {
                proptest::prop_assert_eq!(
                    m.encode_with_limit(limit),
                    reference_encode_with_limit(&m, limit),
                    "seed {} limit {}", seed, limit
                );
            }
        }
    }

    #[test]
    fn differential_inputs_cover_the_hard_cases() {
        // The generator must actually reach what the differential test is
        // for: bodies past 0x4000, truncation, and mixed-case names.
        let (mut big, mut truncated, mut mixed) = (0, 0, 0);
        for seed in 0..512u64 {
            let m = random_message(seed);
            let wire = m.encode();
            big += usize::from(wire.len() > 0x4000);
            truncated += usize::from(matches!(
                m.encode_with_limit(MAX_UDP_PAYLOAD),
                Ok((_, true))
            ));
            let names = m.questions.iter().map(|q| &q.name);
            let mut names = names.chain(m.answers.iter().chain(&m.authorities).map(|r| &r.name));
            mixed += usize::from(names.any(|n| n.labels().flatten().any(u8::is_ascii_uppercase)));
        }
        assert!(
            big > 50 && truncated > 100 && mixed > 100,
            "{big} {truncated} {mixed}"
        );
    }
}
