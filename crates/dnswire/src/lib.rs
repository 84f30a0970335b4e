//! DNS wire format, implemented from scratch for the DNS Guard reproduction.
//!
//! The crate covers everything the paper's traffic needs:
//!
//! * [`name`] — domain names with RFC 1035 limits, text escapes, wire
//!   encoding and compression-pointer decoding;
//! * [`header`] / [`question`] / [`record`] / [`rdata`] — the message
//!   sections and the record types used by DNS delegation (A, NS, CNAME,
//!   SOA, PTR, MX, TXT, AAAA, OPT-as-opaque);
//! * [`message`] — whole messages with suffix-compressing encoder, strict
//!   decoder, and the 512-byte UDP truncation rule (TC bit) that the
//!   TCP-based guard scheme exploits;
//! * [`cookie_ext`] — the modified-DNS cookie extension of Figure 3(b): a
//!   root-owned TXT record in the additional section carrying a 16-byte
//!   cookie.
//!
//! # Examples
//!
//! ```
//! use dnswire::message::Message;
//! use dnswire::record::Record;
//! use dnswire::types::RrType;
//! use std::net::Ipv4Addr;
//!
//! let query = Message::iterative_query(1, "www.foo.com".parse()?, RrType::A);
//! let mut referral = query.response();
//! referral.authorities.push(Record::ns("com".parse()?, "a.gtld-servers.net".parse()?, 172_800));
//! referral.additionals.push(Record::a("a.gtld-servers.net".parse()?, Ipv4Addr::new(192, 5, 6, 30), 172_800));
//! assert!(referral.is_referral());
//! let wire = referral.encode();
//! assert_eq!(Message::decode(&wire)?, referral);
//! # Ok::<(), dnswire::error::WireError>(())
//! ```

#![forbid(unsafe_code)]

pub mod cookie_ext;
pub mod edns;
pub mod error;
pub mod header;
pub mod message;
pub mod name;
pub mod question;
pub mod rdata;
pub mod record;
pub mod types;

pub use error::{WireError, WireResult};
pub use message::Message;
pub use name::Name;
pub use question::Question;
pub use rdata::RData;
pub use record::Record;
pub use types::{Opcode, Rcode, RrClass, RrType};

/// SplitMix64 for tests that derive a whole input from one seed, so a
/// failing case names the seed that rebuilds it.
#[cfg(test)]
pub(crate) struct Mix(pub(crate) u64);

#[cfg(test)]
impl Mix {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub(crate) fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}


#[cfg(test)]
mod proptests {
    use crate::message::Message;
    use crate::name::Name;
    use crate::rdata::{RData, Soa};
    use crate::record::Record;
    use crate::types::{Rcode, RrType};
    use proptest::prelude::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn arb_label() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(
            any::<u8>().prop_filter("printable", |b| (0x21..=0x7e).contains(b)),
            1..16,
        )
    }

    fn arb_name() -> impl Strategy<Value = Name> {
        proptest::collection::vec(arb_label(), 0..5)
            .prop_map(|labels| Name::from_labels(labels).unwrap_or_else(|_| Name::root()))
    }

    fn arb_rdata() -> impl Strategy<Value = RData> {
        prop_oneof![
            any::<u32>().prop_map(|v| RData::A(Ipv4Addr::from(v))),
            any::<u128>().prop_map(|v| RData::Aaaa(Ipv6Addr::from(v))),
            arb_name().prop_map(RData::Ns),
            arb_name().prop_map(RData::Cname),
            arb_name().prop_map(RData::Ptr),
            (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx {
                preference,
                exchange
            }),
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 1..4)
                .prop_map(RData::Txt),
            (arb_name(), arb_name(), any::<u32>(), any::<u32>()).prop_map(
                |(mname, rname, serial, t)| RData::Soa(Soa {
                    mname,
                    rname,
                    serial,
                    refresh: t,
                    retry: t / 2,
                    expire: t.wrapping_mul(3),
                    minimum: 300,
                })
            ),
        ]
    }

    fn arb_record() -> impl Strategy<Value = Record> {
        (arb_name(), any::<u32>(), arb_rdata())
            .prop_map(|(name, ttl, rdata)| Record::new(name, ttl, rdata))
    }

    fn arb_message() -> impl Strategy<Value = Message> {
        (
            any::<u16>(),
            arb_name(),
            proptest::collection::vec(arb_record(), 0..4),
            proptest::collection::vec(arb_record(), 0..3),
            proptest::collection::vec(arb_record(), 0..3),
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(|(id, qname, ans, auth, add, aa, response)| {
                let mut m = Message::query(id, qname, RrType::A);
                m.header.response = response;
                m.header.authoritative = aa;
                m.header.rcode = if aa { Rcode::NoError } else { Rcode::NxDomain };
                m.answers = ans;
                m.authorities = auth;
                m.additionals = add;
                m
            })
    }

    proptest! {
        /// Encode→decode round-trips arbitrary well-formed messages,
        /// including the compression pass.
        #[test]
        fn message_round_trip(msg in arb_message()) {
            let wire = msg.encode();
            let decoded = Message::decode(&wire);
            prop_assert_eq!(decoded.as_ref().ok(), Some(&msg));
        }

        /// The decoder never panics on arbitrary bytes.
        #[test]
        fn decoder_total(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            let _ = Message::decode(&bytes);
        }

        /// The decoder never panics on *corrupted* encodings of valid
        /// messages: random bit flips in real wire images reach structured
        /// paths (compression pointers, section counts, rdata lengths) that
        /// purely random bytes rarely hit. Decode may succeed or fail — it
        /// must only be total.
        #[test]
        fn decoder_total_under_bit_flips(
            msg in arb_message(),
            flips in proptest::collection::vec((any::<u16>(), 0u32..8), 1..8),
        ) {
            let mut wire = msg.encode();
            for (pos, bit) in flips {
                let i = pos as usize % wire.len();
                wire[i] ^= 1 << bit;
            }
            let _ = Message::decode(&wire);
        }

        /// Fragment-substitution splices never panic the decode path: a
        /// reassembled datagram an attacker tampered with is an honest
        /// prefix up to the fragmentation cut plus an attacker-controlled
        /// second fragment — truncated, overlapping, oversized, or pure
        /// garbage. Decode may succeed or fail; it must only be total.
        #[test]
        fn decoder_total_under_fragment_splices(
            msg in arb_message(),
            cut in any::<u16>(),
            tail in proptest::collection::vec(any::<u8>(), 0..600),
        ) {
            let wire = msg.encode();
            let cut = cut as usize % (wire.len() + 1);
            let mut spliced = wire[..cut].to_vec();
            spliced.extend_from_slice(&tail);
            let _ = Message::decode(&spliced);
        }

        /// A second fragment copied from the *same* response but at the
        /// wrong offset (the overlap/shift case real reassemblers hit)
        /// never panics the decoder either.
        #[test]
        fn decoder_total_under_shifted_self_splices(
            msg in arb_message(),
            cut in any::<u16>(),
            shift in any::<u16>(),
        ) {
            let wire = msg.encode();
            let cut = cut as usize % (wire.len() + 1);
            let shift = shift as usize % (wire.len() + 1);
            let mut spliced = wire[..cut].to_vec();
            spliced.extend_from_slice(&wire[shift..]);
            let _ = Message::decode(&spliced);
        }

        /// Truncated encodes stay within the limit, keep the question intact
        /// and set TC when records were dropped.
        #[test]
        fn truncation_respects_limit(msg in arb_message()) {
            let (wire, truncated) = msg.encode_with_limit(512).unwrap();
            prop_assert!(wire.len() <= 512);
            let decoded = Message::decode(&wire).unwrap();
            prop_assert_eq!(&decoded.questions, &msg.questions);
            prop_assert_eq!(decoded.header.truncated, truncated || msg.header.truncated);
        }

        /// Name text render→parse round-trips (Display is a faithful,
        /// escape-aware serialisation).
        #[test]
        fn name_text_round_trip(name in arb_name()) {
            let text = name.to_string();
            let parsed: Name = text.parse().unwrap();
            prop_assert_eq!(parsed, name);
        }

        /// Compression is transparent: decoding re-encoded output yields the
        /// same message again (idempotent round-trip).
        #[test]
        fn reencode_stable(msg in arb_message()) {
            let once = Message::decode(&msg.encode()).unwrap();
            let twice = Message::decode(&once.encode()).unwrap();
            prop_assert_eq!(once, twice);
        }
    }
}
