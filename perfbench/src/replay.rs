//! Replay rungs: the workload's own captured datagrams and sources pushed
//! through the hash, wire and limiter functions with no simulator or
//! socket in the loop.

use dnsguard::ratelimit::SourceRateLimiter;
use dnswire::message::Message;
use guardhash::cookie::{CookieFactory, SecretKey};
use guardhash::md5::md5;
use netsim::time::SimTime;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

use crate::stats::median;

/// Per-operation cost of each rung, ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rungs {
    /// `md5(source_ip || key)`, the cookie's hash input.
    pub md5_ns: f64,
    /// `CookieFactory::generate` per captured source.
    pub cookie_generate_ns: f64,
    /// `CookieFactory::verify` of that source's valid cookie.
    pub cookie_verify_ns: f64,
    /// `Message::decode` per captured datagram.
    pub decode_ns: f64,
    /// `Message::encode` of each decoded datagram.
    pub encode_ns: f64,
    /// `SourceRateLimiter::admit` per captured (time, source) arrival.
    pub limiter_admit_ns: f64,
}

impl Rungs {
    /// The hash and wire rungs added up: the compute a request costs
    /// before any I/O.
    pub fn sum_ns(&self) -> f64 {
        self.md5_ns
            + self.cookie_generate_ns
            + self.cookie_verify_ns
            + self.decode_ns
            + self.encode_ns
    }
}

/// Batches per rung; the median batch is reported.
const BATCHES: usize = 7;
/// Operations per batch at least (the captured set is repeated).
const MIN_OPS: usize = 20_000;

/// Median per-op ns of `pass`, which performs `ops` operations.
fn per_op(ops: usize, mut pass: impl FnMut()) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    let repeat = MIN_OPS.div_ceil(ops);
    pass();
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..repeat {
                pass();
            }
            t.elapsed().as_nanos() as f64 / (repeat * ops) as f64
        })
        .collect();
    median(&batches)
}

/// Runs every rung over `payloads` (claimed source, UDP payload) and the
/// per-world `arrivals` sequences, with the cookie key from `key_seed` and
/// a Rate-Limiter1 of the given rates.
pub fn run(
    payloads: &[(Ipv4Addr, Vec<u8>)],
    arrivals: &[Vec<(u64, Ipv4Addr)>],
    key_seed: u64,
    rl1_global: f64,
    rl1_per_source: f64,
) -> Rungs {
    let key = SecretKey::from_seed(key_seed);
    let factory = CookieFactory::from_seed(key_seed);
    let srcs: Vec<Ipv4Addr> = payloads.iter().map(|(ip, _)| *ip).collect();
    let hash_inputs: Vec<Vec<u8>> = srcs
        .iter()
        .map(|ip| [&ip.octets()[..], &key.as_bytes()[..]].concat())
        .collect();
    let cookies: Vec<_> = srcs.iter().map(|&ip| factory.generate(ip)).collect();
    let decoded: Vec<Message> = payloads
        .iter()
        .filter_map(|(_, p)| Message::decode(p).ok())
        .collect();
    let admits: usize = arrivals.iter().map(Vec::len).sum();

    Rungs {
        md5_ns: per_op(hash_inputs.len(), || {
            for h in &hash_inputs {
                black_box(md5(black_box(h)));
            }
        }),
        cookie_generate_ns: per_op(srcs.len(), || {
            for &ip in &srcs {
                black_box(factory.generate(black_box(ip)));
            }
        }),
        cookie_verify_ns: per_op(srcs.len(), || {
            for (&ip, c) in srcs.iter().zip(&cookies) {
                assert!(factory.verify(black_box(ip), black_box(c)));
            }
        }),
        decode_ns: per_op(payloads.len(), || {
            for (_, p) in payloads {
                let _ = black_box(Message::decode(black_box(p)));
            }
        }),
        encode_ns: per_op(decoded.len(), || {
            for m in &decoded {
                black_box(black_box(m).encode());
            }
        }),
        // A fresh limiter per pass, so every pass replays the same
        // decisions on the same growing source table.
        limiter_admit_ns: per_op(admits, || {
            for seq in arrivals {
                let mut rl = SourceRateLimiter::new(rl1_global, rl1_per_source);
                for &(t, ip) in seq {
                    black_box(rl.admit(SimTime::from_nanos(t), ip));
                }
            }
        }),
    }
}
