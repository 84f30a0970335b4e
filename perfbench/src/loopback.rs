//! The `loopback` workload: `runtime::GuardServer` in front of
//! `runtime::ToyAns` on real loopback sockets.
//!
//! One generator thread runs a closed loop with one `CookieClient` and one
//! legitimate query outstanding. Before each legitimate query it sends
//! [`FORGED_PER_QUERY`] forged-cookie datagrams from a second socket,
//! fire-and-forget. The guard serves its socket in arrival order, so by
//! the time a legitimate answer is back every earlier forged datagram has
//! been judged, and the counters can be checked exactly.
//!
//! The loop is measured in chunks of [`CHUNK`] queries. After each chunk
//! the reference kernel measures the host's slowdown, by which the chunk's
//! wall time and latency percentiles are divided (see
//! [`crate::refkernel`]). Every chunk is the same work, so each reported
//! time is the [`FAST_Q`]-quantile of its chunks' values, as in the netsim
//! workloads.

use crate::refkernel::RefKernel;
use crate::replay;
use crate::simwl::rungs_metrics;
use crate::stats::{fast, median, percentile, FAST_Q};
use crate::worlds::mix;
use crate::{peak_rss_mb, Report};
use dnswire::cookie_ext;
use dnswire::message::Message;
use dnswire::name::Name;
use dnswire::rdata::RData;
use dnswire::types::RrType;
use guardhash::cookie::CookieFactory;
use runtime::ans::ToyAns;
use runtime::client::CookieClient;
use runtime::guard_server::GuardServer;
use server::authoritative::Authority;
use server::zone::{paper_hierarchy, WWW_ADDR};
use std::net::{Ipv4Addr, UdpSocket};
use std::time::{Duration, Instant};

/// Forged-cookie datagrams sent before each legitimate query.
pub const FORGED_PER_QUERY: usize = 4;
/// Distinct forged datagrams generated from the seed (sent round-robin).
const FORGED_TEMPLATES: usize = 64;
/// Legitimate queries of the warm-up, part of set-up.
const WARMUP_QUERIES: usize = 2000;
/// Deployments set up per run; the median set-up time is reported.
const SETUPS: usize = 7;
/// Legitimate queries per measured chunk.
const CHUNK: usize = 4096;

/// A running deployment plus its generator.
struct Deployment {
    ans: ToyAns,
    guard: GuardServer,
    client: CookieClient,
    forger: UdpSocket,
    forged: Vec<Vec<u8>>,
    next_forged: usize,
    /// Legitimate queries sent so far (warm-up included).
    queries: u64,
    /// Legitimate queries that failed or got a wrong answer.
    errors: u64,
    failures: Vec<String>,
}

/// `(forwarded, grants, dropped_spoofed, dropped_rl1, ans served)`.
type Counters = [u64; 5];

/// The forged datagrams of a seed: random transaction ids and random
/// 16-byte cookies on the legitimate question.
fn forged_datagrams(seed: u64) -> Vec<Vec<u8>> {
    let mut z = mix(seed ^ 0xF0F6_ED00);
    (0..FORGED_TEMPLATES)
        .map(|_| {
            z = mix(z);
            let mut cookie = [0u8; 16];
            cookie[..8].copy_from_slice(&z.to_le_bytes());
            cookie[8..].copy_from_slice(&mix(z).to_le_bytes());
            let mut q = Message::query((z >> 48) as u16, www(), RrType::A);
            cookie_ext::attach_cookie(&mut q, cookie, 0);
            q.encode()
        })
        .collect()
}

fn www() -> Name {
    "www.foo.com".parse().expect("static name")
}

/// The guard's cookie key for a seed.
fn key_seed(seed: u64) -> u64 {
    mix(seed ^ 0x600D_C00C)
}

impl Deployment {
    /// Spawns the ANS and guard and runs the warm-up; returns the
    /// deployment and its set-up wall time in seconds.
    fn setup(seed: u64) -> Result<(Deployment, f64), String> {
        let t = Instant::now();
        let spawn = || -> std::io::Result<Deployment> {
            let (_, _, foo_com) = paper_hierarchy();
            let ans = ToyAns::spawn(Authority::new(vec![foo_com]))?;
            let guard = GuardServer::spawn(ans.addr(), key_seed(seed))?;
            let client = CookieClient::connect(guard.addr())?;
            let forger = UdpSocket::bind("127.0.0.1:0")?;
            Ok(Deployment {
                ans,
                guard,
                client,
                forger,
                forged: forged_datagrams(seed),
                next_forged: 0,
                queries: 0,
                errors: 0,
                failures: Vec::new(),
            })
        };
        let mut d = spawn().map_err(|e| format!("spawn failed: {e}"))?;
        for _ in 0..WARMUP_QUERIES {
            d.send_forged(None);
            d.query();
        }
        Ok((d, t.elapsed().as_secs_f64()))
    }

    /// Sends the forged datagrams, timing each send into `spans` if given.
    fn send_forged(&mut self, mut spans: Option<&mut Vec<u64>>) {
        for _ in 0..FORGED_PER_QUERY {
            let d = &self.forged[self.next_forged];
            self.next_forged = (self.next_forged + 1) % self.forged.len();
            let t = Instant::now();
            let sent = self.forger.send_to(d, self.guard.addr());
            if let Some(s) = spans.as_deref_mut() {
                s.push(t.elapsed().as_nanos() as u64);
            }
            if let Err(e) = sent {
                self.failures.push(format!("forged send failed: {e}"));
            }
        }
    }

    /// One legitimate query; returns its wall latency in ns. A failed or
    /// wrong answer is recorded.
    fn query(&mut self) -> u64 {
        self.queries += 1;
        let t = Instant::now();
        let res = self.client.query(www(), RrType::A);
        let ns = t.elapsed().as_nanos() as u64;
        let wrong = match res {
            Ok(m)
                if m.answers.len() == 1
                    && m.answers[0].name == www()
                    && m.answers[0].rdata == RData::A(WWW_ADDR) =>
            {
                None
            }
            Ok(m) => Some(format!("wrong answer: {m}")),
            Err(e) => Some(format!("query failed: {e}")),
        };
        if let Some(w) = wrong {
            self.errors += 1;
            if self.failures.len() < 10 {
                self.failures.push(w);
            }
        }
        ns
    }

    fn counters(&self) -> Counters {
        let (f, g, s, r) = self.guard.counters();
        [f, g, s, r, self.ans.served()]
    }

    /// Stops both servers, checks the counters against what was sent and
    /// books the deployment's queries into `report`.
    fn finish(self, report: &mut Report) {
        let c = self.counters();
        let Deployment {
            ans,
            guard,
            queries: q,
            errors,
            mut failures,
            ..
        } = self;
        guard.shutdown();
        ans.shutdown();
        let [forwarded, grants, spoofed, rl1, served] = c;
        let forged = q * FORGED_PER_QUERY as u64;
        if spoofed != forged {
            failures.push(format!(
                "dropped_spoofed {spoofed}, forged datagrams sent {forged}"
            ));
        }
        if forwarded != q || served != forwarded {
            failures.push(format!(
                "forwarded {forwarded}, ANS served {served}, legitimate queries {q}"
            ));
        }
        if grants != 1 || rl1 != 0 {
            failures.push(format!(
                "grants {grants} (want 1), dropped_rl1 {rl1} (want 0)"
            ));
        }
        report.attempted += q;
        report.failed += errors;
        for f in failures {
            report.fail(f);
        }
    }
}

/// One measured chunk. Only summaries are kept, so memory does not grow
/// with the length of the run.
struct Chunk {
    wall_ns: u64,
    /// The host's slowdown measured right after the chunk.
    slowdown: f64,
    /// Legitimate queries.
    n: usize,
    /// Latency percentiles and total, ns.
    p50: f64,
    p99: f64,
    lat_sum: u64,
    counters: Counters,
}

/// One chunk of the closed loop, then `kernel`'s slowdown. Forged sends
/// are timed into `forged_spans` when given.
fn chunk(
    d: &mut Deployment,
    kernel: &mut RefKernel,
    lat: &mut Vec<u64>,
    mut forged_spans: Option<&mut Vec<u64>>,
) -> Chunk {
    lat.clear();
    let before = d.counters();
    let c = Instant::now();
    for _ in 0..CHUNK {
        d.send_forged(forged_spans.as_deref_mut());
        lat.push(d.query());
    }
    let wall_ns = c.elapsed().as_nanos() as u64;
    let after = d.counters();
    lat.sort_unstable();
    let mut counters = [0; 5];
    for i in 0..5 {
        counters[i] = after[i] - before[i];
    }
    Chunk {
        wall_ns,
        slowdown: kernel.slowdown(),
        n: lat.len(),
        p50: pct_ns(lat, 0.50),
        p99: pct_ns(lat, 0.99),
        lat_sum: lat.iter().sum(),
        counters,
    }
}

/// Mean over chunks.
fn mean(chunks: &[Chunk], f: impl Fn(&Chunk) -> f64) -> f64 {
    chunks.iter().map(f).sum::<f64>() / chunks.len() as f64
}

/// The [`FAST_Q`]-quantile over the chunks of `f` at the reference speed.
fn fast_at_ref(chunks: &[Chunk], f: impl Fn(&Chunk) -> f64) -> f64 {
    fast(chunks.iter().map(|c| f(c) / c.slowdown))
}

fn pct_ns(sorted: &[u64], q: f64) -> f64 {
    percentile(sorted, q).map_or(f64::NAN, |v| v as f64)
}

/// Runs the workload for `seconds`.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Report {
    let mut report = Report::default();
    // The same checks on a second seed's deployment.
    match Deployment::setup(mix(seed ^ 0x5EC0_4D5E_ED00_0002)) {
        Ok((d, _)) => d.finish(&mut report),
        Err(e) => report.fail(e),
    }
    let mut kernel = RefKernel::default();
    let mut setups = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        match Deployment::setup(seed) {
            Ok((d, s)) => {
                setups.push(s / kernel.slowdown());
                if k + 1 < SETUPS {
                    d.finish(&mut report);
                } else {
                    kept = Some(d);
                }
            }
            Err(e) => {
                report.fail(e);
                return report;
            }
        }
    }
    let Some(mut d) = kept else {
        return report;
    };
    let budget = Duration::from_secs(seconds);

    let started = Instant::now();
    let mut lat = Vec::with_capacity(CHUNK);
    if !trace {
        let errors_before = d.errors;
        let mut chunks = Vec::new();
        while chunks.is_empty() || started.elapsed() < budget {
            chunks.push(chunk(&mut d, &mut kernel, &mut lat, None));
        }
        // Every chunk is CHUNK legitimate queries; its wall time at the
        // reference speed is the chunk's cost.
        let chunk_s = fast_at_ref(&chunks, |c| c.wall_ns as f64) / 1e9;
        let rate = |per_chunk: f64| per_chunk / chunk_s;
        report.metric("setup_s", median(&setups), "s");
        report.metric("legit_rps", rate(CHUNK as f64), "1/s");
        report.metric(
            "guard_dps",
            rate((CHUNK * (1 + FORGED_PER_QUERY)) as f64),
            "1/s",
        );
        // Datagrams received by the guard (from the generator and from the
        // ANS), by the ANS and by the client.
        let pkts = |c: &Chunk| {
            let [f, g, s, r, served] = c.counters;
            (f + g + s + r + 2 * served + c.n as u64) as f64
        };
        report.metric("pkts_per_s", rate(mean(&chunks, pkts)), "1/s");
        report.metric("lat_p50_us", fast_at_ref(&chunks, |c| c.p50) / 1e3, "us");
        report.metric("lat_p99_us", fast_at_ref(&chunks, |c| c.p99) / 1e3, "us");
        let n: usize = chunks.iter().map(|c| c.n).sum();
        report.metric(
            "ok_share",
            1.0 - (d.errors - errors_before) as f64 / n as f64,
            "share",
        );
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.note(format!(
            "{} chunks of {CHUNK} legitimate queries, {} forged datagrams, times = p{} of the chunks at the reference speed (median slowdown {:.3}); fail_share {:.4}",
            chunks.len(),
            n * FORGED_PER_QUERY,
            FAST_Q * 100.0,
            median(&chunks.iter().map(|c| c.slowdown).collect::<Vec<_>>()),
            d.errors as f64 / d.queries as f64
        ));
    } else {
        // Untraced chunks alternate with chunks whose forged sends are
        // spanned too; each adjacent pair gives one overhead ratio.
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut forged_spans = Vec::new();
        while traced.is_empty() || started.elapsed() < budget {
            plain.push(chunk(&mut d, &mut kernel, &mut lat, None));
            traced.push(chunk(
                &mut d,
                &mut kernel,
                &mut lat,
                Some(&mut forged_spans),
            ));
        }
        forged_spans.sort_unstable();
        let query_p50 = mean(&traced, |c| c.p50);
        let ratios: Vec<f64> = plain
            .iter()
            .zip(&traced)
            .map(|(p, t)| t.wall_ns as f64 / p.wall_ns as f64)
            .collect();

        let factory = CookieFactory::from_seed(key_seed(seed));
        let mut legit = Message::query(1, www(), RrType::A);
        cookie_ext::attach_cookie(&mut legit, factory.generate(Ipv4Addr::LOCALHOST).0, 0);
        let mut payloads = vec![(Ipv4Addr::LOCALHOST, legit.encode())];
        payloads.extend(d.forged.iter().map(|p| (Ipv4Addr::LOCALHOST, p.clone())));
        // Every datagram of one traced chunk as (ns since the chunk began,
        // source), through the live guard's Rate-Limiter1 (10 K/s global,
        // 1 K/s per source).
        let step = traced[0].wall_ns / (CHUNK * (1 + FORGED_PER_QUERY)) as u64;
        let arrivals: Vec<(u64, Ipv4Addr)> = (0..(CHUNK * (1 + FORGED_PER_QUERY)) as u64)
            .map(|i| (i * step, Ipv4Addr::LOCALHOST))
            .collect();
        let rungs = replay::run(&payloads, &[arrivals], key_seed(seed), 10_000.0, 1_000.0);

        // The simulated layers do not exist on real sockets.
        report.absent(&["core.guard.", "server.", "attack.", "netsim."]);
        rungs_metrics(&mut report, &rungs);
        report.metric("runtime.client.query_ns", query_p50, "ns");
        report.metric("runtime.forged_send_ns", pct_ns(&forged_spans, 0.50), "ns");
        let sum = |i: usize| traced.iter().map(|c| c.counters[i]).sum::<u64>() as f64;
        for (i, name) in ["forwarded", "grants", "dropped_spoofed", "dropped_rl1"]
            .iter()
            .enumerate()
        {
            report.metric(&format!("runtime.guard_server.{name}"), sum(i), "count");
        }
        report.metric("runtime.ans.served", sum(4), "count");
        report.metric(
            "runtime.io_share",
            1.0 - rungs.sum_ns() / query_p50,
            "share",
        );
        report.metric("trace.overhead_share", median(&ratios) - 1.0, "share");
        let spanned: u64 =
            traced.iter().map(|c| c.lat_sum).sum::<u64>() + forged_spans.iter().sum::<u64>();
        let wall: u64 = traced.iter().map(|c| c.wall_ns).sum();
        report.metric(
            "trace.accounted_share",
            spanned as f64 / wall as f64,
            "share",
        );
        report.note(format!(
            "query p50 {:.0} ns, forged send p50 {:.0} ns, hash+wire rung sum {:.0} ns",
            query_p50,
            pct_ns(&forged_spans, 0.50),
            rungs.sum_ns()
        ));
    }
    d.finish(&mut report);
    report
}
