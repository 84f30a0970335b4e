//! The netsim workloads: `table3` and `spoof_flood`.
//!
//! One *rep* builds every world of the workload, warms it up (set-up) and
//! then runs a fixed window of simulated time in 1 ms steps (measured),
//! advancing the worlds in turn one sample length at a time. The simulated
//! work of a rep depends only on the seed, so reps are compared with each
//! other, with the traced rep and, for `table3`, with
//! `table3_throughput`'s published Table III rates.
//!
//! Every step is timed in every rep, and after each round of samples the
//! reference kernel measures the host's slowdown, by which the round's
//! steps are divided (see [`crate::refkernel`]). The window is cut into
//! blocks of steps. A block is the same simulated work in every rep, so
//! its cost is taken as the [`FAST_Q`]-quantile of its times over the
//! run's reps; where reps are few and the work is steady, the blocks of a
//! whole world are pooled (see [`block_costs`]). Rates are the window's
//! work over the sum of the block costs. Latencies are percentiles of the
//! steps, each rescaled by how much slower its block ran than its cost.

use crate::refkernel::RefKernel;
use crate::replay::{self, Rungs};
use crate::span::{LayerRec, Rec};
use crate::stats::{fast, median, percentile, self_time, FAST_Q};
use crate::worlds::{
    mix, spoof_flood_world, table3_world, table3_worlds, Layer, Plain, Table3World, Traced, World,
    WorldInputs, Wrap,
};
use crate::{peak_rss_mb, Report};
use dnsguard::guard::{GuardStats, RemoteGuard};
use netsim::time::SimTime;
use server::nodes::AuthNode;
use server::simclient::LrsSimulator;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

/// Completions in the 1 s measuring window of each Table III world, in
/// `table3_throughput`'s row order (scheme by scheme, miss then hit):
/// exactly the req/s it prints. `table3_golden_matches_bench` keeps these
/// tied to the live function.
pub const TABLE3_REQ_S: [u64; 8] = [
    84_211, 110_011, 56_521, 110_011, 22_701, 22_701, 84_211, 110_011,
];

/// Simulated time advanced per timed step (one latency sample).
const STEP: SimTime = SimTime::from_millis(1);

/// Steps per block, the unit of work whose cost is estimated.
const BLOCK: usize = 20;

/// The two netsim workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// The eight Table III worlds.
    Table3,
    /// The Fig. 6 world under a 200 K req/s spoofed flood.
    SpoofFlood,
}

/// Warm-up, measured window and sample length of simulated time.
#[derive(Debug, Clone, Copy)]
struct Phases {
    warmup: SimTime,
    window: SimTime,
    /// Simulated time each world advances per measured sample.
    sample: SimTime,
    /// Consecutive blocks whose times are pooled into one cost.
    pool: usize,
}

/// One world of a workload with its seed-derived inputs.
#[derive(Debug, Clone, Copy)]
enum Spec {
    Table3(Table3World, WorldInputs),
    Flood(WorldInputs),
}

impl Spec {
    fn build<W: Wrap>(&self, w: &mut W) -> World {
        match self {
            Spec::Table3(t, i) => table3_world(w, *t, i),
            Spec::Flood(i) => spoof_flood_world(w, i),
        }
    }

    fn inputs(&self) -> &WorldInputs {
        match self {
            Spec::Table3(_, i) | Spec::Flood(i) => i,
        }
    }

    fn label(&self) -> String {
        match self {
            Spec::Table3(t, _) => format!("{:?}/{}", t.scheme, if t.hit { "hit" } else { "miss" }),
            Spec::Flood(_) => "spoof_flood".to_string(),
        }
    }
}

impl SimWorkload {
    fn specs(self, seed: u64) -> Vec<Spec> {
        match self {
            SimWorkload::Table3 => table3_worlds()
                .into_iter()
                .enumerate()
                .map(|(i, t)| Spec::Table3(t, WorldInputs::from_seed(seed, i as u64)))
                .collect(),
            SimWorkload::SpoofFlood => vec![Spec::Flood(WorldInputs::from_seed(seed, 0))],
        }
    }

    /// `table3_throughput`'s and `fig6_guard_attack`'s own warm-up and
    /// window.
    fn phases(self) -> Phases {
        match self {
            // Closed loops at saturation: every block of a world does
            // (nearly) the same work, so a world's blocks are pooled. A rep
            // takes about ten seconds, so a run has only two or three, and
            // short samples spread each world's blocks over the whole rep.
            SimWorkload::Table3 => Phases {
                warmup: SimTime::from_millis(300),
                window: SimTime::from_secs(1),
                sample: SimTime::from_millis(20),
                pool: 50,
            },
            // The timeout cascade makes the work uneven within a window, so
            // each block is its own pool, over the 30-odd reps of a run.
            // One world: the sample only sets how often the reference
            // kernel runs.
            SimWorkload::SpoofFlood => Phases {
                warmup: SimTime::from_millis(500),
                window: SimTime::from_secs(1),
                sample: SimTime::from_millis(100),
                pool: 1,
            },
        }
    }
}

/// Short phases for the correctness pass on the second seed.
const CHECK_PHASES: Phases = Phases {
    warmup: SimTime::from_millis(50),
    window: SimTime::from_millis(100),
    sample: SimTime::from_millis(100),
    pool: 1,
};

/// A layer record's running totals at one instant, so the window's share
/// can be taken as a difference.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    calls: u64,
    total_ns: u64,
    timer_ns: u64,
    samples: usize,
}

impl Mark {
    fn of(r: &LayerRec) -> Self {
        Mark {
            calls: r.calls,
            total_ns: r.total_ns,
            timer_ns: r.timer_ns,
            samples: r.packet_ns.len(),
        }
    }
}

/// What the traced run learned about one layer during the window.
#[derive(Debug, Default)]
struct LayerWindow {
    calls: u64,
    self_ns: u64,
    timer_ns: u64,
    packet_ns: Vec<u32>,
}

/// Counters of a world at one instant (or their change over a span).
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    completed: u64,
    timeouts: u64,
    udp_datagrams: u64,
    delivered: u64,
    nic_dropped: u64,
}

impl Counts {
    fn since(self, before: Counts) -> Counts {
        Counts {
            completed: self.completed - before.completed,
            timeouts: self.timeouts - before.timeouts,
            udp_datagrams: self.udp_datagrams - before.udp_datagrams,
            delivered: self.delivered - before.delivered,
            nic_dropped: self.nic_dropped - before.nic_dropped,
        }
    }

    fn add(&mut self, o: Counts) {
        self.completed += o.completed;
        self.timeouts += o.timeouts;
        self.udp_datagrams += o.udp_datagrams;
        self.delivered += o.delivered;
        self.nic_dropped += o.nic_dropped;
    }
}

fn node_ids(world: &World) -> Vec<usize> {
    let mut ids = vec![world.guard, world.ans];
    ids.extend(&world.lrs);
    ids.extend(world.flood);
    ids
}

fn counts<W: Wrap>(w: &W, world: &World) -> Counts {
    let mut c = Counts::default();
    for &id in &world.lrs {
        let s = w.get::<LrsSimulator>(&world.sim, id).stats;
        c.completed += s.completed;
        c.timeouts += s.timeouts;
    }
    c.udp_datagrams = w
        .get::<RemoteGuard>(&world.sim, world.guard)
        .stats()
        .udp_datagrams;
    for id in node_ids(world) {
        let s = world.sim.cpu_stats(id);
        c.delivered += s.delivered;
        c.nic_dropped += s.dropped;
    }
    c
}

/// Every simulated outcome count of a world, as one comparable string:
/// each `GuardStats` field, each LRS's counters, the ANS's answers and
/// every node's CPU/NIC counters.
fn digest<W: Wrap>(w: &W, world: &World) -> String {
    let mut s = format!(
        "{:?}",
        w.get::<RemoteGuard>(&world.sim, world.guard).stats()
    );
    for &id in &world.lrs {
        s += &format!(" lrs{id}={:?}", w.get::<LrsSimulator>(&world.sim, id).stats);
    }
    s += &format!(
        " ans={}",
        w.get::<AuthNode>(&world.sim, world.ans).total_queries()
    );
    for id in node_ids(world) {
        s += &format!(" cpu{id}={:?}", world.sim.cpu_stats(id));
    }
    s
}

/// A world's outcome over one rep.
#[derive(Debug, Default)]
struct WorldOut {
    label: String,
    /// Change over the measured window.
    delta: Counts,
    /// Outcome at the end of the window.
    digest: String,
    stats: GuardStats,
    /// Per layer (in [`Layer::ALL`] order), traced reps only.
    layers: Vec<LayerWindow>,
    failures: Vec<String>,
}

/// One rep of the workload.
#[derive(Debug, Default)]
struct Rep {
    /// Set-up time at the reference speed, s.
    setup_s: f64,
    /// Wall time of the measured window, without the reference kernel.
    window_ns: u64,
    /// Σ of the `Simulator::run_until` spans of the window's steps.
    run_ns: u64,
    /// Time of every 1 ms step of the window at the reference speed, ns,
    /// per world, in order.
    step_ns: Vec<Vec<f64>>,
    worlds: Vec<WorldOut>,
}

fn marks(recs: &[Rec]) -> Vec<Mark> {
    recs.iter().map(|r| Mark::of(&r.borrow())).collect()
}

/// Builds and warms up every world (set-up), then measures the window
/// round by round, each round advancing every world in turn by one sample
/// length, so a slow phase of the host is spread over all worlds alike.
/// `kernel` measures the host's slowdown after each world's set-up and
/// after each round. Then checks each world's invariants. `wrap` makes
/// each world's [`Wrap`].
fn run_rep<W: Wrap>(
    specs: &[Spec],
    phases: Phases,
    kernel: &mut RefKernel,
    wrap: impl Fn() -> W,
) -> (Rep, Vec<W>) {
    let mut rep = Rep::default();
    let mut live: Vec<(W, World)> = Vec::with_capacity(specs.len());
    for spec in specs {
        let t = Instant::now();
        let mut w = wrap();
        let mut world = spec.build(&mut w);
        world.sim.run_until(phases.warmup);
        rep.setup_s += t.elapsed().as_secs_f64() / kernel.slowdown();
        live.push((w, world));
    }

    let before: Vec<Counts> = live.iter().map(|(w, world)| counts(w, world)).collect();
    let m0: Vec<Vec<Mark>> = live.iter().map(|(w, _)| marks(w.records())).collect();
    let per_sample = phases.sample.as_nanos() / STEP.as_nanos();
    let steps = (phases.window.as_nanos() / STEP.as_nanos()) as usize;
    rep.step_ns = vec![Vec::with_capacity(steps); live.len()];
    for k in 0..phases.window.as_nanos() / phases.sample.as_nanos() {
        let t = Instant::now();
        let mut round: Vec<Vec<u64>> = Vec::with_capacity(live.len());
        for (_, world) in live.iter_mut() {
            let mut steps = Vec::with_capacity(per_sample as usize);
            for j in 1..=per_sample {
                let s = Instant::now();
                world.sim.run_until(
                    phases.warmup + SimTime::from_nanos(STEP.as_nanos() * (k * per_sample + j)),
                );
                steps.push(s.elapsed().as_nanos() as u64);
            }
            round.push(steps);
        }
        rep.window_ns += t.elapsed().as_nanos() as u64;
        let slowdown = kernel.slowdown();
        for (steps, step_ns) in round.iter().zip(&mut rep.step_ns) {
            rep.run_ns += steps.iter().sum::<u64>();
            step_ns.extend(steps.iter().map(|&ns| ns as f64 / slowdown));
        }
    }

    for (i, ((w, world), spec)) in live.iter_mut().zip(specs).enumerate() {
        let m1 = marks(w.records());
        let mut out = WorldOut {
            label: spec.label(),
            delta: counts(w, world).since(before[i]),
            digest: digest(w, world),
            stats: w.get::<RemoteGuard>(&world.sim, world.guard).stats(),
            layers: w
                .records()
                .iter()
                .zip(m0[i].iter().zip(&m1))
                .map(|(r, (a, b))| LayerWindow {
                    calls: b.calls - a.calls,
                    self_ns: b.total_ns - a.total_ns,
                    timer_ns: b.timer_ns - a.timer_ns,
                    packet_ns: r.borrow().packet_ns[a.samples..b.samples].to_vec(),
                })
                .collect(),
            failures: Vec::new(),
        };
        check_world(&*w, world, &mut out);
        rep.worlds.push(out);
    }
    (rep, live.into_iter().map(|(w, _)| w).collect())
}

/// Guard conservation and zero spoofed-to-ANS. The zero-spoofed check
/// stops every client and the attacker, lets in-flight packets drain and
/// then requires that every datagram the ANS ever saw is one the guard
/// forwarded, and that every forward was a verified request.
fn check_world<W: Wrap>(w: &W, world: &mut World, out: &mut WorldOut) {
    let s = out.stats;
    if s.udp_datagrams != s.disposition_total() {
        out.failures.push(format!(
            "{}: conservation: udp_datagrams {} != disposition_total {}",
            out.label,
            s.udp_datagrams,
            s.disposition_total()
        ));
    }
    if s.passthrough != 0 || s.plain_forwarded != 0 {
        out.failures.push(format!(
            "{}: unverified forwards: passthrough {} plain_forwarded {}",
            out.label, s.passthrough, s.plain_forwarded
        ));
    }
    for &id in world.lrs.iter().chain(world.flood.iter()) {
        world.sim.crash(id);
    }
    world.sim.run_for(SimTime::from_millis(200));
    let s = w.get::<RemoteGuard>(&world.sim, world.guard).stats();
    let ans = world.sim.cpu_stats(world.ans);
    if ans.delivered + ans.dropped != s.forwarded {
        out.failures.push(format!(
            "{}: ANS received {} datagrams but the guard forwarded {}",
            out.label,
            ans.delivered + ans.dropped,
            s.forwarded
        ));
    }
    if world.flood.is_some() && s.forwarded > s.ext_valid {
        out.failures.push(format!(
            "{}: {} forwards but only {} verified requests: a flood source was forwarded",
            out.label, s.forwarded, s.ext_valid
        ));
    }
}

fn rep_plain(specs: &[Spec], phases: Phases, kernel: &mut RefKernel) -> Rep {
    run_rep(specs, phases, kernel, || Plain).0
}

/// Checks that hold across reps: identical outcomes for one seed, and the
/// Table III rates.
fn cross_checks(wl: SimWorkload, reps: &[&Rep], phases: Phases, report: &mut Report) {
    let first = reps[0];
    for (k, rep) in reps.iter().enumerate().skip(1) {
        for (a, b) in first.worlds.iter().zip(&rep.worlds) {
            if a.digest != b.digest {
                report.fail(format!(
                    "{}: simulated outcome differs between rep 0 and rep {k}:\n  {}\n  {}",
                    a.label, a.digest, b.digest
                ));
            }
        }
    }
    if wl == SimWorkload::Table3 && phases.window == SimTime::from_secs(1) {
        for rep in reps {
            for (r, want) in rep.worlds.iter().zip(TABLE3_REQ_S) {
                if r.delta.completed != want {
                    report.fail(format!(
                        "{}: {} req/s of sim time, table3_throughput gives {want}",
                        r.label, r.delta.completed
                    ));
                }
            }
        }
    }
}

/// Per world, the cost of each block of the window, ns: the
/// [`FAST_Q`]-quantile of the block's times over `reps`, pooled with
/// the other blocks of its run of `phases.pool` consecutive blocks.
fn block_costs(reps: &[Rep], phases: Phases) -> Vec<Vec<f64>> {
    (0..reps[0].step_ns.len())
        .map(|w| {
            let walls: Vec<Vec<f64>> = reps
                .iter()
                .map(|r| {
                    r.step_ns[w]
                        .chunks(BLOCK)
                        .map(|b| b.iter().sum::<f64>())
                        .collect()
                })
                .collect();
            let n = walls[0].len();
            (0..n)
                .step_by(phases.pool)
                .flat_map(|b| {
                    let end = (b + phases.pool).min(n);
                    let cost = fast(walls.iter().flat_map(|v| &v[b..end]).copied());
                    std::iter::repeat_n(cost, end - b)
                })
                .collect()
        })
        .collect()
}

/// Per world, every step's time in every rep, ns, rescaled to its block's
/// cost: a step is divided by how much slower than its cost the block it
/// ran in was.
fn scaled_steps(reps: &[Rep], costs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    costs
        .iter()
        .enumerate()
        .map(|(w, cost)| {
            reps.iter()
                .flat_map(|r| r.step_ns[w].chunks(BLOCK).zip(cost))
                .flat_map(|(steps, &c)| {
                    let scale = c / steps.iter().sum::<f64>();
                    steps.iter().map(move |&ns| ns * scale)
                })
                .collect()
        })
        .collect()
}

/// Counts each world run as one attempted operation, failed when any of
/// its checks failed.
fn tally(report: &mut Report, rep: &Rep) {
    for r in &rep.worlds {
        report.attempted += 1;
        if !r.failures.is_empty() {
            report.failed += 1;
            for f in &r.failures {
                report.fail(f.clone());
            }
        }
    }
}

/// The seed the correctness checks are repeated on.
fn second_seed(seed: u64) -> u64 {
    mix(seed ^ 0x5EC0_4D5E_ED00_0002)
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Runs the workload for `seconds` and reports its end-to-end metrics
/// (`trace == false`) or its per-layer metrics (`trace == true`).
pub fn run(wl: SimWorkload, seed: u64, seconds: u64, trace: bool) -> Report {
    let specs = wl.specs(seed);
    let phases = wl.phases();
    let mut report = Report::default();
    let started = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut kernel = RefKernel::default();

    // The same invariants, and determinism, on a second seed.
    let checks: Vec<Rep> = (0..2)
        .map(|_| rep_plain(&wl.specs(second_seed(seed)), CHECK_PHASES, &mut kernel))
        .collect();
    cross_checks(wl, &[&checks[0], &checks[1]], CHECK_PHASES, &mut report);
    for c in &checks {
        tally(&mut report, c);
    }

    if !trace {
        // At least two reps (for the determinism check); after that a rep
        // is started only if it should end within the budget.
        let mut reps: Vec<Rep> = Vec::new();
        loop {
            let t = Instant::now();
            reps.push(rep_plain(&specs, phases, &mut kernel));
            if reps.len() >= 2 && started.elapsed() + t.elapsed() > budget {
                break;
            }
        }
        let views: Vec<&Rep> = reps.iter().collect();
        cross_checks(wl, &views, phases, &mut report);
        for rep in &reps {
            tally(&mut report, rep);
        }
        // The window's work is the same in every rep (checked above); its
        // wall time is the sum of the block costs.
        let costs = block_costs(&reps, phases);
        let cost_s = costs.iter().flatten().sum::<f64>() / 1e9;
        let mut window = Counts::default();
        for w in &reps[0].worlds {
            window.add(w.delta);
        }
        let rate = |n: u64| n as f64 / cost_s;
        // The median step of each world, averaged over the worlds (a
        // median of all worlds' steps together would fall between their
        // clusters), and the 99th percentile of every step.
        let steps = scaled_steps(&reps, &costs);
        let p50 = steps.iter().map(|w| median(w)).sum::<f64>() / steps.len() as f64;
        let mut all: Vec<f64> = steps.concat();
        all.sort_by(f64::total_cmp);
        let p99 = percentile(&all, 0.99).unwrap_or(f64::NAN);
        let (completed, timeouts) = (window.completed as f64, window.timeouts as f64);
        let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
        report.metric("setup_s", median(&setups), "s");
        report.metric("legit_rps", rate(window.completed), "1/s");
        report.metric("guard_dps", rate(window.udp_datagrams), "1/s");
        report.metric("pkts_per_s", rate(window.delivered), "1/s");
        report.metric(
            "ok_share",
            completed / (completed + timeouts).max(1.0),
            "share",
        );
        report.metric("lat_p50_us", us(p50), "us");
        report.metric("lat_p99_us", us(p99), "us");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.note(format!(
            "{} reps x {} worlds x {} blocks of {} steps, {} blocks per pool, cost = p{} of each pool's times at the reference speed; {} steps; per rep {} LRS completions and {} LRS timeouts (failed legitimate requests): fail_share {:.4}",
            reps.len(),
            specs.len(),
            costs[0].len(),
            BLOCK,
            phases.pool,
            FAST_Q * 100.0,
            all.len(),
            completed,
            timeouts,
            timeouts / (completed + timeouts).max(1.0)
        ));
        report.note(format!(
            "window wall per rep, ms: {:?}; window at the block costs (reference speed): {:.0} ms",
            reps.iter()
                .map(|r| r.window_ns / 1_000_000)
                .collect::<Vec<_>>(),
            cost_s * 1e3
        ));
    } else {
        // Untraced and traced reps alternate until the budget is spent. The
        // first traced rep gives the spans and captured inputs. The tracing
        // overhead compares the window's cost, taken as for the end-to-end
        // rates, over the traced and over the untraced reps.
        let (mut plain, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
        let mut recs = None;
        loop {
            let t = Instant::now();
            plain.push(rep_plain(&specs, phases, &mut kernel));
            let (mut rep, r) = run_rep(&specs, phases, &mut kernel, Traced::new);
            if recs.is_none() {
                recs = Some(r);
            } else {
                rep.worlds.iter_mut().for_each(|w| w.layers.clear());
            }
            traced.push(rep);
            if started.elapsed() + t.elapsed() > budget {
                break;
            }
        }
        let recs = recs.expect("one traced rep");
        let views: Vec<&Rep> = traced.iter().chain(&plain).collect();
        cross_checks(wl, &views, phases, &mut report);
        for r in &views {
            tally(&mut report, r);
        }
        let cost = |reps: &[Rep]| block_costs(reps, phases).iter().flatten().sum::<f64>();
        let overhead = cost(&traced) / cost(&plain) - 1.0;
        layer_metrics(
            &mut report,
            &traced[0],
            recs,
            wl,
            specs[0].inputs().key_seed,
            overhead,
        );
    }
    report
}

/// Per-layer metrics from a traced rep.
fn layer_metrics(
    report: &mut Report,
    rep: &Rep,
    recs: Vec<Traced>,
    wl: SimWorkload,
    key: u64,
    overhead: f64,
) {
    let wall_ns = rep.window_ns;
    let layers: Vec<LayerWindow> = (0..Layer::ALL.len())
        .map(|i| {
            let mut acc = LayerWindow::default();
            for w in &rep.worlds {
                let l = &w.layers[i];
                acc.calls += l.calls;
                acc.self_ns += l.self_ns;
                acc.timer_ns += l.timer_ns;
                acc.packet_ns.extend(&l.packet_ns);
            }
            acc.packet_ns.sort_unstable();
            acc
        })
        .collect();
    let node_ns: Vec<u64> = layers.iter().map(|l| l.self_ns).collect();
    let netsim_ns = self_time(rep.run_ns, &node_ns);
    let mut window = Counts::default();
    for w in &rep.worlds {
        window.add(w.delta);
    }
    let share = |ns: u64| ns as f64 / wall_ns.max(1) as f64;

    let g = &layers[0];
    report.metric("core.guard.self_ns", g.self_ns as f64, "ns");
    report.metric("core.guard.calls", g.calls as f64, "count");
    report.metric(
        "core.guard.ns_p50",
        percentile(&g.packet_ns, 0.50).unwrap_or(0) as f64,
        "ns",
    );
    report.metric(
        "core.guard.ns_p99",
        percentile(&g.packet_ns, 0.99).unwrap_or(0) as f64,
        "ns",
    );
    report.metric("core.guard.timer_ns", g.timer_ns as f64, "ns");
    report.metric("core.guard.wall_share", share(g.self_ns), "share");
    let sum = |f: fn(&GuardStats) -> u64| rep.worlds.iter().map(|w| f(&w.stats)).sum::<u64>();
    let udp = sum(|s| s.udp_datagrams);
    let useful =
        sum(|s| (s.ext_valid + s.ns_cookie_valid + s.cookie2_valid).saturating_sub(s.rl2_dropped));
    report.metric(
        "core.guard.useful_ratio",
        useful as f64 / udp.max(1) as f64,
        "share",
    );
    report.metric(
        "core.guard.rl1_dropped",
        sum(|s| s.rl1_dropped) as f64,
        "count",
    );
    report.metric(
        "core.guard.spoofed_dropped",
        sum(|s| s.spoofed_dropped()) as f64,
        "count",
    );
    report.metric(
        "core.guard.cookies_issued",
        sum(|s| s.grants_sent + s.fabricated_ns_sent) as f64,
        "count",
    );
    for (name, l) in [
        ("server.ans", &layers[1]),
        ("server.lrs", &layers[2]),
        ("attack.flood", &layers[3]),
    ] {
        report.metric(&format!("{name}.self_ns"), l.self_ns as f64, "ns");
        report.metric(&format!("{name}.calls"), l.calls as f64, "count");
        report.metric(&format!("{name}.wall_share"), share(l.self_ns), "share");
    }
    report.metric("server.lrs.completed", window.completed as f64, "count");
    report.metric("server.lrs.timeouts", window.timeouts as f64, "count");
    report.metric("netsim.self_ns", netsim_ns as f64, "ns");
    report.metric(
        "netsim.self_ns_per_pkt",
        netsim_ns as f64 / window.delivered.max(1) as f64,
        "ns/pkt",
    );
    report.metric("netsim.nic_dropped", window.nic_dropped as f64, "count");
    report.metric("netsim.wall_share", share(netsim_ns), "share");

    // Replay rungs over the inputs the guard saw (cookies under the first
    // world's key).
    let mut payloads: Vec<(Ipv4Addr, Vec<u8>)> = Vec::new();
    let mut arrivals: Vec<Vec<(u64, Ipv4Addr)>> = Vec::new();
    for t in &recs {
        let cap = t
            .rec(Layer::Guard)
            .borrow_mut()
            .capture
            .take()
            .expect("guard capture");
        payloads.extend(cap.payloads);
        arrivals.push(cap.arrivals);
    }
    let (global, per_source) = match wl {
        SimWorkload::Table3 => (1e12, 1e12),
        SimWorkload::SpoofFlood => {
            let d = dnsguard::config::GuardConfig::new(bench::worlds::PUB, bench::worlds::PRIV);
            (d.rl1_global_rate, d.rl1_per_source_rate)
        }
    };
    let rungs = replay::run(&payloads, &arrivals, key, global, per_source);
    rungs_metrics(report, &rungs);
    // The real-socket layers do not exist in a simulated world.
    report.absent(&["runtime."]);

    report.metric("trace.overhead_share", overhead, "share");
    let accounted = node_ns.iter().sum::<u64>() + netsim_ns;
    report.metric("trace.accounted_share", share(accounted), "share");
    report.note(format!(
        "traced window wall {:.3} s; layer shares of it: guard {:.3} ans {:.3} lrs {:.3} flood {:.3} netsim {:.3}; tracing overhead {:.3}",
        wall_ns as f64 / 1e9,
        share(node_ns[0]),
        share(node_ns[1]),
        share(node_ns[2]),
        share(node_ns[3]),
        share(netsim_ns),
        overhead
    ));
    if accounted > wall_ns || share(accounted) < 0.95 {
        report.fail(format!(
            "node spans + netsim self ({accounted} ns) do not account for the traced wall time ({wall_ns} ns)"
        ));
    }
}

/// The replay rungs as per-layer metrics.
pub fn rungs_metrics(report: &mut Report, r: &Rungs) {
    report.metric("guardhash.md5_ns", r.md5_ns, "ns");
    report.metric("guardhash.cookie_generate_ns", r.cookie_generate_ns, "ns");
    report.metric("guardhash.cookie_verify_ns", r.cookie_verify_ns, "ns");
    report.metric("dnswire.decode_ns", r.decode_ns, "ns");
    report.metric("dnswire.encode_ns", r.encode_ns, "ns");
    report.metric("core.limiter_admit_ns", r.limiter_admit_ns, "ns");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slow in a debug build; run with `cargo test --release -- --ignored`.
    #[test]
    #[ignore]
    fn table3_golden_matches_bench() {
        let rows = bench::experiments::table3_throughput();
        let live: Vec<u64> = rows
            .iter()
            .flat_map(|r| [r.miss as u64, r.hit as u64])
            .collect();
        assert_eq!(live, TABLE3_REQ_S.to_vec());
    }
}
