//! The netsim worlds of the `table3` and `spoof_flood` workloads, built
//! from a workload seed.
//!
//! The builders mirror `bench::worlds` and `bench::experiments` (the
//! Table III and Fig. 6 worlds) but add every node through a [`Wrap`], so
//! the same code builds an untraced world and one whose nodes sit in span
//! wrappers. The untraced Table III worlds are checked against
//! `table3_throughput`'s published output on every run.

use crate::span::{Capture, LayerRec, Rec, Spanned};
use bench::experiments::Scheme;
use bench::worlds::{PRIV, PUB, SUBNET};
use dnsguard::classify::AuthorityClassifier;
use dnsguard::config::{GuardConfig, SchemeMode};
use dnsguard::guard::RemoteGuard;
use netsim::engine::{CpuConfig, Node, NodeId, Simulator};
use netsim::time::SimTime;
use server::authoritative::Authority;
use server::nodes::{AuthNode, ServerCosts};
use server::simclient::{CookieMode, LrsSimConfig, LrsSimulator};
use server::zone::paper_hierarchy;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Guard arrivals (time, source) kept per world for the limiter replay.
const MAX_ARRIVALS: usize = 600_000;
/// Guard UDP payloads kept per world for the hash and wire replays.
const MAX_PAYLOADS: usize = 1024;

/// The layers a netsim world is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `core::guard::RemoteGuard`.
    Guard,
    /// `server::nodes::AuthNode`.
    Ans,
    /// `server::simclient::LrsSimulator`.
    Lrs,
    /// `attack::flood::SpoofedFlood`.
    Flood,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 4] = [Layer::Guard, Layer::Ans, Layer::Lrs, Layer::Flood];
}

/// How nodes enter a simulator: as they are, or inside span wrappers.
pub trait Wrap {
    /// Adds `node` (of `layer`) to `sim`.
    fn add<N: Node>(
        &mut self,
        sim: &mut Simulator,
        layer: Layer,
        addr: Ipv4Addr,
        cpu: CpuConfig,
        node: N,
    ) -> NodeId;
    /// Reads a node's state back.
    fn get<'a, N: Node>(&self, sim: &'a Simulator, id: NodeId) -> &'a N;
    /// The span records, one per [`Layer::ALL`] entry (none untraced).
    fn records(&self) -> &[Rec] {
        &[]
    }
}

/// Untraced: nodes are added unchanged.
pub struct Plain;

impl Wrap for Plain {
    fn add<N: Node>(
        &mut self,
        sim: &mut Simulator,
        _: Layer,
        addr: Ipv4Addr,
        cpu: CpuConfig,
        node: N,
    ) -> NodeId {
        sim.add_node(addr, cpu, node)
    }
    fn get<'a, N: Node>(&self, sim: &'a Simulator, id: NodeId) -> &'a N {
        sim.node_ref::<N>(id).expect("node type")
    }
}

/// Traced: every node sits in a [`Spanned`] wrapper recording into its
/// layer's record. The guard's record also captures its inputs.
pub struct Traced {
    /// One record per [`Layer::ALL`] entry.
    pub recs: [Rec; 4],
}

impl Traced {
    /// Fresh records; the guard's keeps its inputs for replay.
    pub fn new() -> Self {
        let rec = || Rc::new(RefCell::new(LayerRec::default()));
        let t = Traced {
            recs: [rec(), rec(), rec(), rec()],
        };
        t.recs[0].borrow_mut().capture = Some(Capture::new(MAX_ARRIVALS, MAX_PAYLOADS));
        t
    }

    /// The record of `layer`.
    pub fn rec(&self, layer: Layer) -> &Rec {
        &self.recs[Layer::ALL.iter().position(|&l| l == layer).expect("layer")]
    }
}

impl Wrap for Traced {
    fn add<N: Node>(
        &mut self,
        sim: &mut Simulator,
        layer: Layer,
        addr: Ipv4Addr,
        cpu: CpuConfig,
        node: N,
    ) -> NodeId {
        sim.add_node(addr, cpu, Spanned::new(node, self.rec(layer).clone()))
    }
    fn get<'a, N: Node>(&self, sim: &'a Simulator, id: NodeId) -> &'a N {
        &sim.node_ref::<Spanned<N>>(id).expect("node type").inner
    }
    fn records(&self) -> &[Rec] {
        &self.recs
    }
}

/// splitmix64: the benchmark's only source of generated inputs.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a workload seed decides about one world.
#[derive(Debug, Clone, Copy)]
pub struct WorldInputs {
    /// Simulator RNG seed (flood sources, any randomised node choice).
    pub sim_seed: u64,
    /// Guard cookie key seed.
    pub key_seed: u64,
    /// Host octet of the first LRS address (10.0.1.x / 10.0.3.x).
    pub lrs_host: u8,
}

impl WorldInputs {
    /// Inputs for world `index` of a workload run with `seed`.
    pub fn from_seed(seed: u64, index: u64) -> Self {
        let a = mix(seed ^ mix(index));
        let b = mix(a);
        WorldInputs {
            sim_seed: a,
            key_seed: b,
            // 1..=200 leaves room for the three Table III clients.
            lrs_host: 1 + (mix(b) % 200) as u8,
        }
    }
}

/// One Table III world: a scheme and whether LRSs cache cookies.
#[derive(Debug, Clone, Copy)]
pub struct Table3World {
    /// Scheme column.
    pub scheme: Scheme,
    /// Cookie cache hit (true) or miss (false) row.
    pub hit: bool,
}

/// The eight Table III worlds in `table3_throughput`'s row order.
pub fn table3_worlds() -> Vec<Table3World> {
    Scheme::ALL
        .iter()
        .flat_map(|&scheme| [false, true].map(|hit| Table3World { scheme, hit }))
        .collect()
}

/// Handles into a built world.
pub struct World {
    /// The simulator.
    pub sim: Simulator,
    /// Guard node.
    pub guard: NodeId,
    /// ANS node.
    pub ans: NodeId,
    /// LRS nodes.
    pub lrs: Vec<NodeId>,
    /// Flood node, if any.
    pub flood: Option<NodeId>,
}

struct GuardSpec {
    zone_root: bool,
    mode: SchemeMode,
    open_limiters: bool,
    ans_backlog: SimTime,
}

fn guarded<W: Wrap>(
    w: &mut W,
    spec: &GuardSpec,
    inputs: &WorldInputs,
) -> (Simulator, NodeId, NodeId) {
    let (root, _, foo_com) = paper_hierarchy();
    let authority = Authority::new(vec![if spec.zone_root { root } else { foo_com }]);
    let mut sim = Simulator::new(inputs.sim_seed);
    let mut config = GuardConfig {
        subnet_base: SUBNET,
        key_seed: inputs.key_seed,
        ..GuardConfig::new(PUB, PRIV)
    }
    .with_mode(spec.mode)
    .with_activation_threshold(0.0);
    if spec.open_limiters {
        config.rl1_global_rate = 1e12;
        config.rl1_per_source_rate = 1e12;
        config.rl2_per_source_rate = 1e12;
        config.tcp_conn_rate = 1e12;
    }
    config.tcp_conn_lifetime = SimTime::from_secs(10);
    let guard = w.add(
        &mut sim,
        Layer::Guard,
        PUB,
        CpuConfig {
            max_backlog: SimTime::from_millis(5),
        },
        RemoteGuard::new(config, AuthorityClassifier::new(authority.clone())),
    );
    sim.add_subnet(SUBNET, 24, guard);
    let ans = w.add(
        &mut sim,
        Layer::Ans,
        PRIV,
        CpuConfig {
            max_backlog: spec.ans_backlog,
        },
        AuthNode::with_costs(PRIV, authority, ServerCosts::ans_simulator()),
    );
    (sim, guard, ans)
}

fn lrs<W: Wrap>(
    w: &mut W,
    sim: &mut Simulator,
    ip: Ipv4Addr,
    mode: CookieMode,
    cache: bool,
    conc: u32,
    wait: SimTime,
) -> NodeId {
    let mut config = LrsSimConfig::new(ip, PUB, "www.foo.com".parse().expect("static name"));
    config.mode = mode;
    config.cookie_cache = cache;
    config.concurrency = conc;
    config.wait = wait;
    config.pace = SimTime::ZERO;
    config.per_packet_cost = SimTime::ZERO;
    w.add(
        sim,
        Layer::Lrs,
        ip,
        CpuConfig::unbounded(),
        LrsSimulator::new(config),
    )
}

/// Builds one Table III world exactly as `table3_throughput` does, with
/// the seed-derived simulator seed, cookie key and client addresses.
pub fn table3_world<W: Wrap>(w: &mut W, t: Table3World, inputs: &WorldInputs) -> World {
    let (zone_root, mode) = match t.scheme {
        Scheme::NsName => (true, SchemeMode::DnsBased),
        Scheme::Fabricated => (false, SchemeMode::DnsBased),
        Scheme::Tcp => (false, SchemeMode::TcpBased),
        Scheme::Modified => (false, SchemeMode::ModifiedOnly),
    };
    let spec = GuardSpec {
        zone_root,
        mode,
        open_limiters: true,
        ans_backlog: SimTime::from_millis(5),
    };
    let (mut sim, guard, ans) = guarded(w, &spec, inputs);
    let cookie_mode = if t.scheme == Scheme::Modified {
        CookieMode::Extension
    } else {
        CookieMode::Plain
    };
    let (n, conc) = if t.scheme == Scheme::Tcp {
        (2, 50)
    } else {
        (3, 64)
    };
    let lrs = (0..n)
        .map(|i| {
            let ip = Ipv4Addr::new(10, 0, 1, inputs.lrs_host + i);
            lrs(
                w,
                &mut sim,
                ip,
                cookie_mode,
                t.hit,
                conc as u32,
                SimTime::from_millis(20),
            )
        })
        .collect();
    World {
        sim,
        guard,
        ans,
        lrs,
        flood: None,
    }
}

/// Attack rate of the `spoof_flood` workload, req/s of simulated time.
pub const FLOOD_RATE: f64 = 200_000.0;

/// Builds the Fig. 6 world with spoof detection on: modified DNS, the
/// paper's default limiters, a 50 ms-deep ANS queue, one closed-loop LRS
/// with 256 requests in flight and a 10 ms wait, and an open-loop
/// random-source spoofed flood at [`FLOOD_RATE`].
pub fn spoof_flood_world<W: Wrap>(w: &mut W, inputs: &WorldInputs) -> World {
    use attack::flood::{AttackPayload, FloodConfig, SourceStrategy, SpoofedFlood};
    let spec = GuardSpec {
        zone_root: false,
        mode: SchemeMode::ModifiedOnly,
        open_limiters: false,
        ans_backlog: SimTime::from_millis(50),
    };
    let (mut sim, guard, ans) = guarded(w, &spec, inputs);
    let ip = Ipv4Addr::new(10, 0, 3, inputs.lrs_host);
    let lrs = vec![lrs(
        w,
        &mut sim,
        ip,
        CookieMode::Extension,
        true,
        256,
        SimTime::from_millis(10),
    )];
    let flood = w.add(
        &mut sim,
        Layer::Flood,
        Ipv4Addr::new(66, 6, 0, 1),
        CpuConfig::unbounded(),
        SpoofedFlood::new(FloodConfig {
            target: PUB,
            rate: FLOOD_RATE,
            sources: SourceStrategy::Random,
            payload: AttackPayload::PlainQuery("www.foo.com".parse().expect("static name")),
            duration: None,
        }),
    );
    World {
        sim,
        guard,
        ans,
        lrs,
        flood: Some(flood),
    }
}
