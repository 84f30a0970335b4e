//! Span wrappers for the traced run.
//!
//! [`Spanned`] wraps any netsim [`Node`] and forwards `on_start`,
//! `on_packet` and `on_timer` to it unchanged, timing each call into a
//! shared [`LayerRec`]. Nothing inside the measured program is touched: the
//! wrapper sits between the simulator and the node, so a traced world makes
//! exactly the same decisions as an untraced one (the benchmark checks this
//! on every traced run).

use netsim::engine::{Context, Node};
use netsim::packet::{Packet, Proto};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Instant;

/// What the traced run learns about one layer.
#[derive(Debug, Default)]
pub struct LayerRec {
    /// Handler calls of every kind.
    pub calls: u64,
    /// Total handler time, ns.
    pub total_ns: u64,
    /// Time spent in `on_timer` (housekeeping windows), ns.
    pub timer_ns: u64,
    /// Duration of every `on_packet` call, ns.
    pub packet_ns: Vec<u32>,
    /// When set, the layer's inputs are kept for replay.
    pub capture: Option<Capture>,
}

/// Inputs a layer saw, kept for the replay rungs.
#[derive(Debug, Default)]
pub struct Capture {
    /// (sim time ns, claimed source) of the first `max_arrivals` packets.
    pub arrivals: Vec<(u64, Ipv4Addr)>,
    /// The first `max_payloads` UDP payloads with their claimed source.
    pub payloads: Vec<(Ipv4Addr, Vec<u8>)>,
    /// Arrival capture limit.
    pub max_arrivals: usize,
    /// Payload capture limit.
    pub max_payloads: usize,
}

impl Capture {
    /// An empty capture with the given limits.
    pub fn new(max_arrivals: usize, max_payloads: usize) -> Self {
        Capture {
            max_arrivals,
            max_payloads,
            ..Capture::default()
        }
    }
}

/// Shared handle to one layer's record.
pub type Rec = Rc<RefCell<LayerRec>>;

/// A node wrapped in a timing span.
pub struct Spanned<N> {
    /// The wrapped node, for reading its state back.
    pub inner: N,
    rec: Rec,
}

impl<N> Spanned<N> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: N, rec: Rec) -> Self {
        Spanned { inner, rec }
    }

    fn finish(&self, started: Instant, timer: bool, packet: bool) {
        let ns = started.elapsed().as_nanos() as u64;
        let mut r = self.rec.borrow_mut();
        r.calls += 1;
        r.total_ns += ns;
        if timer {
            r.timer_ns += ns;
        }
        if packet {
            r.packet_ns.push(ns.min(u32::MAX as u64) as u32);
        }
    }
}

impl<N: Node> Node for Spanned<N> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        self.finish(t, false, false);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        // Capture happens outside the span, so it is charged to the engine
        // (netsim self time), never to the layer.
        if let Some(cap) = &mut self.rec.borrow_mut().capture {
            if cap.arrivals.len() < cap.max_arrivals {
                cap.arrivals.push((ctx.now().as_nanos(), pkt.src.ip));
            }
            if pkt.proto == Proto::Udp && cap.payloads.len() < cap.max_payloads {
                cap.payloads.push((pkt.src.ip, pkt.payload.clone()));
            }
        }
        let t = Instant::now();
        self.inner.on_packet(ctx, pkt);
        self.finish(t, false, true);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        let t = Instant::now();
        self.inner.on_timer(ctx, tag);
        self.finish(t, true, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::engine::{CpuConfig, Simulator};
    use netsim::packet::Endpoint;
    use netsim::time::SimTime;
    use rand::RngCore;

    /// Uses every callback and every context effect the engine offers a
    /// handler: timers, sends, CPU charge and the shared RNG.
    #[derive(Default)]
    struct Busy {
        starts: u64,
        packets: u64,
        timers: Vec<u64>,
        draws: Vec<u32>,
        peer: Option<Ipv4Addr>,
    }

    impl Node for Busy {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.starts += 1;
            ctx.set_timer(SimTime::from_micros(50), 7);
            ctx.set_daemon_timer(SimTime::from_micros(80), 9);
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
            self.packets += 1;
            ctx.charge(SimTime::from_micros(3));
            // Draw through the engine's shared RNG: a wrapper that reordered
            // or repeated calls would change the sequence.
            self.draws.push(ctx.rng().next_u32());
            if self.packets < 20 {
                let reply = Packet::udp(pkt.dst, pkt.src, pkt.payload);
                ctx.send(reply);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
            self.timers.push(tag);
            if let Some(peer) = self.peer {
                let me = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 1000);
                ctx.send(Packet::udp(
                    me,
                    Endpoint::new(peer, 53),
                    vec![tag as u8; 12],
                ));
            }
            if tag == 7 && self.timers.len() < 5 {
                ctx.set_timer(SimTime::from_micros(50), 7);
            }
        }
    }

    fn world(traced: bool) -> (Simulator, Vec<Rec>) {
        let mut sim = Simulator::new(11);
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(10, 0, 0, 2);
        let recs: Vec<Rec> = (0..2)
            .map(|_| {
                Rc::new(RefCell::new(LayerRec {
                    capture: Some(Capture::new(usize::MAX, usize::MAX)),
                    ..LayerRec::default()
                }))
            })
            .collect();
        let na = Busy {
            peer: Some(b),
            ..Busy::default()
        };
        let nb = Busy::default();
        if traced {
            sim.add_node(a, CpuConfig::default(), Spanned::new(na, recs[0].clone()));
            sim.add_node(b, CpuConfig::default(), Spanned::new(nb, recs[1].clone()));
        } else {
            sim.add_node(a, CpuConfig::default(), na);
            sim.add_node(b, CpuConfig::default(), nb);
        }
        sim.run_until(SimTime::from_millis(2));
        (sim, recs)
    }

    fn state(sim: &Simulator, id: usize, traced: bool) -> (u64, u64, Vec<u64>, Vec<u32>) {
        let n = if traced {
            &sim.node_ref::<Spanned<Busy>>(id).unwrap().inner
        } else {
            sim.node_ref::<Busy>(id).unwrap()
        };
        (n.starts, n.packets, n.timers.clone(), n.draws.clone())
    }

    #[test]
    fn wrapper_forwards_every_callback_unchanged() {
        let (plain, _) = world(false);
        let (traced, recs) = world(true);
        for id in 0..2 {
            let p = state(&plain, id, false);
            let t = state(&traced, id, true);
            assert_eq!(p, t, "node {id} diverged under the span wrapper");
            assert_eq!(plain.cpu_stats(id), traced.cpu_stats(id));
        }
        // Every callback was spanned: calls = starts + packets + timers.
        for (id, rec) in recs.iter().enumerate() {
            let (starts, packets, timers, _) = state(&traced, id, true);
            let r = rec.borrow();
            assert_eq!(r.calls, starts + packets + timers.len() as u64);
            assert_eq!(r.packet_ns.len() as u64, packets);
            assert_eq!(r.capture.as_ref().unwrap().arrivals.len() as u64, packets);
            assert!(r.total_ns >= r.timer_ns);
        }
        let (_, packets_b, timers_b, _) = state(&plain, 1, false);
        assert!(
            packets_b > 0 && !timers_b.is_empty(),
            "the test world must exercise all callbacks"
        );
    }
}
