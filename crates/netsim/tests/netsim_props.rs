//! Property tests over the simulator core: conservation, determinism,
//! and mini-TCP integrity under arbitrary loss patterns.
//!
//! Cases are generated from fixed seeds with the simulator's own
//! deterministic RNG, so a failing case is reproducible from its index.

use bytes::Bytes;
use netsim::packet::{addr, Packet};
use netsim::rng::SplitMix64;
use netsim::tcp::{TcpConfig, TcpSocket};
use netsim::{
    App, ArrivalMeta, CpuModel, HookVerdict, LinkSpec, NodeApi, PacketHook, Sim, SimTime,
};
use planp_telemetry::DropReason;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Duration;

struct Counter {
    got: Rc<RefCell<u64>>,
}
impl App for Counter {
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {
        *self.got.borrow_mut() += 1;
    }
}

struct Blaster {
    dst: u32,
    n: u32,
    size: usize,
    gap_us: u64,
}
impl App for Blaster {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        api.set_timer(Duration::from_micros(self.gap_us), 0);
    }
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
        if self.n == 0 {
            return;
        }
        self.n -= 1;
        api.send(Packet::udp(
            api.addr(),
            self.dst,
            1,
            2,
            Bytes::from(vec![0u8; self.size]),
        ));
        api.set_timer(Duration::from_micros(self.gap_us), 0);
    }
}

/// Every packet sent is either delivered, dropped at a queue, or
/// dropped at a node — never duplicated, never lost silently.
#[test]
fn packet_conservation_on_a_chain() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0xC0DE_0000 + case);
        let n = 1 + rng.next_below(119) as u32;
        let size = 16 + rng.next_below(1384) as usize;
        let gap_us = 50 + rng.next_below(4950);
        let kbps = 200 + rng.next_below(19_800);
        let queue = 2 + rng.next_below(30) as usize;
        let hops = 1 + rng.next_below(3) as usize;

        let mut sim = Sim::new(42);
        let src = sim.add_host("src", addr(10, 0, 0, 1));
        let mut prev = src;
        for h in 0..hops {
            let r = sim.add_router(&format!("r{h}"), addr(10, 0, 1, h as u8 + 1));
            sim.add_link(
                LinkSpec {
                    kbps,
                    delay: Duration::from_micros(100),
                    queue_pkts: queue,
                },
                &[prev, r],
            );
            prev = r;
        }
        let dst = sim.add_host("dst", addr(10, 0, 2, 1));
        sim.add_link(
            LinkSpec {
                kbps,
                delay: Duration::from_micros(100),
                queue_pkts: queue,
            },
            &[prev, dst],
        );
        sim.compute_routes();
        let got = Rc::new(RefCell::new(0u64));
        sim.add_app(dst, Box::new(Counter { got: got.clone() }));
        sim.add_app(
            src,
            Box::new(Blaster {
                dst: addr(10, 0, 2, 1),
                n,
                size,
                gap_us,
            }),
        );
        sim.run_until(SimTime::from_secs(600));

        let node_drops: u64 = (0..hops + 2)
            .map(|i| sim.node(netsim::NodeId(i)).dropped)
            .sum();
        let delivered = *got.borrow();
        assert_eq!(
            delivered + sim.total_link_drops + node_drops,
            u64::from(n),
            "case {case}: delivered {} + link drops {} + node drops {} != sent {}",
            delivered,
            sim.total_link_drops,
            node_drops,
            n
        );
    }
}

/// A hook that sheds a deterministic subset of the packets it sees:
/// every `shed_mod`-th as an admission [`DropReason::Shed`], every
/// `expire_mod`-th as [`DropReason::DeadlineExpired`].
struct Shedder {
    seen: u64,
    shed_mod: u64,
    expire_mod: u64,
}
impl PacketHook for Shedder {
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet, meta: &ArrivalMeta) -> HookVerdict {
        if meta.overheard {
            return HookVerdict::Pass(pkt);
        }
        self.seen += 1;
        if self.seen.is_multiple_of(self.shed_mod) {
            api.node_drop(&pkt, DropReason::Shed);
            return HookVerdict::Handled;
        }
        if self.seen.is_multiple_of(self.expire_mod) {
            api.node_drop(&pkt, DropReason::DeadlineExpired);
            return HookVerdict::Handled;
        }
        HookVerdict::Pass(pkt)
    }
}

/// The node-level drop-accounting identity: every drop charged to a
/// node lands in exactly one of its three buckets — policy drops
/// (`dropped`), CPU-queue overflows (`cpu_drops`), or admission sheds
/// (`shed`) — and the engine-wide total is their sum. Each case forces
/// all three kinds at once: a slow router CPU with a tiny queue
/// overflows, its hook sheds and expires a deterministic subset, and a
/// second flow aims at an unroutable address.
#[test]
fn node_drop_identity_across_all_buckets() {
    for case in 0..16u64 {
        let mut rng = SplitMix64::new(0xC0DE_3000 + case);
        let n = 80 + rng.next_below(120) as u32;
        let gap_us = 30 + rng.next_below(120);
        let queue_cap = 1 + rng.next_below(3) as usize;
        let shed_mod = 2 + rng.next_below(4);
        let expire_mod = 3 + rng.next_below(4);

        let mut sim = Sim::new(0xBADD + case);
        let src = sim.add_host("src", addr(10, 0, 0, 1));
        let r = sim.add_router("r", addr(10, 0, 1, 1));
        let dst = sim.add_host("dst", addr(10, 0, 2, 1));
        for ends in [[src, r], [r, dst]] {
            sim.add_link(
                LinkSpec {
                    kbps: 100_000,
                    delay: Duration::from_micros(100),
                    queue_pkts: 256,
                },
                &ends,
            );
        }
        sim.compute_routes();
        sim.set_cpu(
            r,
            CpuModel {
                per_packet: Duration::from_micros(200),
                queue_cap,
            },
        );
        sim.install_hook(
            r,
            Box::new(Shedder {
                seen: 0,
                shed_mod,
                expire_mod,
            }),
        );
        let got = Rc::new(RefCell::new(0u64));
        sim.add_app(dst, Box::new(Counter { got: got.clone() }));
        sim.add_app(
            src,
            Box::new(Blaster {
                dst: addr(10, 0, 2, 1),
                n,
                size: 64,
                gap_us,
            }),
        );
        // A second flow into the void: no route, so every send is a
        // policy drop at the source.
        sim.add_app(
            src,
            Box::new(Blaster {
                dst: addr(10, 9, 9, 9),
                n: 8,
                size: 64,
                gap_us: 500,
            }),
        );
        sim.run_until(SimTime::from_secs(60));

        let nodes = [src, r, dst];
        let policy: u64 = nodes.iter().map(|&i| sim.node(i).dropped).sum();
        let cpu: u64 = nodes.iter().map(|&i| sim.node(i).cpu_drops).sum();
        let shed: u64 = nodes.iter().map(|&i| sim.node(i).shed).sum();
        assert_eq!(policy, 8, "case {case}: exactly the unroutable flow");
        assert!(cpu > 0, "case {case}: the router CPU queue must overflow");
        assert!(shed > 0, "case {case}: the hook must shed");
        assert_eq!(
            sim.total_node_drops,
            policy + cpu + shed,
            "case {case}: total {} != policy {policy} + cpu {cpu} + shed {shed}",
            sim.total_node_drops
        );
        // Conservation still closes for the routable flow: every
        // datagram was delivered or charged to exactly one bucket.
        assert_eq!(
            *got.borrow() + sim.total_link_drops + cpu + shed,
            u64::from(n),
            "case {case}: conservation"
        );
    }
}

/// Identical seeds and parameters give identical outcomes.
#[test]
fn determinism() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0xC0DE_1000 + case);
        let seed = rng.next_u64();
        let n = 1 + rng.next_below(59) as u32;
        let run = || {
            let mut sim = Sim::new(seed);
            let a = sim.add_host("a", 1);
            let b = sim.add_host("b", 2);
            sim.add_link(
                LinkSpec {
                    kbps: 900,
                    delay: Duration::from_millis(1),
                    queue_pkts: 4,
                },
                &[a, b],
            );
            sim.compute_routes();
            let got = Rc::new(RefCell::new(0u64));
            sim.add_app(b, Box::new(Counter { got: got.clone() }));
            sim.add_app(
                a,
                Box::new(Blaster {
                    dst: 2,
                    n,
                    size: 700,
                    gap_us: 300,
                }),
            );
            sim.run_until(SimTime::from_secs(60));
            let delivered = *got.borrow();
            (delivered, sim.total_link_drops)
        };
        assert_eq!(run(), run(), "case {case}");
    }
}

/// Mini-TCP delivers the exact byte stream whatever subset of segments
/// the wire drops (as long as it is finite).
#[test]
fn tcp_survives_arbitrary_loss() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0xC0DE_2000 + case);
        let len = 1 + rng.next_below(19_999) as usize;
        let drops: BTreeSet<usize> = (0..rng.next_below(12))
            .map(|_| 1 + rng.next_below(199) as usize)
            .collect();

        let mut now = SimTime::ZERO;
        let cfg = TcpConfig {
            max_retries: 50,
            ..TcpConfig::default()
        };
        let (mut c, syn) = TcpSocket::connect(cfg, (1, 5000), (2, 80), now);
        let (mut s, synack) = TcpSocket::accept(cfg, (2, 80), &syn, now).unwrap();
        let ev = c.on_segment(&synack, now);
        let mut wire: Vec<(bool, Packet)> = ev.to_send.into_iter().map(|p| (true, p)).collect();

        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let ev = c.send(&data, now);
        wire.extend(ev.to_send.into_iter().map(|p| (true, p)));

        let mut received = Vec::new();
        let mut count = 0usize;
        let mut steps = 0;
        loop {
            steps += 1;
            assert!(steps < 100_000, "case {case}: did not converge");
            if let Some((to_s, pkt)) = wire.first().cloned() {
                wire.remove(0);
                count += 1;
                if drops.contains(&count) {
                    continue; // eaten by the wire
                }
                let ev = if to_s {
                    let ev = s.on_segment(&pkt, now);
                    received.extend(s.take_received());
                    ev
                } else {
                    c.on_segment(&pkt, now)
                };
                wire.extend(ev.to_send.into_iter().map(|p| (!to_s, p)));
            } else {
                if received.len() >= data.len() && c.in_flight() == 0 {
                    break;
                }
                now += Duration::from_millis(250);
                let e1 = c.on_tick(now);
                let e2 = s.on_tick(now);
                assert!(!e1.failed && !e2.failed, "case {case}: connection died");
                wire.extend(e1.to_send.into_iter().map(|p| (true, p)));
                wire.extend(e2.to_send.into_iter().map(|p| (false, p)));
            }
        }
        assert_eq!(received, data, "case {case}");
    }
}
