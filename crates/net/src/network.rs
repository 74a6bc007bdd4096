//! The rack's one transport seam: every flat-vs-routed pricing decision.
//!
//! The rack engine hands [`Network`] messages and gets arrival times back;
//! it never asks which mode the rack runs in. Two modes exist:
//!
//! * **Flat** (the single-switch rack): every host has a full-duplex NIC
//!   [`Link`] to one switch, and the switch prices each delivery on a
//!   per-destination egress port after its pipeline latency. A message
//!   pays its sender's NIC on [`Network::ingress`], reaches the switch,
//!   and pays the egress port (plus, into a CPU node, that node's NIC
//!   receive pipe) on [`Network::deliver`].
//! * **Routed** (any multi-switch [`TopologySpec`]): a [`Fabric`] prices
//!   the whole path hop by hop on [`Network::deliver`]; there is no
//!   separate ingress leg, so the switch routes at departure.
//!
//! Both modes keep one NIC per CPU node whose receive pipe carries the
//! switch's control-plane notices ([`Network::notice`]). In routed mode
//! that pipe is the notices' only charge: they never enter the fabric, so
//! they never queue behind downlink traffic.

use crate::fabric::{Fabric, FabricConfig};
use crate::link::Link;
use crate::packet::Endpoint;
use crate::topology::{TopoNode, Topology, TopologySpec};
use pulse_sim::{SerialResource, SimTime};

/// The rack network: links, switch egress ports or routed fabric, and the
/// byte accounting and link counters over them.
///
/// Link ids index [`Network::link_names`] and the counter samples: flat
/// racks number CPU NICs `0..cpus` then memory NICs; routed racks number
/// the fabric's directed links.
///
/// # Examples
///
/// ```
/// use pulse_net::{Endpoint, FabricConfig, Network, TopologySpec};
/// use pulse_sim::SimTime;
///
/// let mut net = Network::new(TopologySpec::Flat, 1, 2, FabricConfig::default());
/// let cpu = Endpoint::Cpu(0);
/// // Flat: the sender's NIC carries the message to the switch ingress...
/// let (at_switch, nic) = net.ingress(SimTime::ZERO, cpu, 256).expect("flat has an ingress leg");
/// assert_eq!(net.link_names()[nic], "nic-cpu0");
/// // ...and the switch delivers it on the destination's egress port.
/// let (arrive, link) = net.deliver(at_switch, cpu, Endpoint::Mem(1), 256);
/// assert!(arrive > at_switch);
/// assert_eq!(net.link_names()[link], "nic-mem1");
/// ```
#[derive(Debug)]
pub struct Network {
    cfg: FabricConfig,
    /// One NIC per CPU node (see the module docs for what each mode
    /// prices on it).
    cpu: Vec<Link>,
    /// Cumulative bytes per link id at the last counter sample.
    sampled: Vec<u64>,
    mode: Mode,
}

#[derive(Debug)]
enum Mode {
    Flat {
        /// One NIC per memory node.
        mem: Vec<Link>,
        /// The switch's egress ports, one per endpoint slot.
        ports: Vec<SerialResource>,
    },
    Routed {
        fabric: Box<Fabric>,
        /// Each endpoint slot's up-link (first-hop) link id.
        uplink: Vec<usize>,
    },
}

impl Network {
    /// Wires the network of a rack with `cpus` CPU nodes and `mems` memory
    /// nodes in the shape of `spec`.
    ///
    /// # Panics
    ///
    /// Panics if a switch count of `spec` is zero; see
    /// [`TopologySpec::validate`].
    pub fn new(spec: TopologySpec, cpus: usize, mems: usize, cfg: FabricConfig) -> Network {
        let slots = cpus + mems;
        let mode = if spec.is_routed() {
            let fabric = Box::new(Fabric::new(spec.build(cpus, mems), cfg));
            let mut uplink = vec![0; slots];
            for (i, l) in fabric.topology().links().iter().enumerate() {
                if let TopoNode::Host(ep) = l.from {
                    uplink[slot(cpus, ep)] = i;
                }
            }
            Mode::Routed { fabric, uplink }
        } else {
            Mode::Flat {
                mem: (0..mems).map(|_| Link::new(cfg.link)).collect(),
                ports: (0..slots)
                    .map(|_| SerialResource::new(cfg.switch.port_bits_per_sec))
                    .collect(),
            }
        };
        let links = match &mode {
            Mode::Flat { .. } => slots,
            Mode::Routed { fabric, .. } => fabric.topology().links().len(),
        };
        Network {
            cfg,
            cpu: (0..cpus).map(|_| Link::new(cfg.link)).collect(),
            sampled: vec![0; links],
            mode,
        }
    }

    /// The sender's first hop, for `bytes` leaving `from` at `at`. Flat:
    /// the sender's NIC serializes the message and it propagates to the
    /// switch; returns the ingress time and the NIC's link id. Routed:
    /// `None`, because [`Self::deliver`] prices the whole path from the
    /// departure.
    pub fn ingress(&mut self, at: SimTime, from: Endpoint, bytes: u64) -> Option<(SimTime, usize)> {
        let Mode::Flat { mem, .. } = &mut self.mode else {
            return None;
        };
        let cpus = self.cpu.len();
        let arrive = match from {
            Endpoint::Cpu(c) => self.cpu[c].tx(at, bytes),
            Endpoint::Mem(n) => mem[n].tx(at, bytes),
        };
        Some((arrive, slot(cpus, from)))
    }

    /// Delivers `bytes` from `from` to `to`: from the switch ingress at `at`
    /// (flat) or from the sender's departure at `at` (routed). Returns the
    /// arrival time and the link id the trip is attributed to: the
    /// destination's NIC (flat) or the sender's up-link (routed).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is not part of the rack.
    pub fn deliver(
        &mut self,
        at: SimTime,
        from: Endpoint,
        to: Endpoint,
        bytes: u64,
    ) -> (SimTime, usize) {
        let cpus = self.cpu.len();
        match &mut self.mode {
            Mode::Flat { ports, .. } => {
                let ready = at + self.cfg.switch.pipeline_latency;
                let charged = bytes.max(self.cfg.switch.min_frame_bytes);
                let egress = ports[slot(cpus, to)].acquire(ready, charged).end;
                let arrive = match to {
                    Endpoint::Cpu(c) => self.cpu[c].rx(egress, bytes),
                    Endpoint::Mem(_) => egress + self.cfg.link.propagation,
                };
                (arrive, slot(cpus, to))
            }
            Mode::Routed { fabric, uplink } => (
                fabric
                    .send(at, from, to, bytes)
                    .expect("fabric covers every rack endpoint"),
                uplink[slot(cpus, from)],
            ),
        }
    }

    /// A memory-to-memory transfer (a replicated store or a re-replication
    /// chunk) of `bytes` from node `from` to node `to`, departing at `at`;
    /// returns the arrival time. Flat: the sender's NIC plus one more
    /// propagation (no switch port is charged). Routed: the fabric path.
    pub fn store(&mut self, at: SimTime, from: usize, to: usize, bytes: u64) -> SimTime {
        match &mut self.mode {
            Mode::Flat { mem, .. } => mem[from].tx(at, bytes) + self.cfg.link.propagation,
            Mode::Routed { fabric, .. } => fabric
                .send(at, Endpoint::Mem(from), Endpoint::Mem(to), bytes)
                .expect("fabric covers every rack endpoint"),
        }
    }

    /// A control-plane notice of `bytes` from the switch to CPU node `cpu`
    /// at `at`: the CPU NIC's receive pipe plus one link propagation, in
    /// both modes. Returns the arrival time.
    pub fn notice(&mut self, at: SimTime, cpu: usize, bytes: u64) -> SimTime {
        self.cpu[cpu].rx(at, bytes) + self.cfg.link.propagation
    }

    /// Host bytes on the network. Flat: both directions of every CPU NIC.
    /// Routed: every message once, on its origin's fabric up-link (which
    /// also covers the memory-to-memory traffic CPU NICs never see).
    pub fn host_bytes(&self) -> u64 {
        match &self.mode {
            Mode::Flat { .. } => self.cpu.iter().map(|l| l.tx_bytes() + l.rx_bytes()).sum(),
            Mode::Routed { fabric, .. } => fabric.host_injected_bytes(),
        }
    }

    /// Peak busy fraction over `[0, horizon]` of the links into CPU nodes
    /// (the downlinks incast congests). 0.0 on flat, which models no such
    /// link.
    pub fn cpu_downlink_peak(&self, horizon: SimTime) -> f64 {
        match &self.mode {
            Mode::Flat { .. } => 0.0,
            Mode::Routed { fabric, .. } => fabric.cpu_downlink_peak(horizon),
        }
    }

    /// Deepest any egress FIFO got. 0 on flat, which models no egress
    /// queue.
    pub fn max_queue_depth(&self) -> usize {
        match &self.mode {
            Mode::Flat { .. } => 0,
            Mode::Routed { fabric, .. } => fabric.max_queue_depth(),
        }
    }

    /// Display names of the link ids, for trace tracks: `nic-cpu0`,
    /// `nic-mem1`, ... (flat) or `cpu0->sw0`, ... (routed).
    pub fn link_names(&self) -> Vec<String> {
        match &self.mode {
            Mode::Flat { mem, .. } => (0..self.cpu.len())
                .map(|c| format!("nic-cpu{c}"))
                .chain((0..mem.len()).map(|n| format!("nic-mem{n}")))
                .collect(),
            Mode::Routed { fabric, .. } => fabric
                .topology()
                .links()
                .iter()
                .map(|l| format!("{}->{}", label(l.from), label(l.to)))
                .collect(),
        }
    }

    /// Takes one counter sample at `at`, `interval` seconds after the
    /// previous one: calls `record(link, utilization, queue_depth)` per
    /// link id, in id order. Utilization is the bytes moved since the last
    /// sample over what the link could move in `interval`, capped at 1.
    /// Flat NICs are full duplex, so their capacity counts both directions,
    /// and they model no egress queue (depth 0).
    pub fn sample(&mut self, at: SimTime, interval: f64, mut record: impl FnMut(usize, f64, u64)) {
        match &self.mode {
            Mode::Flat { mem, .. } => {
                let bps = self.cfg.link.bits_per_sec as f64;
                for (i, link) in self.cpu.iter().chain(mem).enumerate() {
                    let total = link.tx_bytes() + link.rx_bytes();
                    let delta = total - self.sampled[i];
                    self.sampled[i] = total;
                    record(i, (delta as f64 * 8.0 / (interval * 2.0 * bps)).min(1.0), 0);
                }
            }
            Mode::Routed { fabric, .. } => {
                for (i, stat) in fabric.link_stats().iter().enumerate() {
                    let delta = stat.bytes - self.sampled[i];
                    self.sampled[i] = stat.bytes;
                    let bps = match stat.from {
                        TopoNode::Host(_) => self.cfg.link.bits_per_sec,
                        TopoNode::Switch(_) => self.cfg.switch.port_bits_per_sec,
                    };
                    let util = (delta as f64 * 8.0 / (interval * bps as f64)).min(1.0);
                    record(i, util, fabric.queue_depth_at(i, at) as u64);
                }
            }
        }
    }

    /// The CPU nodes' NICs (tx/rx byte counters), indexed by CPU id.
    pub fn cpu_nics(&self) -> &[Link] {
        &self.cpu
    }

    /// The routed fabric's per-link state, when the rack has one.
    pub fn fabric(&self) -> Option<&Fabric> {
        match &self.mode {
            Mode::Flat { .. } => None,
            Mode::Routed { fabric, .. } => Some(fabric),
        }
    }
}

/// An endpoint's slot: CPU nodes first, then memory nodes.
fn slot(cpus: usize, ep: Endpoint) -> usize {
    match ep {
        Endpoint::Cpu(c) => c,
        Endpoint::Mem(n) => cpus + n,
    }
}

/// Display label of a fabric vertex.
fn label(n: TopoNode) -> String {
    match n {
        TopoNode::Host(Endpoint::Cpu(c)) => format!("cpu{c}"),
        TopoNode::Host(Endpoint::Mem(m)) => format!("mem{m}"),
        TopoNode::Switch(s) => format!("sw{s}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::switch::SwitchConfig;

    const BYTES: u64 = 1_000;

    /// Distinct NIC and port bandwidths, so a leg priced on the wrong pipe
    /// shows in the sum.
    fn cfg() -> FabricConfig {
        FabricConfig {
            link: LinkConfig {
                propagation: SimTime::from_nanos(100),
                bits_per_sec: 8_000_000_000,
                per_message_overhead_bytes: 0,
            },
            switch: SwitchConfig {
                pipeline_latency: SimTime::from_nanos(600),
                port_bits_per_sec: 16_000_000_000,
                min_frame_bytes: 0,
            },
        }
    }

    fn nic() -> SimTime {
        SimTime::serialization(BYTES, cfg().link.bits_per_sec)
    }

    fn port() -> SimTime {
        SimTime::serialization(BYTES, cfg().switch.port_bits_per_sec)
    }

    fn prop() -> SimTime {
        cfg().link.propagation
    }

    fn pipe() -> SimTime {
        cfg().switch.pipeline_latency
    }

    fn flat() -> Network {
        Network::new(TopologySpec::Flat, 1, 2, cfg())
    }

    /// One leaf under one spine: every host pair is two hops apart.
    fn one_leaf() -> Network {
        let net = Network::new(
            TopologySpec::LeafSpine {
                leaves: 1,
                spines: 1,
            },
            1,
            2,
            cfg(),
        );
        let path = net
            .fabric()
            .expect("routed")
            .topology()
            .path(Endpoint::Cpu(0), Endpoint::Mem(1));
        assert_eq!(path.map(|p| p.len()), Some(2));
        net
    }

    /// A flat message end to end: ingress, then delivery from the switch.
    fn flat_trip(net: &mut Network, t0: SimTime, from: Endpoint, to: Endpoint) -> SimTime {
        let (at_switch, _) = net.ingress(t0, from, BYTES).expect("flat ingress");
        net.deliver(at_switch, from, to, BYTES).0
    }

    #[test]
    fn flat_legs_match_the_hand_summed_charges() {
        let t0 = SimTime::from_micros(5);
        let mut net = flat();
        // CPU→mem: CPU NIC tx, switch pipeline + egress port.
        let expect = t0 + nic() + prop() + pipe() + port() + prop();
        assert_eq!(
            flat_trip(&mut net, t0, Endpoint::Cpu(0), Endpoint::Mem(0)),
            expect
        );
        // mem→CPU: memory NIC tx, switch, then the CPU NIC's rx pipe.
        let mut net = flat();
        let expect = t0 + nic() + prop() + pipe() + port() + nic() + prop();
        assert_eq!(
            flat_trip(&mut net, t0, Endpoint::Mem(1), Endpoint::Cpu(0)),
            expect
        );
        // mem→mem: the sender's NIC plus one more propagation.
        let mut net = flat();
        assert_eq!(net.store(t0, 0, 1, BYTES), t0 + nic() + prop() + prop());
        // Notice: the CPU NIC's rx pipe plus one more propagation.
        assert_eq!(net.notice(t0, 0, BYTES), t0 + nic() + prop() + prop());
        assert_eq!(net.host_bytes(), BYTES, "the notice crossed the CPU NIC");
        assert_eq!(net.cpu_downlink_peak(t0), 0.0);
        assert_eq!(net.max_queue_depth(), 0);
    }

    #[test]
    fn routed_legs_match_the_hand_summed_charges() {
        let t0 = SimTime::from_micros(5);
        let hops = t0 + nic() + prop() + pipe() + port() + prop();
        for (from, to) in [
            (Endpoint::Cpu(0), Endpoint::Mem(0)),
            (Endpoint::Mem(1), Endpoint::Cpu(0)),
        ] {
            let mut net = one_leaf();
            assert_eq!(net.ingress(t0, from, BYTES), None, "routes at departure");
            assert_eq!(net.deliver(t0, from, to, BYTES).0, hops, "{from:?}->{to:?}");
        }
        let mut net = one_leaf();
        assert_eq!(net.store(t0, 0, 1, BYTES), hops);
        assert_eq!(net.host_bytes(), BYTES);
        // Notices stay on the CPU NIC's rx pipe: off the fabric entirely.
        assert_eq!(net.notice(t0, 0, BYTES), t0 + nic() + prop() + prop());
        assert_eq!(net.host_bytes(), BYTES, "notices never enter the fabric");
        assert_eq!(net.cpu_nics()[0].rx_bytes(), BYTES);
    }

    #[test]
    fn back_to_back_sends_on_one_nic_serialize() {
        let mut net = flat();
        let a = net.ingress(SimTime::ZERO, Endpoint::Cpu(0), BYTES).unwrap();
        let b = net.ingress(SimTime::ZERO, Endpoint::Cpu(0), BYTES).unwrap();
        assert_eq!(b.0 - a.0, nic());
        // So do two deliveries on one switch egress port; another port is
        // independent.
        let to = |net: &mut Network, n| net.deliver(a.0, Endpoint::Cpu(0), Endpoint::Mem(n), BYTES);
        let (first, second, other) = (to(&mut net, 0), to(&mut net, 0), to(&mut net, 1));
        assert_eq!(second.0 - first.0, port());
        assert_eq!(other.0, first.0);
        // Routed: the second message queues behind the first on the shared
        // up-link only; the egress ports toward two nodes are independent.
        let mut net = one_leaf();
        let a = net.deliver(SimTime::ZERO, Endpoint::Cpu(0), Endpoint::Mem(0), BYTES);
        let b = net.deliver(SimTime::ZERO, Endpoint::Cpu(0), Endpoint::Mem(1), BYTES);
        assert_eq!(b.0 - a.0, nic());
        assert_eq!(a.1, b.1, "both attributed to the sender's up-link");
        assert_eq!(net.link_names()[a.1], "cpu0->sw0");
        assert_eq!(net.max_queue_depth(), 2);
    }

    #[test]
    fn flat_egress_ports_clamp_to_the_minimum_frame() {
        let clamped = FabricConfig {
            switch: SwitchConfig {
                min_frame_bytes: 4 * BYTES,
                ..cfg().switch
            },
            ..cfg()
        };
        let mut net = Network::new(TopologySpec::Flat, 1, 1, clamped);
        let (arrive, link) = net.deliver(SimTime::ZERO, Endpoint::Cpu(0), Endpoint::Mem(0), BYTES);
        let min_frame = SimTime::serialization(4 * BYTES, clamped.switch.port_bits_per_sec);
        assert_eq!(arrive, pipe() + min_frame + prop());
        assert_eq!(net.link_names(), ["nic-cpu0", "nic-mem0"]);
        assert_eq!(link, 1, "attributed to the destination's NIC");
    }

    #[test]
    fn samples_report_per_link_utilization() {
        let mut net = flat();
        net.ingress(SimTime::ZERO, Endpoint::Cpu(0), BYTES);
        let mut seen = Vec::new();
        // 1 µs of a full-duplex 8 Gb/s NIC moves 2000 B; 1000 B is half.
        net.sample(SimTime::from_micros(1), 1e-6, |i, u, d| {
            seen.push((i, u, d))
        });
        assert_eq!(seen.iter().map(|s| s.0).collect::<Vec<_>>(), [0, 1, 2]);
        assert!((seen[0].1 - 0.5).abs() < 1e-9, "{seen:?}");
        assert!(seen[1..].iter().all(|&(_, u, d)| u == 0.0 && d == 0));
        seen.clear();
        net.sample(SimTime::from_micros(2), 1e-6, |i, u, d| {
            seen.push((i, u, d))
        });
        assert!(seen.iter().all(|&(_, u, _)| u == 0.0), "deltas, not totals");
    }
}
