//! Rack topologies: which switches exist, which directed links connect them,
//! and the hop path a message takes between two endpoints.
//!
//! A [`Topology`] is pure geometry — it knows nothing about bandwidth or
//! occupancy (that is [`crate::Fabric`]'s job). Paths are sequences of
//! **directed link ids**, so the forward and response directions of the same
//! physical cable are distinct resources, exactly like the full-duplex
//! [`crate::Link`] pipes of the flat model.
//!
//! Every constructor guarantees *reverse-path symmetry*: the path from `dst`
//! back to `src` traverses the same switches in reverse order (over the
//! opposite-direction links). The leaf–spine constructor picks the spine by a
//! hash symmetric in `(src, dst)`, and the ring breaks equal-distance ties
//! with a direction rule that is antisymmetric under endpoint swap, so the
//! guarantee holds for every pair — the topology path tests assert it
//! exhaustively.

use crate::packet::Endpoint;
use std::collections::HashMap;

/// A vertex of the fabric graph: either a host endpoint or a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopoNode {
    /// A CPU or memory node attached to an edge switch.
    Host(Endpoint),
    /// A switch, numbered `0..Topology::switches()`.
    Switch(usize),
}

/// One direction of a cable: an ordered `(from, to)` vertex pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirectedLink {
    /// The transmitting side.
    pub from: TopoNode,
    /// The receiving side.
    pub to: TopoNode,
}

/// Geometry of a rack fabric: endpoint→port mapping and hop-path computation.
pub trait Topology {
    /// Human-readable topology kind (`"flat"`, `"tor"`, …).
    fn kind(&self) -> &'static str;

    /// Number of switches in the fabric.
    fn switches(&self) -> usize;

    /// Every directed link, indexed by link id.
    fn links(&self) -> &[DirectedLink];

    /// The edge switch `ep` is cabled to, if `ep` is part of this fabric.
    fn port_of(&self, ep: Endpoint) -> Option<usize>;

    /// Directed-link ids a message from `src` to `dst` traverses, in order.
    ///
    /// Returns `None` when either endpoint is not attached to the fabric.
    fn path(&self, src: Endpoint, dst: Endpoint) -> Option<Vec<usize>>;
}

/// Shape of a fabric, without bandwidth parameters.
///
/// This is the `Copy` value that rides inside cluster and baseline configs;
/// [`TopologySpec::build`] expands it into a concrete [`RackTopology`] once
/// the endpoint roster (CPU and memory node counts) is known. Endpoints are
/// assigned to edge switches round-robin: `Cpu(i)` to switch `i % edges`,
/// `Mem(n)` to switch `n % edges`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopologySpec {
    /// The single-switch rack of PRs 1–5. Clusters treat this as "no fabric"
    /// and keep the legacy flat pricing path, bit-identical to before.
    #[default]
    Flat,
    /// Top-of-rack switches joined by one core switch.
    Tor {
        /// Number of racks (edge switches). Must be ≥ 1.
        racks: usize,
    },
    /// Leaf switches fully meshed to spine switches (2-tier Clos).
    LeafSpine {
        /// Number of leaf (edge) switches. Must be ≥ 1.
        leaves: usize,
        /// Number of spine switches. Must be ≥ 1.
        spines: usize,
    },
    /// Edge switches cabled in a cycle; messages take the shorter arc.
    Ring {
        /// Number of switches on the ring. Must be ≥ 1.
        switches: usize,
    },
}

impl TopologySpec {
    /// True when this spec routes through a multi-switch fabric (anything but
    /// [`TopologySpec::Flat`]).
    pub fn is_routed(self) -> bool {
        !matches!(self, TopologySpec::Flat)
    }

    /// Checks that every switch count is positive.
    ///
    /// # Errors
    ///
    /// A human-readable message when a switch count parameter is zero.
    pub fn validate(self) -> Result<(), String> {
        let zero = match self {
            TopologySpec::Flat => false,
            TopologySpec::Tor { racks } => racks == 0,
            TopologySpec::LeafSpine { leaves, spines } => leaves == 0 || spines == 0,
            TopologySpec::Ring { switches } => switches == 0,
        };
        if zero {
            return Err(format!("topology {self:?} has a zero switch count"));
        }
        Ok(())
    }

    /// Expands the spec into a concrete topology over `cpus` CPU nodes and
    /// `mems` memory nodes.
    ///
    /// # Panics
    ///
    /// Panics if a switch count parameter is zero; see
    /// [`TopologySpec::validate`].
    pub fn build(self, cpus: usize, mems: usize) -> RackTopology {
        let roster: Vec<Endpoint> = (0..cpus)
            .map(Endpoint::Cpu)
            .chain((0..mems).map(Endpoint::Mem))
            .collect();
        match self {
            TopologySpec::Flat => RackTopology::flat(&roster),
            TopologySpec::Tor { racks } => RackTopology::tor(&roster, racks),
            TopologySpec::LeafSpine { leaves, spines } => {
                RackTopology::leaf_spine(&roster, leaves, spines)
            }
            TopologySpec::Ring { switches } => RackTopology::ring(&roster, switches),
        }
    }
}

/// Which switch-to-switch wiring a [`RackTopology`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wiring {
    /// Edge switches only (one switch when flat).
    EdgeOnly,
    /// Edge switches all cabled to one core switch (the last switch id).
    Core,
    /// `leaves` edge switches fully meshed to `spines` spine switches.
    Clos { leaves: usize, spines: usize },
    /// Edge switches cabled in a cycle.
    Cycle(usize),
}

/// A concrete topology instance: endpoint→edge-switch map plus the directed
/// link table, with hop paths computed per the wiring.
#[derive(Debug, Clone)]
pub struct RackTopology {
    kind: &'static str,
    wiring: Wiring,
    switches: usize,
    links: Vec<DirectedLink>,
    link_ids: HashMap<(TopoNode, TopoNode), usize>,
    ports: HashMap<Endpoint, usize>,
}

impl RackTopology {
    /// One switch, every endpoint cabled to it — the PR 1–5 rack.
    pub fn flat(endpoints: &[Endpoint]) -> RackTopology {
        Self::with_edges(endpoints, 1, "flat", Wiring::EdgeOnly)
    }

    /// `racks` top-of-rack switches joined by a single core switch (the last
    /// switch id). Same-rack traffic stays under the ToR; cross-rack traffic
    /// goes ToR → core → ToR.
    pub fn tor(endpoints: &[Endpoint], racks: usize) -> RackTopology {
        assert!(racks >= 1, "ToR topology needs at least one rack");
        let mut topo = Self::with_edges(endpoints, racks, "tor", Wiring::Core);
        let core = racks;
        topo.switches = racks + 1;
        for r in 0..racks {
            topo.add_duplex(TopoNode::Switch(r), TopoNode::Switch(core));
        }
        topo
    }

    /// `leaves` edge switches fully meshed to `spines` spine switches. The
    /// spine for a cross-leaf pair is chosen by a hash symmetric in
    /// `(src, dst)`, so response paths reverse request paths.
    pub fn leaf_spine(endpoints: &[Endpoint], leaves: usize, spines: usize) -> RackTopology {
        assert!(leaves >= 1, "leaf-spine topology needs at least one leaf");
        assert!(spines >= 1, "leaf-spine topology needs at least one spine");
        let mut topo = Self::with_edges(
            endpoints,
            leaves,
            "leaf-spine",
            Wiring::Clos { leaves, spines },
        );
        topo.switches = leaves + spines;
        for l in 0..leaves {
            for s in 0..spines {
                topo.add_duplex(TopoNode::Switch(l), TopoNode::Switch(leaves + s));
            }
        }
        topo
    }

    /// `switches` edge switches cabled in a cycle. Messages take the shorter
    /// arc; equal-length ties go clockwise exactly when the source switch id
    /// is smaller, which keeps reversal symmetric.
    pub fn ring(endpoints: &[Endpoint], switches: usize) -> RackTopology {
        assert!(switches >= 1, "ring topology needs at least one switch");
        let mut topo = Self::with_edges(endpoints, switches, "ring", Wiring::Cycle(switches));
        if switches > 1 {
            for i in 0..switches {
                topo.add_duplex(TopoNode::Switch(i), TopoNode::Switch((i + 1) % switches));
            }
        }
        topo
    }

    fn with_edges(
        endpoints: &[Endpoint],
        edges: usize,
        kind: &'static str,
        wiring: Wiring,
    ) -> RackTopology {
        let mut topo = RackTopology {
            kind,
            wiring,
            switches: edges,
            links: Vec::new(),
            link_ids: HashMap::new(),
            ports: HashMap::new(),
        };
        for &ep in endpoints {
            let edge = match ep {
                Endpoint::Cpu(c) => c % edges,
                Endpoint::Mem(n) => n % edges,
            };
            topo.ports.insert(ep, edge);
            topo.add_duplex(TopoNode::Host(ep), TopoNode::Switch(edge));
        }
        topo
    }

    fn add_duplex(&mut self, a: TopoNode, b: TopoNode) {
        for (from, to) in [(a, b), (b, a)] {
            let id = self.links.len();
            self.links.push(DirectedLink { from, to });
            self.link_ids.insert((from, to), id);
        }
    }

    fn link(&self, from: TopoNode, to: TopoNode) -> usize {
        *self
            .link_ids
            .get(&(from, to))
            .expect("switch walk stays on cabled links")
    }

    /// A canonical index for an endpoint, used by the symmetric spine hash.
    fn ep_key(ep: Endpoint) -> usize {
        match ep {
            Endpoint::Cpu(c) => 2 * c,
            Endpoint::Mem(n) => 2 * n + 1,
        }
    }

    /// The switch ids a message crosses between edge switches `a` and `b`
    /// (inclusive of both), per the wiring.
    fn switch_walk(&self, a: usize, b: usize, src: Endpoint, dst: Endpoint) -> Vec<usize> {
        if a == b {
            return vec![a];
        }
        match self.wiring {
            Wiring::EdgeOnly => vec![a], // single switch: a == b always
            Wiring::Core => {
                let core = self.switches - 1;
                vec![a, core, b]
            }
            Wiring::Clos { leaves, spines } => {
                let s = (Self::ep_key(src) + Self::ep_key(dst)) % spines;
                vec![a, leaves + s, b]
            }
            Wiring::Cycle(n) => {
                let cw = (b + n - a) % n;
                let ccw = n - cw;
                let clockwise = cw < ccw || (cw == ccw && a < b);
                let mut walk = Vec::with_capacity(cw.min(ccw) + 1);
                let mut at = a;
                walk.push(at);
                while at != b {
                    at = if clockwise {
                        (at + 1) % n
                    } else {
                        (at + n - 1) % n
                    };
                    walk.push(at);
                }
                walk
            }
        }
    }
}

impl Topology for RackTopology {
    fn kind(&self) -> &'static str {
        self.kind
    }

    fn switches(&self) -> usize {
        self.switches
    }

    fn links(&self) -> &[DirectedLink] {
        &self.links
    }

    fn port_of(&self, ep: Endpoint) -> Option<usize> {
        self.ports.get(&ep).copied()
    }

    fn path(&self, src: Endpoint, dst: Endpoint) -> Option<Vec<usize>> {
        let a = self.port_of(src)?;
        let b = self.port_of(dst)?;
        let walk = self.switch_walk(a, b, src, dst);
        let mut hops = Vec::with_capacity(walk.len() + 1);
        hops.push(self.link(TopoNode::Host(src), TopoNode::Switch(walk[0])));
        for pair in walk.windows(2) {
            hops.push(self.link(TopoNode::Switch(pair[0]), TopoNode::Switch(pair[1])));
        }
        hops.push(self.link(TopoNode::Switch(*walk.last().unwrap()), TopoNode::Host(dst)));
        Some(hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roster(cpus: usize, mems: usize) -> Vec<Endpoint> {
        (0..cpus)
            .map(Endpoint::Cpu)
            .chain((0..mems).map(Endpoint::Mem))
            .collect()
    }

    /// Every ordered endpoint pair must route over a loop-free path whose
    /// reverse is exactly the response path (same cables, opposite
    /// directions, reverse order) — the satellite-4 contract.
    fn assert_paths_symmetric_and_loop_free(topo: &RackTopology, eps: &[Endpoint]) {
        for &src in eps {
            for &dst in eps {
                if src == dst {
                    continue;
                }
                let fwd = topo.path(src, dst).expect("path exists");
                let rev = topo.path(dst, src).expect("reverse path exists");
                assert_eq!(fwd.len(), rev.len(), "{src}->{dst} asymmetric length");

                // Loop-free: the vertex sequence never repeats a node.
                let mut seen = vec![TopoNode::Host(src)];
                for &lid in &fwd {
                    let l = topo.links()[lid];
                    assert_eq!(l.from, *seen.last().unwrap(), "{src}->{dst} not contiguous");
                    assert!(!seen.contains(&l.to), "{src}->{dst} revisits {:?}", l.to);
                    seen.push(l.to);
                }
                assert_eq!(*seen.last().unwrap(), TopoNode::Host(dst));

                // Response path = request path reversed, link by link.
                for (i, &lid) in fwd.iter().enumerate() {
                    let f = topo.links()[lid];
                    let r = topo.links()[rev[rev.len() - 1 - i]];
                    assert_eq!((f.from, f.to), (r.to, r.from), "{src}->{dst} hop {i}");
                }
            }
        }
    }

    #[test]
    fn flat_paths_are_the_single_switch_two_hop_paths() {
        let eps = roster(2, 4);
        let topo = RackTopology::flat(&eps);
        assert_eq!(topo.switches(), 1);
        for &src in &eps {
            for &dst in &eps {
                if src == dst {
                    continue;
                }
                let p = topo.path(src, dst).unwrap();
                // Host up-link into switch 0, then switch 0 down-link to dst —
                // exactly the tx → forward shape the golden traces price.
                assert_eq!(p.len(), 2);
                assert_eq!(topo.links()[p[0]].from, TopoNode::Host(src));
                assert_eq!(topo.links()[p[0]].to, TopoNode::Switch(0));
                assert_eq!(topo.links()[p[1]].from, TopoNode::Switch(0));
                assert_eq!(topo.links()[p[1]].to, TopoNode::Host(dst));
            }
        }
        assert_paths_symmetric_and_loop_free(&topo, &eps);
    }

    #[test]
    fn tor_paths_are_loop_free_and_reversible() {
        let eps = roster(2, 6);
        let topo = RackTopology::tor(&eps, 3);
        assert_eq!(topo.switches(), 4); // 3 ToRs + core
        assert_paths_symmetric_and_loop_free(&topo, &eps);
        // Same-rack traffic never leaves the ToR.
        let p = topo.path(Endpoint::Mem(0), Endpoint::Mem(3)).unwrap();
        assert_eq!(p.len(), 2);
        // Cross-rack traffic transits the core.
        let p = topo.path(Endpoint::Mem(0), Endpoint::Mem(1)).unwrap();
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn leaf_spine_paths_are_loop_free_and_reversible() {
        for spines in 1..=3 {
            let eps = roster(3, 8);
            let topo = RackTopology::leaf_spine(&eps, 2, spines);
            assert_eq!(topo.switches(), 2 + spines);
            assert_paths_symmetric_and_loop_free(&topo, &eps);
        }
    }

    #[test]
    fn ring_paths_are_loop_free_and_reversible() {
        for switches in 1..=6 {
            let eps = roster(2, 6);
            let topo = RackTopology::ring(&eps, switches);
            assert_paths_symmetric_and_loop_free(&topo, &eps);
        }
    }

    #[test]
    fn ring_takes_the_shorter_arc() {
        let eps = roster(0, 8);
        let topo = RackTopology::ring(&eps, 8);
        // Mem(0) on switch 0, Mem(1) on switch 1: one inter-switch hop.
        let p = topo.path(Endpoint::Mem(0), Endpoint::Mem(1)).unwrap();
        assert_eq!(p.len(), 3);
        // Mem(0) to Mem(7): the short way round is also one hop.
        let p = topo.path(Endpoint::Mem(0), Endpoint::Mem(7)).unwrap();
        assert_eq!(p.len(), 3);
        // Antipodal pair: 4 inter-switch hops either way, tie broken
        // consistently (checked reversible above).
        let p = topo.path(Endpoint::Mem(0), Endpoint::Mem(4)).unwrap();
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn spec_builds_match_direct_constructors() {
        let spec = TopologySpec::LeafSpine {
            leaves: 2,
            spines: 2,
        };
        let topo = spec.build(2, 4);
        assert_eq!(topo.kind(), "leaf-spine");
        assert_eq!(topo.switches(), 4);
        assert!(spec.is_routed());
        assert!(!TopologySpec::Flat.is_routed());
        assert_eq!(topo.port_of(Endpoint::Cpu(1)), Some(1));
        assert_eq!(topo.port_of(Endpoint::Mem(2)), Some(0));
        assert_eq!(topo.port_of(Endpoint::Mem(9)), None);
    }
}
