//! Flattened (struct-of-arrays) network structure: ports, virtual channels
//! and compiled routing tables live in contiguous flat arrays indexed by
//! precomputed offsets, so the per-cycle engine loops walk linear memory
//! instead of chasing nested `Vec`s.
//!
//! Layout. Ports are numbered globally: router `r`'s input ports occupy
//! `in_port_off[r]..in_port_off[r+1]` (link ports in topology order, the
//! injection port last), and its output ports occupy
//! `out_port_off[r]..out_port_off[r+1]` (ejection last). Every port has the
//! same number of VCs `V`, so input VC `(port p, vc v)` lives at flat index
//! `p·V + v` and output VC state at `o·V + v`. The port construction order
//! (links in `topology.links()` order, the `a→b` direction before `b→a`)
//! fixes round-robin arbitration, and therefore every simulation
//! statistic.
//!
//! [`NetTables`] is immutable and shared behind an `Arc`: a rate ladder,
//! a Monte-Carlo seed batch, or a lockstep [`crate::BatchSimulator`] run
//! builds the tables once per topology and every replica — across worker
//! threads and batch lanes alike — reads them without copying. The dynamic
//! per-replica state lives in the engine ([`crate::batch`]).

use noc_routing::DorRouter;
use noc_topology::MeshTopology;

/// Sentinel for "no port/VC" in `u32` fields.
pub const NONE_U32: u32 = u32::MAX;

/// The immutable, per-topology part of the network: port offsets, link
/// wiring, spans, and the compiled DOR route table. Built once per
/// topology and shared read-only (behind an `Arc`) by every simulation
/// replica.
#[derive(Debug)]
pub struct NetTables {
    /// Mesh side length.
    pub side: usize,
    /// Number of routers.
    pub(crate) routers: usize,
    /// Virtual channels per port.
    pub(crate) vcs: usize,
    /// Input-port range per router (`routers + 1` entries; injection last).
    pub(crate) in_port_off: Vec<u32>,
    /// Output-port range per router (`routers + 1` entries; ejection last).
    pub(crate) out_port_off: Vec<u32>,
    /// Per input port: owning router.
    pub(crate) in_port_router: Vec<u32>,
    /// Per input port: flat output-VC base (`out_port · V`) credits return
    /// to upstream, or [`NONE_U32`] for injection ports.
    pub(crate) in_credit_base: Vec<u32>,
    /// Per output port: flat destination input port ([`NONE_U32`] for
    /// ejection).
    pub(crate) out_dst_port: Vec<u32>,
    /// Per output port: destination router ([`NONE_U32`] for ejection).
    pub(crate) out_dst_router: Vec<u32>,
    /// Per output port: link length in unit segments (0 for ejection).
    pub(crate) out_span: Vec<u32>,
    /// Compiled route table, `routers × routers`: local output port index
    /// at router `r` toward destination `d` at `r·routers + d` (self maps
    /// to the ejection port).
    pub(crate) route: Vec<u16>,
}

impl NetTables {
    /// Number of routers.
    pub fn routers_len(&self) -> usize {
        self.routers
    }

    /// Virtual channels per port.
    pub fn vcs_per_port(&self) -> usize {
        self.vcs
    }

    /// Longest link span of any output port (0 on an empty network).
    pub fn max_span(&self) -> usize {
        self.out_span.iter().copied().max().unwrap_or(0) as usize
    }

    /// Input ports of router `r` as a flat range (injection port last).
    fn input_ports(&self, r: usize) -> std::ops::Range<usize> {
        self.in_port_off[r] as usize..self.in_port_off[r + 1] as usize
    }

    /// Output ports of router `r` as a flat range (ejection port last).
    pub fn output_ports(&self, r: usize) -> std::ops::Range<usize> {
        self.out_port_off[r] as usize..self.out_port_off[r + 1] as usize
    }

    /// Flat index of router `r`'s injection input port.
    pub fn injection_port(&self, r: usize) -> usize {
        self.in_port_off[r + 1] as usize - 1
    }

    /// Flat index of router `r`'s ejection output port.
    pub fn ejection_port(&self, r: usize) -> usize {
        self.out_port_off[r + 1] as usize - 1
    }

    /// Destination router of a flat output port ([`NONE_U32`] for ejection).
    pub fn out_to_router(&self, port: usize) -> u32 {
        self.out_dst_router[port]
    }

    /// Link span of a flat output port.
    pub fn out_span(&self, port: usize) -> u32 {
        self.out_span[port]
    }

    /// Total input ports across all routers.
    pub fn total_inputs(&self) -> usize {
        self.in_port_off[self.routers] as usize
    }

    /// Total output ports across all routers.
    pub fn total_outputs(&self) -> usize {
        self.out_port_off[self.routers] as usize
    }

    /// Largest per-router output-port count.
    pub fn max_outputs(&self) -> usize {
        (0..self.routers)
            .map(|r| self.output_ports(r).len())
            .max()
            .unwrap_or(0)
    }

    /// Largest per-router input-VC count: the width, in bits, of the
    /// engine's per-router arbitration request masks.
    pub fn max_total_vcs(&self) -> usize {
        (0..self.routers)
            .map(|r| self.input_ports(r).len() * self.vcs)
            .max()
            .unwrap_or(0)
    }

    /// Builds the static tables for a topology: instantiates two directed
    /// port pairs per physical link and compiles per-router output-port
    /// tables from the DOR solve.
    pub fn build(topology: &MeshTopology, dor: &DorRouter, vcs: usize) -> Self {
        let n = topology.side();
        let routers = topology.routers();

        // Per-router port lists in construction order: links in
        // `topology.links()` order, the a→b direction before b→a, then the
        // injection/ejection ports. `usize::MAX` marks not-yet-known flat
        // indices resolved after flattening.
        struct InPort {
            upstream: Option<(usize, usize)>, // (router, local output port)
        }
        struct OutPort {
            to_router: usize,
            to_local_in: usize, // local input port index at to_router
            span: usize,
        }
        let mut inputs: Vec<Vec<InPort>> = (0..routers).map(|_| Vec::new()).collect();
        let mut outputs: Vec<Vec<OutPort>> = (0..routers).map(|_| Vec::new()).collect();
        // neighbour flat id -> local output port index, per router.
        let mut out_index: Vec<std::collections::HashMap<usize, usize>> =
            vec![std::collections::HashMap::new(); routers];

        for link in topology.links() {
            for (from, to) in [(link.a, link.b), (link.b, link.a)] {
                let dst_local = inputs[to].len();
                let src_local = outputs[from].len();
                inputs[to].push(InPort {
                    upstream: Some((from, src_local)),
                });
                outputs[from].push(OutPort {
                    to_router: to,
                    to_local_in: dst_local,
                    span: link.length,
                });
                out_index[from].insert(to, src_local);
            }
        }
        for r in 0..routers {
            inputs[r].push(InPort { upstream: None }); // injection
            outputs[r].push(OutPort {
                to_router: usize::MAX,
                to_local_in: usize::MAX,
                span: 0,
            }); // ejection
        }

        // Flatten: offsets first, then per-port arrays.
        let mut in_port_off = Vec::with_capacity(routers + 1);
        let mut out_port_off = Vec::with_capacity(routers + 1);
        in_port_off.push(0u32);
        out_port_off.push(0u32);
        for r in 0..routers {
            in_port_off.push(in_port_off[r] + inputs[r].len() as u32);
            out_port_off.push(out_port_off[r] + outputs[r].len() as u32);
        }
        let total_in: usize = in_port_off[routers] as usize;
        let total_out: usize = out_port_off[routers] as usize;

        let mut in_port_router = vec![0u32; total_in];
        let mut in_credit_base = vec![NONE_U32; total_in];
        let mut out_dst_port = vec![NONE_U32; total_out];
        let mut out_dst_router = vec![NONE_U32; total_out];
        let mut out_span = vec![0u32; total_out];
        for r in 0..routers {
            for (local, port) in inputs[r].iter().enumerate() {
                let flat = in_port_off[r] as usize + local;
                in_port_router[flat] = r as u32;
                if let Some((up_router, up_local)) = port.upstream {
                    let up_flat = out_port_off[up_router] as usize + up_local;
                    in_credit_base[flat] = (up_flat * vcs) as u32;
                }
            }
            for (local, port) in outputs[r].iter().enumerate() {
                let flat = out_port_off[r] as usize + local;
                out_span[flat] = port.span as u32;
                if port.to_router != usize::MAX {
                    out_dst_router[flat] = port.to_router as u32;
                    out_dst_port[flat] = in_port_off[port.to_router] + port.to_local_in as u32;
                }
            }
        }

        // Compile the route tables: next hop per destination via DOR.
        let mut route = vec![0u16; routers * routers];
        for r in 0..routers {
            let (rx, ry) = (r % n, r / n);
            let ejection_local = outputs[r].len() - 1;
            for d in 0..routers {
                route[r * routers + d] = if d == r {
                    ejection_local as u16
                } else {
                    let (dx, dy) = (d % n, d / n);
                    let next = if dx != rx {
                        let nx = dor
                            .row_apsp(ry)
                            .next_hop(rx, dx)
                            .expect("row next hop exists");
                        ry * n + nx
                    } else {
                        let ny = dor
                            .col_apsp(rx)
                            .next_hop(ry, dy)
                            .expect("col next hop exists");
                        ny * n + rx
                    };
                    out_index[r][&next] as u16
                };
            }
        }

        NetTables {
            side: n,
            routers,
            vcs,
            in_port_off,
            out_port_off,
            in_port_router,
            in_credit_base,
            out_dst_port,
            out_dst_router,
            out_span,
            route,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_routing::HopWeights;
    use noc_topology::RowPlacement;

    fn build(topo: &MeshTopology) -> NetTables {
        let dor = DorRouter::new(topo, HopWeights::PAPER);
        NetTables::build(topo, &dor, 2)
    }

    /// Local output port toward `dst` at router `r`, as a flat port.
    fn route_port(net: &NetTables, r: usize, dst: usize) -> usize {
        net.output_ports(r).start + net.route[r * net.routers + dst] as usize
    }

    #[test]
    fn mesh_port_counts() {
        let net = build(&MeshTopology::mesh(4));
        // Corner router: 2 link inputs + injection, 2 link outputs + ejection.
        assert_eq!(net.input_ports(0).len(), 3);
        assert_eq!(net.output_ports(0).len(), 3);
        // Centre router (1,1): 4 + 1 each way.
        assert_eq!(net.input_ports(5).len(), 5);
        assert_eq!(net.output_ports(5).len(), 5);
        // Directed channels: 2 per bidirectional link; 24 links on 4x4.
        let link_outs: usize = (0..16).map(|r| net.output_ports(r).len() - 1).sum();
        assert_eq!(link_outs, 48);
        assert_eq!(net.max_total_vcs(), 5 * 2);
    }

    #[test]
    fn express_topology_gets_extra_ports() {
        let row = RowPlacement::with_links(4, [(0, 3)]).unwrap();
        let net = build(&MeshTopology::uniform(4, &row));
        // Corner (0,0): row links to 1 and 3, col links to 4 and 12,
        // + injection = 5 inputs.
        assert_eq!(net.input_ports(0).len(), 5);
    }

    #[test]
    fn star_hub_is_the_widest_router() {
        // Row links (0,k) for every k make router 0 a hub: 2(n-1) link
        // inputs + injection, far beyond one 64-bit request word.
        let links: Vec<_> = (2..32).map(|k| (0, k)).collect();
        let row = RowPlacement::with_links(32, links).unwrap();
        let net = build(&MeshTopology::uniform(32, &row));
        assert_eq!(net.input_ports(0).len(), 63);
        assert_eq!(net.max_total_vcs(), 126);
    }

    #[test]
    fn route_tables_point_dimension_order() {
        let net = build(&MeshTopology::mesh(4));
        // Destination 0 (self) -> ejection.
        assert_eq!(route_port(&net, 0, 0), net.ejection_port(0));
        // Destination (2,0) = id 2: X first -> port toward router 1.
        assert_eq!(net.out_to_router(route_port(&net, 0, 2)), 1);
        // Destination (0,2) = id 8: same column -> toward router 4.
        assert_eq!(net.out_to_router(route_port(&net, 0, 8)), 4);
        // Destination (1,1) = id 5: X first.
        assert_eq!(net.out_to_router(route_port(&net, 0, 5)), 1);
    }

    #[test]
    fn express_route_table_uses_long_links() {
        let row = RowPlacement::with_links(8, [(0, 7)]).unwrap();
        let net = build(&MeshTopology::uniform(8, &row));
        // From (0,0) to (7,0): the direct express link.
        let p = route_port(&net, 0, 7);
        assert_eq!(net.out_to_router(p), 7);
        assert_eq!(net.out_span(p), 7);
        assert_eq!(net.max_span(), 7);
    }

    #[test]
    fn port_wiring_is_consistent() {
        let row = RowPlacement::with_links(4, [(1, 3)]).unwrap();
        let net = build(&MeshTopology::uniform(4, &row));
        for r in 0..net.routers_len() {
            for o in net.output_ports(r) {
                if o == net.ejection_port(r) {
                    assert_eq!(net.out_dst_port[o], NONE_U32);
                    continue;
                }
                // The destination input port's credit base points back here.
                let dst_port = net.out_dst_port[o] as usize;
                assert_eq!(
                    net.in_credit_base[dst_port] as usize,
                    o * net.vcs_per_port()
                );
                assert_eq!(
                    net.in_port_router[dst_port] as usize,
                    net.out_to_router(o) as usize
                );
            }
            // Injection ports return no credits.
            assert_eq!(net.in_credit_base[net.injection_port(r)], NONE_U32);
        }
    }
}
