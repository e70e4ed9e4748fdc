//! The cycle-level engine: K replicas of one topology simulated in
//! lockstep. A single run is a batch of one — [`Simulator`](crate::Simulator)
//! is a one-lane [`BatchSimulator`].
//!
//! Each cycle executes, in order: credit returns, link arrivals (BW),
//! injection, then one merged RC + VA + SA/ST pass per router. The stage
//! gating reproduces the 3-stage pipeline timing: a flit buffer-written at
//! cycle `t` may be VC-allocated at `t+1` and switch-traverse at `t+2`; a
//! flit issued at `u` lands in the downstream buffer at `u + 1 + span`,
//! making an uncontended hop cost exactly `T_r + span·T_l = 3 + span`
//! cycles buffer-to-buffer.
//!
//! A rate ladder, a Monte-Carlo seed batch, or a homogeneous scenario
//! expansion simulates the *same* network K times with different injection
//! rates/seeds. [`BatchSimulator`] runs those replicas as K contiguous
//! *lanes* of one widened struct-of-arrays state: every per-VC/per-port
//! array holds K per-replica entries back to back (`array[g·K + lane]`),
//! so the per-cycle arbitration scans walk all replicas of a router in one
//! linear pass and the eligibility/request conditions evaluate branch-free
//! across lanes (bit-parallel `u64` lane masks; portable, no unstable
//! SIMD). Per-router request masks hold one bit per input VC and are sized
//! from [`NetTables::max_total_vcs`] when the engine is built, so a hub
//! router with more than 64 input VCs takes the same code path as a mesh
//! router.
//!
//! The arbitration pass visits only state that holds work. Three derived
//! occupancy masks (`Occupancy`) track which lanes of each input VC,
//! which input VCs of each router, and which routers hold a flit; they
//! change only where a VC's length crosses zero (a push into an empty VC,
//! a pop of its last flit). The pass walks occupied routers in ascending
//! order, their occupied VCs in ascending order, and then only the output
//! ports that received a VA or SA request. Skipping is exact: every
//! RC/VA/SA predicate needs a front flit and the head/eligibility masks
//! are clear on an empty VC, so a skipped VC cannot request, win, or move
//! a round-robin pointer, and ascending order keeps every pointer update,
//! the one-winner-per-input rule and the arrival-wheel push order of a
//! full scan.
//!
//! Two layout choices keep the lockstep pass memory-lean:
//!
//! - Flits are packed into one `u64` word (`packet | seq/tail | dst`), so a
//!   buffer push or pop moves two words (flit + eligibility), and the
//!   route/output-VC pair shares one `u32` (`vc_rov`) so the hot
//!   arbitration predicates test a single load.
//! - Per-replica side state — activity counters, the credit-return wheel,
//!   the link-arrival wheel — is flattened into shared lane-major arrays.
//!   The updates are commutative across lanes and each lane's own event
//!   order is preserved, so the per-lane observable sequence is untouched
//!   while K replicas share cache lines instead of chasing K separate
//!   heaps.
//!
//! Replicas stay fully independent: each lane owns its packet source (a
//! workload with its RNG stream, or a trace with its replay cursor),
//! packet ledger, statistics accumulators, and warmup/measure/drain
//! windows. Lanes that finish early are *masked out* of the lane word
//! rather than branching the loop — the shared scans may still read a
//! finished lane's arrays, but every write is gated on the live mask, so a
//! dead lane is inert. A lane's arbitration decisions, RNG draws, and
//! event-wheel pushes therefore never depend on its neighbours: every
//! lane's [`SimStats`] equals a one-lane run of the same (source, config).
//! The golden fingerprints in `tests/golden.rs` are the reference.

use crate::config::SimConfig;
use crate::flit::{Flit, PacketRecord, PENDING};
use crate::network::{NetTables, NONE_U32};
use crate::stats::{ActivityCounters, SimStats};
use noc_model::fingerprint::Fnv1a;
use noc_rng::rngs::SmallRng;
use noc_rng::SeedableRng;
use noc_routing::DorRouter;
use noc_snapshot::{Reader, SnapshotError, Writer};
use noc_topology::MeshTopology;
use noc_traffic::{Trace, Workload};
use std::collections::VecDeque;
use std::sync::Arc;

/// Maximum replicas per lockstep pass: the live/measure masks are single
/// `u64` lane words.
pub const MAX_LANES: usize = 64;

/// Snapshot kind tag for [`BatchSimulator`] snapshots.
pub const BATCH_KIND: &str = "sim-batch";

/// Longest packet the engine carries, in flits. The packed flit word keeps
/// 15 bits of sequence number, so flit 32,768 of a longer packet would wrap
/// to sequence 0 and be read as a second head at ejection.
pub const MAX_PACKET_FLITS: u32 = 1 << 15;

/// Order-sensitive FNV-1a fingerprint of a workload: matrix side and rates,
/// injection rate, and the packet-size mix. Used to pair a snapshot with the
/// workload it must be resumed under.
pub fn workload_fingerprint(w: &Workload) -> u64 {
    let mut fp = Fnv1a::with_tag("sim-workload");
    fp.write_u64(w.matrix().side() as u64);
    for &rate in w.matrix().as_slice() {
        fp.write_f64(rate);
    }
    fp.write_f64(w.injection_rate());
    for class in w.mix().classes() {
        fp.write_u32(class.bits);
        fp.write_f64(class.fraction);
    }
    fp.finish()
}

/// Order-sensitive FNV-1a fingerprint of a recorded trace (side and every
/// injection event). Used to pair a snapshot with its replay source.
pub fn trace_fingerprint(trace: &Trace) -> u64 {
    let mut fp = Fnv1a::with_tag("sim-trace");
    fp.write_u64(trace.side() as u64);
    fp.write_u64(trace.events().len() as u64);
    for e in trace.events() {
        fp.write_u64(e.cycle);
        fp.write_u64(e.src as u64);
        fp.write_u64(e.dst as u64);
        fp.write_u32(e.bits);
    }
    fp.finish()
}

/// Where a lane's packets come from: a stochastic workload or a recorded
/// trace replayed cycle-exactly from a cursor.
pub(crate) enum Source {
    Workload(Workload),
    Trace { trace: Trace, next: usize },
}

impl Source {
    /// Matrix or trace side length.
    fn side(&self) -> usize {
        match self {
            Source::Workload(w) => w.matrix().side(),
            Source::Trace { trace, .. } => trace.side(),
        }
    }

    /// The offered rate reported in [`SimStats::offered_rate`].
    fn offered_rate(&self) -> f64 {
        match self {
            Source::Workload(w) => w.injection_rate(),
            Source::Trace { trace, .. } => trace.mean_rate(),
        }
    }

    /// Snapshot identity: `(tag, fingerprint, cursor)`.
    fn identity(&self) -> (u8, u64, u64) {
        match self {
            Source::Workload(w) => (0, workload_fingerprint(w), 0),
            Source::Trace { trace, next } => (1, trace_fingerprint(trace), *next as u64),
        }
    }

    /// Size in bits of the largest packet this source can inject: the
    /// mix's largest class, or the trace's largest event.
    fn max_packet_bits(&self) -> u32 {
        let largest = match self {
            Source::Workload(w) => w.mix().classes().iter().map(|c| c.bits).max(),
            Source::Trace { trace, .. } => trace.events().iter().map(|e| e.bits).max(),
        };
        largest.unwrap_or(0)
    }
}

/// Derived occupancy masks over `vc_len` (see the module docs). They change
/// only where a VC's length crosses zero, and are never serialized: a
/// restore rebuilds them with [`Occupancy::of`].
#[derive(Debug, PartialEq, Eq)]
struct Occupancy {
    /// Words per router mask, shared with the request masks: one bit per
    /// input VC of the widest router (`max_total_vcs` rounded up to whole
    /// `u64`s).
    words: usize,
    /// Per input-VC group `g`: bit `l` set iff lane `l`'s VC holds a flit.
    lanes: Vec<u64>,
    /// Per router, `r·words + word`: bit `idx` set iff local input VC `idx`
    /// holds a flit in any lane.
    vcs: Vec<u64>,
    /// One bit per router (`r / 64`, bit `r % 64`): any input VC holds a
    /// flit in any lane.
    routers: Vec<u64>,
}

impl Occupancy {
    /// The masks of a lane-major `vc_len` array (`g·k + lane`).
    fn of(tables: &NetTables, k: usize, words: usize, vc_len: &[u32]) -> Self {
        let mut occ = Occupancy {
            words,
            lanes: vec![0; tables.total_inputs() * tables.vcs],
            vcs: vec![0; tables.routers * words],
            routers: vec![0; tables.routers.div_ceil(64)],
        };
        for r in 0..tables.routers {
            let base = tables.in_port_off[r] as usize * tables.vcs;
            let hi = tables.in_port_off[r + 1] as usize * tables.vcs;
            for g in base..hi {
                for l in 0..k {
                    if vc_len[g * k + l] > 0 {
                        occ.fill(g, l, r, g - base);
                    }
                }
            }
        }
        occ
    }

    /// Lane `l` of input VC group `g` — local VC `idx` of router `r` —
    /// received its first flit. The router bits change only when no other
    /// lane of the group held one.
    #[inline(always)]
    fn fill(&mut self, g: usize, l: usize, r: usize, idx: usize) {
        let others = self.lanes[g];
        self.lanes[g] = others | 1 << l;
        if others == 0 {
            self.vcs[r * self.words + (idx >> 6)] |= 1 << (idx & 63);
            self.routers[r >> 6] |= 1 << (r & 63);
        }
    }

    /// Lane `l` of input VC group `g` — local VC `idx` of router `r` —
    /// popped its last flit.
    #[inline(always)]
    fn drain(&mut self, g: usize, l: usize, r: usize, idx: usize) {
        self.lanes[g] &= !(1 << l);
        if self.lanes[g] != 0 {
            return;
        }
        let row = &mut self.vcs[r * self.words..(r + 1) * self.words];
        row[idx >> 6] &= !(1 << (idx & 63));
        if row.iter().all(|&w| w == 0) {
            self.routers[r >> 6] &= !(1 << (r & 63));
        }
    }
}

/// Packed-flit word layout: `packet` in bits 0..32, `seq` in bits 32..47,
/// `tail` at bit 47, `dst` in bits 48..64. The sequence field is 15 bits —
/// one less than [`Flit::seq`] — which holds every packet of up to
/// [`MAX_PACKET_FLITS`] flits; the constructors reject longer packets.
const SEQ_SHIFT: u32 = 32;
const SEQ_BITS: u64 = 0x7FFF << SEQ_SHIFT;
const TAIL_BIT: u64 = 1 << 47;
const DST_SHIFT: u32 = 48;
/// Front-word sentinel for an empty VC: a non-head sequence value, so every
/// head-gated predicate fails without a separate emptiness test.
const FRONT_EMPTY: u64 = 1 << SEQ_SHIFT;

/// Packed route/output-VC pair: route in bits 0..16, allocated output VC in
/// bits 16..32, `0xFFFF` halves meaning "none".
const ROV_NONE: u32 = 0xFFFF_FFFF;
const ROV_ROUTE: u32 = 0x0000_FFFF;

#[inline(always)]
fn pack_flit(f: Flit) -> u64 {
    f.packet as u64
        | (((f.seq as u64) & 0x7FFF) << SEQ_SHIFT)
        | ((f.tail as u64) << 47)
        | ((f.dst as u64) << DST_SHIFT)
}

#[inline(always)]
fn word_is_head(w: u64) -> bool {
    w & SEQ_BITS == 0
}

#[inline(always)]
fn word_is_tail(w: u64) -> bool {
    w & TAIL_BIT != 0
}

#[inline(always)]
fn word_packet(w: u64) -> u32 {
    w as u32
}

#[inline(always)]
fn word_dst(w: u64) -> u16 {
    (w >> DST_SHIFT) as u16
}

/// A flit in flight on a link, parked in the shared event wheel until its
/// arrival cycle.
#[derive(Debug, Clone, Copy)]
struct ArrivalEvent {
    /// Destination flat input port.
    port: u32,
    /// Destination VC (the allocated downstream VC).
    vc: u16,
    /// Owning replica.
    lane: u16,
    /// Packed flit word.
    word: u64,
}

/// Per-replica state that never crosses lanes.
struct Lane {
    source: Source,
    config: SimConfig,
    rng: SmallRng,
    packets: Vec<PacketRecord>,
    latencies: Vec<u32>,
    /// End of this lane's measure window (`warmup + measure`).
    window_end: u64,
    /// This lane's drain deadline (`window_end + drain_cycles_max`).
    hard_end: u64,
    measured_total: u64,
    completed_measured: u64,
    latency_sum: u64,
    head_latency_sum: u64,
    max_latency: u64,
    flit_sum: u64,
    ejected_in_window: u64,
    /// Number of occupancy samples taken (telemetry only).
    occ_samples: u64,
    /// Set when the lane terminates; the run result in lane order.
    stats: Option<SimStats>,
}

impl Lane {
    #[inline]
    fn in_measure(&self, t: u64) -> bool {
        t >= self.config.warmup_cycles && t < self.window_end
    }
}

/// K lockstep replicas of one topology (see the module docs).
pub struct BatchSimulator {
    tables: Arc<NetTables>,
    k: usize,
    lanes: Vec<Lane>,
    /// Bitmask of lanes still running.
    live: u64,
    /// Bitmask of live lanes inside their measure window this cycle.
    measure_mask: u64,
    cycle: u64,
    horizon: u64,
    trace_on: bool,
    /// Σ over executed cycles of (K − live lanes): lockstep slots spent on
    /// already-finished replicas.
    masked_cycles: u64,
    // ---- lane-major dynamic network state ----
    // Input VC `g`, lane `l` → `g·K + l`; output VC `(o,v)` → `(o·V+v)·K+l`;
    // output port `o` → `o·K + l`; router `r` → `r·K + l`.
    vc_buf: Vec<VecDeque<(u64, u32)>>,
    /// Flat ring storage for *network* VC queues (bounded by credit flow to
    /// `depth - 1` entries behind the front flit): slot `gi·D + pos`.
    /// Injection VCs are unbounded NI queues and stay on [`Self::vc_buf`];
    /// `ring_depth == 0` disables the ring (pathological depths) and falls
    /// back to deques everywhere.
    ring: Vec<(u64, u32)>,
    ring_head: Vec<u8>,
    ring_depth: usize,
    /// Packed front-flit word; empty VCs hold [`FRONT_EMPTY`].
    front_word: Vec<u64>,
    vc_len: Vec<u32>,
    /// Packed (route, output VC) per input VC; see [`ROV_NONE`].
    vc_rov: Vec<u32>,
    // ---- per-group lane masks ----
    // Indexed by flat input VC `g`, bit `l` = lane `l`. Each mirrors one
    // per-VC predicate so the arbitration scan is a handful of u64 ops per
    // VC group instead of per-lane loops (which LLVM refuses to vectorize).
    // They are maintained event-driven at exactly the points the underlying
    // state changes: RC, VA grant, SA pop, queue push.
    /// Route half of [`Self::vc_rov`] is still NONE.
    grp_unrouted: Vec<u64>,
    /// Output-VC half of [`Self::vc_rov`] is still NONE.
    grp_noovc: Vec<u64>,
    /// The VC's front flit exists and is a head.
    grp_head: Vec<u64>,
    /// Front flit is link-eligible this cycle (`eg ≤ t`). A VA grant at `t`
    /// clears the bit and reschedules `t + 1`: heads wait a cycle after
    /// allocation, so the wait folds into eligibility and no separate
    /// `va_done` state is needed.
    grp_e0: Vec<u64>,
    /// Front flit is link-eligible next cycle (`eg ≤ t + 1`), the VA view.
    grp_e1: Vec<u64>,
    /// Per flat output VC: no owning packet (free for VA).
    ovc_free: Vec<u64>,
    /// Eligibility schedule: `(g << 6) | lane` entries land in slot
    /// `c & 3` to set the group bits when cycle `c` comes around — slot
    /// `c` is applied to [`Self::grp_e1`] at `c - 1` and to
    /// [`Self::grp_e0`] (then drained) at `c`. Eligibilities are at most
    /// 2 cycles out, so 4 slots never collide.
    elig_wheel: [Vec<u32>; 4],
    ovc_credits: Vec<u32>,
    out_va_rr: Vec<u32>,
    out_sa_rr: Vec<u32>,
    /// Derived occupancy masks over [`Self::vc_len`]; never serialized.
    /// Its `words` is also the request-mask width.
    occ: Occupancy,
    /// VA request masks, `((local output port)·K + lane)·words + word`,
    /// rebuilt per router.
    req: Vec<u64>,
    /// SA request masks, same layout. Kept separate from `req` because VA
    /// consumes its masks while SA's are built in the same first pass: a
    /// same-cycle VA grant never makes a VC switch-ready (heads wait a
    /// cycle), so the SA-ready set is fully known before VA runs.
    req_sa: Vec<u64>,
    /// Per-lane used-input-VC masks for the one-winner-per-input-port rule,
    /// `lane·words + word`.
    used_vcs: Vec<u64>,
    /// Lanes with a non-empty VA (`wantnz`) / SA (`rdynz`) request word per
    /// local output port, maintained by the scatter passes. They replace
    /// per-port lane scans and let the request arrays be cleared
    /// surgically (only touched words) instead of memset per router.
    wantnz: Vec<u64>,
    rdynz: Vec<u64>,
    /// Local output ports with a non-empty `wantnz` / `rdynz` entry, one
    /// bit per port in `max_outputs` rounded up to whole `u64`s, so VA and
    /// SA visit only ports that got a request.
    va_ports: Vec<u64>,
    sa_ports: Vec<u64>,
    /// `pick → (input port, VC)` split, avoiding a hardware divide in the
    /// winner bodies (`vcs` is runtime-valued).
    pick_iv: Vec<(u16, u16)>,
    /// Activity counters, `router·K + lane` (lane-major so the K replicas
    /// of a busy router share cache lines).
    activity: Vec<ActivityCounters>,
    /// Shared credit-return wheel (1-cycle wire delay): entries are
    /// `flat output VC · K + lane` — credit application is commutative
    /// across lanes and per-lane push order is preserved.
    credit_wheel: [Vec<u32>; 2],
    /// Shared link-arrival wheel; bucket `t % horizon` holds cycle-`t`
    /// arrivals of every lane (per-lane arrival order is preserved).
    arrivals: Vec<Vec<ArrivalEvent>>,
    /// Injection scratch, reused across lanes.
    pending: Vec<(u32, u32, u32)>,
    /// Telemetry accumulators, `output·K + lane` / `router·K + lane`
    /// (empty when tracing is off).
    link_flits: Vec<u64>,
    occ_sum: Vec<u64>,
}

/// Pushes a packed flit word into VC `v` of flat input port `port`, lane
/// `l` (free function so the inject/arrival paths can call it under split
/// borrows). `ring_depth > 0` routes the queue tail to the flat ring
/// (network VCs); `0` keeps it on the per-VC deque (injection VCs, or ring
/// disabled). Always inlined: it runs once per flit push, and as a call
/// most of its arguments would travel through the stack.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn push_word_at(
    tables: &NetTables,
    k: usize,
    vc_buf: &mut [VecDeque<(u64, u32)>],
    ring: &mut [(u64, u32)],
    ring_head: &[u8],
    ring_depth: usize,
    front_word: &mut [u64],
    grp_head: &mut [u64],
    elig_slot: &mut Vec<u32>,
    vc_len: &mut [u32],
    occ: &mut Occupancy,
    port: usize,
    v: usize,
    l: usize,
    word: u64,
    eligible: u32,
) {
    let g = port * tables.vcs + v;
    let gi = g * k + l;
    if vc_len[gi] == 0 {
        let r = tables.in_port_router[port] as usize;
        occ.fill(g, l, r, g - tables.in_port_off[r] as usize * tables.vcs);
        front_word[gi] = word;
        // The VC was empty, so its head/eligibility bits are clear; the
        // new front becomes eligible 2 cycles out via the wheel.
        grp_head[g] |= (word_is_head(word) as u64) << l;
        elig_slot.push(((g as u32) << 6) | l as u32);
    } else if ring_depth > 0 {
        let qlen = vc_len[gi] as usize - 1;
        let mut pos = ring_head[gi] as usize + qlen;
        if pos >= ring_depth {
            pos -= ring_depth;
        }
        ring[gi * ring_depth + pos] = (word, eligible);
    } else {
        vc_buf[gi].push_back((word, eligible));
    }
    vc_len[gi] += 1;
}

/// The round-robin pick over a multi-word request mask: the first set bit
/// at or after bit `start`, else the lowest set bit; `None` when `m` is
/// empty.
#[inline(always)]
fn wrapped_first(m: &[u64], start: usize) -> Option<usize> {
    let sw = start >> 6;
    let at_or_after = m[sw] & (u64::MAX << (start & 63));
    if at_or_after != 0 {
        return Some(sw * 64 + at_or_after.trailing_zeros() as usize);
    }
    for (i, &w) in m.iter().enumerate().skip(sw + 1) {
        if w != 0 {
            return Some(i * 64 + w.trailing_zeros() as usize);
        }
    }
    for (i, &w) in m[..=sw].iter().enumerate() {
        if w != 0 {
            return Some(i * 64 + w.trailing_zeros() as usize);
        }
    }
    None
}

/// Sets bits `lo..lo + len` of the multi-word mask `m`.
#[inline(always)]
fn set_bits(m: &mut [u64], mut lo: usize, mut len: usize) {
    while len > 0 {
        let b = lo & 63;
        let n = len.min(64 - b);
        m[lo >> 6] |= (u64::MAX >> (64 - n)) << b;
        lo += n;
        len -= n;
    }
}

impl BatchSimulator {
    /// Builds a lockstep batch over one topology. All replicas must share
    /// the topology's structural parameters (VC count, hop weights — they
    /// select the shared route tables); seeds, rates, workloads, flit
    /// widths, buffer depths, and window lengths vary freely per lane.
    ///
    /// # Panics
    /// Panics if a lane's largest packet would exceed
    /// [`MAX_PACKET_FLITS`] flits at its flit width.
    pub fn new(topology: &MeshTopology, replicas: Vec<(Workload, SimConfig)>) -> Self {
        assert!(!replicas.is_empty(), "batch needs at least one replica");
        let first = replicas[0].1;
        let dor = DorRouter::new(topology, first.weights);
        let tables = Arc::new(NetTables::build(topology, &dor, first.vcs_per_port));
        Self::with_tables(tables, replicas)
    }

    /// Builds a lockstep batch over pre-built shared tables (one
    /// [`NetTables::build`] per topology, shared read-only across lanes
    /// and worker threads).
    pub fn with_tables(tables: Arc<NetTables>, replicas: Vec<(Workload, SimConfig)>) -> Self {
        let replicas = replicas
            .into_iter()
            .map(|(workload, config)| (Source::Workload(workload), config))
            .collect();
        Self::with_sources(tables, replicas)
    }

    /// Builds a lockstep batch over per-lane packet sources (workloads or
    /// recorded traces).
    pub(crate) fn with_sources(tables: Arc<NetTables>, replicas: Vec<(Source, SimConfig)>) -> Self {
        let k = replicas.len();
        assert!(
            (1..=MAX_LANES).contains(&k),
            "a batch runs 1..={MAX_LANES} replicas, not {k}"
        );
        let first = replicas[0].1;
        for (source, config) in &replicas {
            assert_eq!(
                source.side(),
                tables.side,
                "workload and topology sizes must match"
            );
            assert_eq!(
                config.vcs_per_port, tables.vcs,
                "all lanes must share the tables' VC count"
            );
            assert_eq!(
                config.weights, first.weights,
                "all lanes must share the tables' hop weights"
            );
            let bits = source.max_packet_bits();
            let flits = bits.div_ceil(config.flit_bits).max(1);
            assert!(
                flits <= MAX_PACKET_FLITS,
                "a {bits}-bit packet is {flits} flits of {} bits, over the \
                 {MAX_PACKET_FLITS}-flit packet limit",
                config.flit_bits
            );
        }

        let routers = tables.routers;
        let vcs = tables.vcs;
        let total_in_vcs = tables.total_inputs() * vcs;
        let total_out_vcs = tables.total_outputs() * vcs;
        let total_outputs = tables.total_outputs();
        let horizon = tables.max_span() as u64 + 2;
        let max_outputs = tables.max_outputs();
        let trace_on = noc_trace::enabled();

        // Per-lane credits: depth everywhere except ejection (infinite).
        let mut ovc_credits = vec![0u32; total_out_vcs * k];
        for (l, (_, config)) in replicas.iter().enumerate() {
            let depth = config.buffer_flits_per_vc as u32;
            for ov in 0..total_out_vcs {
                ovc_credits[ov * k + l] = depth;
            }
            for r in 0..routers {
                let ej = tables.ejection_port(r);
                for v in 0..vcs {
                    ovc_credits[(ej * vcs + v) * k + l] = u32::MAX / 2;
                }
            }
        }

        let lanes: Vec<Lane> = replicas
            .into_iter()
            .map(|(source, config)| {
                let (expect_packets, expect_latencies) = match &source {
                    Source::Workload(workload) => {
                        let per_cycle = workload.injection_rate() * routers as f64;
                        let window = (config.warmup_cycles + config.measure_cycles) as f64;
                        let expect = (per_cycle * window).ceil() as usize;
                        let measured = (per_cycle * config.measure_cycles as f64).ceil() as usize;
                        (expect + expect / 8 + 64, measured + measured / 8 + 16)
                    }
                    Source::Trace { trace, .. } => (trace.events().len(), trace.events().len()),
                };
                let window_end = config.warmup_cycles + config.measure_cycles;
                Lane {
                    rng: SmallRng::seed_from_u64(config.seed),
                    packets: Vec::with_capacity(expect_packets),
                    latencies: Vec::with_capacity(expect_latencies),
                    window_end,
                    hard_end: window_end + config.drain_cycles_max,
                    measured_total: 0,
                    completed_measured: 0,
                    latency_sum: 0,
                    head_latency_sum: 0,
                    max_latency: 0,
                    flit_sum: 0,
                    ejected_in_window: 0,
                    occ_samples: 0,
                    stats: None,
                    source,
                    config,
                }
            })
            .collect();

        let live = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
        let max_depth = lanes
            .iter()
            .map(|lane| lane.config.buffer_flits_per_vc)
            .max()
            .unwrap_or(0);
        let ring_depth = if (1..=64).contains(&max_depth) {
            max_depth
        } else {
            0
        };
        let max_total_vcs = tables.max_total_vcs();
        let words = max_total_vcs.div_ceil(64).max(1);
        let port_words = max_outputs.div_ceil(64).max(1);
        let vc_len = vec![0u32; total_in_vcs * k];
        let occ = Occupancy::of(&tables, k, words, &vc_len);
        let pick_iv = (0..max_total_vcs)
            .map(|p| ((p / vcs) as u16, (p % vcs) as u16))
            .collect();
        BatchSimulator {
            tables,
            k,
            lanes,
            live,
            measure_mask: 0,
            cycle: 0,
            horizon,
            trace_on,
            masked_cycles: 0,
            vc_buf: (0..total_in_vcs * k).map(|_| VecDeque::new()).collect(),
            ring: if ring_depth > 0 {
                vec![(0, 0); total_in_vcs * k * ring_depth]
            } else {
                Vec::new()
            },
            ring_head: if ring_depth > 0 {
                vec![0; total_in_vcs * k]
            } else {
                Vec::new()
            },
            ring_depth,
            front_word: vec![FRONT_EMPTY; total_in_vcs * k],
            vc_len,
            vc_rov: vec![ROV_NONE; total_in_vcs * k],
            grp_unrouted: vec![u64::MAX; total_in_vcs],
            grp_noovc: vec![u64::MAX; total_in_vcs],
            grp_head: vec![0u64; total_in_vcs],
            grp_e0: vec![0u64; total_in_vcs],
            grp_e1: vec![0u64; total_in_vcs],
            ovc_free: vec![u64::MAX; total_out_vcs],
            elig_wheel: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
            ovc_credits,
            out_va_rr: vec![0u32; total_outputs * k],
            out_sa_rr: vec![0u32; total_outputs * k],
            occ,
            req: vec![0u64; max_outputs * k * words],
            req_sa: vec![0u64; max_outputs * k * words],
            used_vcs: vec![0u64; k * words],
            wantnz: vec![0u64; max_outputs],
            rdynz: vec![0u64; max_outputs],
            va_ports: vec![0u64; port_words],
            sa_ports: vec![0u64; port_words],
            pick_iv,
            activity: vec![ActivityCounters::default(); routers * k],
            credit_wheel: [Vec::new(), Vec::new()],
            arrivals: vec![Vec::new(); horizon as usize],
            pending: Vec::new(),
            link_flits: if trace_on {
                vec![0; total_outputs * k]
            } else {
                Vec::new()
            },
            occ_sum: if trace_on {
                vec![0; routers * k]
            } else {
                Vec::new()
            },
        }
    }

    /// Replica count.
    pub fn lanes(&self) -> usize {
        self.k
    }

    /// Runs every lane to completion and returns per-replica statistics in
    /// lane order, each equal to a one-lane run of the same replica.
    pub fn run(mut self) -> Vec<SimStats> {
        let k = self.k as u64;
        let hist = if self.trace_on {
            noc_trace::sink().map(|sink| {
                let reg = sink.registry();
                reg.counter("sim.batch.runs").add(1);
                reg.counter("sim.batch.lanes").add(k);
                reg.histogram("sim.batch.lane_occupancy")
            })
        } else {
            None
        };

        while self.live != 0 {
            let alive = self.live.count_ones() as u64;
            self.masked_cycles += k - alive;
            if let Some(h) = &hist {
                h.record(alive);
            }
            self.step();
            self.retire_finished();
        }
        if self.trace_on {
            if let Some(sink) = noc_trace::sink() {
                sink.registry()
                    .counter("sim.batch.masked_cycles")
                    .add(self.masked_cycles);
            }
            for l in 0..self.k {
                let stats = self.lanes[l].stats.take().expect("lane finished");
                self.emit_trace(l, &stats);
                self.lanes[l].stats = Some(stats);
            }
        }
        self.lanes
            .into_iter()
            .map(|lane| lane.stats.expect("lane finished"))
            .collect()
    }

    /// Runs until the shared cycle counter reaches `target_cycle` or every
    /// lane has finished, whichever comes first; returns whether the whole
    /// batch is done. Stepping in chunks (including across a
    /// [`BatchSimulator::snapshot`]/restore boundary) then calling
    /// [`BatchSimulator::run`] yields per-lane statistics bit-identical to
    /// an uninterrupted [`BatchSimulator::run`].
    pub fn run_until(&mut self, target_cycle: u64) -> bool {
        let k = self.k as u64;
        let hist = if self.trace_on {
            noc_trace::sink().map(|sink| sink.registry().histogram("sim.batch.lane_occupancy"))
        } else {
            None
        };
        while self.live != 0 && self.cycle < target_cycle {
            let alive = self.live.count_ones() as u64;
            self.masked_cycles += k - alive;
            if let Some(h) = &hist {
                h.record(alive);
            }
            self.step();
            self.retire_finished();
        }
        self.live == 0
    }

    /// Current lockstep cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Lane `l`'s terminal verdict: `Some(drained)` once it has finished.
    pub(crate) fn lane_verdict(&self, l: usize) -> Option<bool> {
        self.lanes[l].stats.as_ref().map(|s| s.drained)
    }

    /// Rolling FNV-1a digest of the complete dynamic batch state (all K
    /// lanes) at the current cycle boundary: the digest of the serialized
    /// snapshot, so a snapshot/restore round trip preserves it exactly.
    pub fn state_hash(&self) -> u64 {
        let mut fp = Fnv1a::with_tag("sim-batch-state");
        fp.write_bytes(&self.snapshot());
        fp.finish()
    }

    /// One lockstep cycle, each stage sweeping every live lane.
    fn step(&mut self) {
        let t = self.cycle;
        if self.trace_on && (t & 4095) == 0 {
            // Rolling state-hash series: the digest of the exact engine
            // state (all K lanes) at this cycle boundary. A run restored
            // from a snapshot emits the same values — divergence pinpoints
            // the first 4096-cycle block where two runs differ. Telemetry
            // only: reads state, mutates nothing.
            noc_trace::emit(
                "series",
                "sim.state_hash",
                vec![
                    ("cycle", noc_trace::FieldValue::U64(t)),
                    ("lanes", noc_trace::FieldValue::U64(self.k as u64)),
                    ("hash", noc_trace::FieldValue::U64(self.state_hash())),
                ],
            );
        }
        let mut measure = 0u64;
        let mut m = self.live;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.lanes[l].in_measure(t) {
                measure |= 1 << l;
            }
        }
        self.measure_mask = measure;

        self.apply_credits(t);
        self.process_arrivals(t);
        self.inject(t);
        self.apply_eligibility(t);
        self.arbitrate_dispatch(t);
        if self.trace_on && (t & 63) == 0 {
            self.sample_occupancy();
        }
        self.cycle = t + 1;
    }

    /// Finalizes lanes whose run loop would have exited this cycle.
    fn retire_finished(&mut self) {
        let mut m = self.live;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            let lane = &self.lanes[l];
            if self.cycle < lane.window_end {
                continue;
            }
            let drained = lane.completed_measured == lane.measured_total;
            if drained || self.cycle >= lane.hard_end {
                let stats = self.finalize_lane(l, drained);
                self.lanes[l].stats = Some(stats);
                self.live &= !(1u64 << l);
            }
        }
    }

    fn apply_credits(&mut self, t: u64) {
        let slot = (t & 1) as usize;
        let BatchSimulator {
            credit_wheel,
            ovc_credits,
            ..
        } = self;
        let wheel = &mut credit_wheel[slot];
        for &idx in wheel.iter() {
            ovc_credits[idx as usize] += 1;
        }
        wheel.clear();
    }

    /// Applies the eligibility schedule for cycle `t`: slot `t + 1` feeds
    /// the next-cycle view (`grp_e1`), slot `t` feeds the current-cycle
    /// view (`grp_e0`) and is drained — each slot is read exactly twice.
    fn apply_eligibility(&mut self, t: u64) {
        let s1 = ((t + 1) & 3) as usize;
        for &e in &self.elig_wheel[s1] {
            self.grp_e1[(e >> 6) as usize] |= 1u64 << (e & 63);
        }
        let s0 = (t & 3) as usize;
        let mut bucket = std::mem::take(&mut self.elig_wheel[s0]);
        for &e in &bucket {
            self.grp_e0[(e >> 6) as usize] |= 1u64 << (e & 63);
        }
        bucket.clear();
        self.elig_wheel[s0] = bucket;
    }

    fn process_arrivals(&mut self, t: u64) {
        let k = self.k;
        let slot = (t % self.horizon) as usize;
        let BatchSimulator {
            tables,
            measure_mask,
            vc_buf,
            ring,
            ring_head,
            ring_depth,
            front_word,
            grp_head,
            elig_wheel,
            vc_len,
            occ,
            activity,
            arrivals,
            ..
        } = self;
        let elig_slot = &mut elig_wheel[((t + 2) & 3) as usize];
        let tables: &NetTables = tables;
        let measure_mask = *measure_mask;
        let ring_depth = *ring_depth;
        let eligible = (t + 2) as u32;
        let mut bucket = std::mem::take(&mut arrivals[slot]);
        for ev in bucket.iter() {
            let l = ev.lane as usize;
            push_word_at(
                tables,
                k,
                vc_buf,
                ring,
                ring_head,
                ring_depth,
                front_word,
                grp_head,
                elig_slot,
                vc_len,
                occ,
                ev.port as usize,
                ev.vc as usize,
                l,
                ev.word,
                eligible,
            );
            if measure_mask & (1 << l) != 0 {
                let r = tables.in_port_router[ev.port as usize] as usize;
                activity[r * k + l].buffer_writes += 1;
            }
        }
        bucket.clear();
        self.arrivals[slot] = bucket;
    }

    fn inject(&mut self, t: u64) {
        let k = self.k;
        let BatchSimulator {
            tables,
            lanes,
            live,
            measure_mask,
            vc_buf,
            front_word,
            grp_head,
            elig_wheel,
            vc_len,
            occ,
            pending,
            ..
        } = self;
        let elig_slot = &mut elig_wheel[((t + 2) & 3) as usize];
        let tables: &NetTables = tables;
        let nodes = tables.routers;
        let vcs = tables.vcs;
        let eligible = (t + 2) as u32;
        let mut mask = *live;
        while mask != 0 {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            pending.clear();
            let measure = *measure_mask & (1 << l) != 0;
            let lane = &mut lanes[l];
            let flit_bits = lane.config.flit_bits;
            match &mut lane.source {
                Source::Workload(workload) => {
                    for node in 0..nodes {
                        if let Some(spec) = workload.generate(node, &mut lane.rng) {
                            pending.push((node as u32, spec.bits, spec.dst as u32));
                        }
                    }
                }
                Source::Trace { trace, next } => {
                    let events = trace.events();
                    while *next < events.len() && events[*next].cycle <= t {
                        let e = events[*next];
                        *next += 1;
                        pending.push((e.src as u32, e.bits, e.dst as u32));
                    }
                }
            }
            for &(node, bits, dst) in pending.iter() {
                let node = node as usize;
                let flits = bits.div_ceil(flit_bits).max(1);
                let packet_id = lane.packets.len() as u32;
                lane.packets.push(PacketRecord {
                    src: node as u16,
                    dst: dst as u16,
                    flits,
                    created: t as u32,
                    head_done: PENDING,
                    tail_done: PENDING,
                    measured: measure,
                });
                if measure {
                    lane.measured_total += 1;
                    lane.flit_sum += flits as u64;
                }
                // Enqueue into the least-loaded injection VC (NI queues).
                let inj = tables.in_port_off[node + 1] as usize - 1;
                let vc_idx = (0..vcs)
                    .min_by_key(|&v| vc_len[(inj * vcs + v) * k + l])
                    .expect("at least one VC");
                for seq in 0..flits {
                    let word = pack_flit(Flit {
                        packet: packet_id,
                        seq: seq as u16,
                        tail: seq + 1 == flits,
                        dst: dst as u16,
                    });
                    // NI queues are unbounded: always the deque path.
                    push_word_at(
                        tables,
                        k,
                        vc_buf,
                        &mut [],
                        &[],
                        0,
                        front_word,
                        grp_head,
                        elig_slot,
                        vc_len,
                        occ,
                        inj,
                        vc_idx,
                        l,
                        word,
                        eligible,
                    );
                }
            }
        }
    }

    /// Dispatches the merged RC/VA/SA pass to a shape-specialized
    /// instantiation: with the lane count `KC` and the request-mask width
    /// `WC` compile-time constants, the lane-inner predicate loops have
    /// fixed trip counts and vectorize at full machine width, and
    /// single-word masks compile to plain `u64` arithmetic. `0` means
    /// "read it at run time"; every shape runs the same source.
    fn arbitrate_dispatch(&mut self, t: u64) {
        match (self.k, self.occ.words) {
            (1, 1) => self.arbitrate::<1, 1>(t),
            (8, 1) => self.arbitrate::<8, 1>(t),
            (16, 1) => self.arbitrate::<16, 1>(t),
            (32, 1) => self.arbitrate::<32, 1>(t),
            (64, 1) => self.arbitrate::<64, 1>(t),
            (_, 1) => self.arbitrate::<0, 1>(t),
            _ => self.arbitrate::<0, 0>(t),
        }
    }

    /// One merged per-router pass over the occupied routers: RC + request
    /// build, VA, then SA/ST for router `r` before moving to the next. No
    /// same-cycle dataflow crosses routers — SA's link arrivals land
    /// `span + 1 ≥ 2` cycles out and credits apply next cycle — so the
    /// router's group slab (front words, rov, eligibility) stays in L1
    /// across all three phases.
    fn arbitrate<const KC: usize, const WC: usize>(&mut self, t: u64) {
        let k = if KC == 0 { self.k } else { KC };
        let words = if WC == 0 { self.occ.words } else { WC };
        debug_assert!(KC == 0 || KC == self.k);
        debug_assert!(WC == 0 || WC == self.occ.words);
        let BatchSimulator {
            tables,
            lanes,
            live,
            measure_mask,
            trace_on,
            horizon,
            vc_buf,
            ring,
            ring_head,
            ring_depth,
            front_word,
            vc_len,
            vc_rov,
            grp_unrouted,
            grp_noovc,
            grp_head,
            grp_e0,
            grp_e1,
            ovc_free,
            elig_wheel,
            ovc_credits,
            out_va_rr,
            out_sa_rr,
            occ,
            req,
            req_sa,
            used_vcs,
            wantnz,
            rdynz,
            va_ports,
            sa_ports,
            pick_iv,
            activity,
            credit_wheel,
            arrivals,
            link_flits,
            ..
        } = self;
        let tables: &NetTables = tables;
        let vcs = tables.vcs;
        let routers = tables.routers;
        let live = *live;
        let measure_mask = *measure_mask;
        let trace_on = *trace_on;
        let ring_depth = *ring_depth;
        let t1 = (t + 1) as u32;
        let t32 = t as u32;
        let es1 = ((t + 1) & 3) as usize;
        let es2 = ((t + 2) & 3) as usize;
        let credit_slot = ((t + 1) & 1) as usize;
        let horizon = *horizon as usize;
        let slot0 = (t % horizon as u64) as usize;

        // Occupied routers in ascending order. No same-cycle push lands in
        // the pass and a router's pops touch only its own bits, so each
        // router word is read once, when the walk reaches it.
        for rw in 0..occ.routers.len() {
            let mut rbits = occ.routers[rw];
            while rbits != 0 {
                let r = rw * 64 + rbits.trailing_zeros() as usize;
                rbits &= rbits - 1;
                let in_lo = tables.in_port_off[r] as usize;
                let in_hi = tables.in_port_off[r + 1] as usize;
                let base = in_lo * vcs;
                let injection_local = in_hi - in_lo - 1;
                let out_lo = tables.out_port_off[r] as usize;
                let out_hi = tables.out_port_off[r + 1] as usize;
                let ejection = out_hi - 1;
                let total_vcs = (in_hi - in_lo) * vcs;
                let gb0 = base * k;
                let glen = total_vcs * k;

                // --- RC + VA request build ------------------------------
                // Pure mask algebra per occupied input VC, in ascending
                // order: every predicate lives as a pre-maintained
                // per-group lane mask, so the scan is a few u64 ops and
                // only the rarer actions scatter over set bits. Every
                // predicate needs a front flit, so empty VCs are skipped
                // outright. A freshly-routed eligible head always requests
                // (RC never yields "no route"), so the RC lanes merge
                // straight into `want`. `req`/`req_sa` words are
                // dirty-tracked by `wantnz`/`rdynz` (lanes) and
                // `va_ports`/`sa_ports` (ports) and cleared surgically
                // when consumed, never memset.
                let rovs = &mut vc_rov[gb0..gb0 + glen];
                let fronts = &front_word[gb0..gb0 + glen];
                let route_row = &tables.route[r * routers..(r + 1) * routers];
                // Lanes with any SA request at this router.
                let mut sa_lanes = 0u64;
                for w in 0..words {
                    let mut vbits = occ.vcs[r * words + w];
                    while vbits != 0 {
                        let idx = w * 64 + vbits.trailing_zeros() as usize;
                        vbits &= vbits - 1;
                        let g = base + idx;
                        let gb = idx * k;
                        let rg = &mut rovs[gb..gb + k];
                        let wg = &fronts[gb..gb + k];
                        let (iw, ibit) = (idx >> 6, 1u64 << (idx & 63));
                        let un = grp_unrouted[g];
                        let no = grp_noovc[g];
                        let head = grp_head[g];
                        let e1 = grp_e1[g];
                        let e0 = grp_e0[g];
                        // Heads still unrouted this cycle take RC now.
                        let need_rc = un & head & live;
                        // VA request: route known (or freshly routed this
                        // cycle — RC never yields "no route"), no output
                        // VC yet, head flit, eligible next cycle.
                        let want = ((!un & no & head) | need_rc) & e1 & live;
                        // SA-ready: route + output VC known, eligible now.
                        // The heads-wait-a-cycle-after-VA rule is folded
                        // into the eligibility masks at grant time, and a
                        // same-cycle VA grant can't make a head ready, so
                        // the set is complete before VA runs.
                        let rdy = !un & !no & e0 & live;
                        sa_lanes |= rdy;
                        grp_unrouted[g] = un & !need_rc;
                        let mut m = need_rc;
                        while m != 0 {
                            let l = m.trailing_zeros() as usize;
                            m &= m - 1;
                            let route = route_row[word_dst(wg[l]) as usize];
                            rg[l] = (rg[l] & !ROV_ROUTE) | route as u32;
                        }
                        let mut m = want;
                        while m != 0 {
                            let l = m.trailing_zeros() as usize;
                            m &= m - 1;
                            let route = (rg[l] & ROV_ROUTE) as usize;
                            req[(route * k + l) * words + iw] |= ibit;
                            wantnz[route] |= 1u64 << l;
                            va_ports[route >> 6] |= 1u64 << (route & 63);
                        }
                        let mut m = rdy;
                        while m != 0 {
                            let l = m.trailing_zeros() as usize;
                            m &= m - 1;
                            let route = (rg[l] & ROV_ROUTE) as usize;
                            req_sa[(route * k + l) * words + iw] |= ibit;
                            rdynz[route] |= 1u64 << l;
                            sa_ports[route >> 6] |= 1u64 << (route & 63);
                        }
                    }
                }

                // --- VA -------------------------------------------------
                // Free output VCs go to the first requesting input VC at
                // or after each lane's round-robin pointer (a wrapped
                // first-set-bit). Requested ports are visited in ascending
                // order, and each lane sees output VCs in ascending order;
                // the ovc-outer loop lets the free-lane mask skip
                // (port, lane) pairs with nothing free or nothing
                // requested.
                for (pw, port_word) in va_ports.iter_mut().enumerate() {
                    let mut pbits = std::mem::take(port_word);
                    while pbits != 0 {
                        let lo_i = pw * 64 + pbits.trailing_zeros() as usize;
                        pbits &= pbits - 1;
                        let o = out_lo + lo_i;
                        let ro = lo_i * k;
                        // Lanes whose request mask is non-empty.
                        let mut reqnz = std::mem::take(&mut wantnz[lo_i]);
                        debug_assert!(reqnz != 0, "a requested port has requesting lanes");
                        let rq = &mut req[ro * words..(ro + k) * words];
                        for ovc in 0..vcs {
                            let fo = o * vcs + ovc;
                            let mut m = ovc_free[fo] & reqnz;
                            while m != 0 {
                                let l = m.trailing_zeros() as usize;
                                m &= m - 1;
                                let mw = &mut rq[l * words..(l + 1) * words];
                                let start = out_va_rr[o * k + l] as usize;
                                let pick = wrapped_first(mw, start).expect("requesting lane");
                                mw[pick >> 6] &= !(1u64 << (pick & 63));
                                if mw.iter().all(|&w| w == 0) {
                                    reqnz &= !(1u64 << l);
                                }
                                let lb = 1u64 << l;
                                ovc_free[fo] &= !lb;
                                let g = base + pick;
                                let gi = pick * k + l;
                                rovs[gi] = (rovs[gi] & ROV_ROUTE) | ((ovc as u32) << 16);
                                grp_noovc[g] &= !lb;
                                // Heads wait a cycle after allocation: drop this
                                // cycle's eligibility and reschedule for `t + 1`
                                // (the next-cycle view is unaffected).
                                if grp_e0[g] & lb != 0 {
                                    grp_e0[g] &= !lb;
                                    elig_wheel[es1].push(((g as u32) << 6) | l as u32);
                                }
                                let next = pick + 1;
                                out_va_rr[o * k + l] =
                                    if next == total_vcs { 0 } else { next } as u32;
                                if measure_mask & (1 << l) != 0 {
                                    activity[r * k + l].vc_allocations += 1;
                                }
                            }
                            if reqnz == 0 {
                                break;
                            }
                        }
                        // Lanes still in `reqnz` hold ungranted request bits;
                        // clear them so the array stays zero without a memset.
                        while reqnz != 0 {
                            let l = reqnz.trailing_zeros() as usize;
                            reqnz &= reqnz - 1;
                            rq[l * words..(l + 1) * words].fill(0);
                        }
                    }
                }

                // --- SA/ST ----------------------------------------------
                // The switch-ready masks were built in the first pass (see
                // `req_sa`); the pick loop resolves credits and the
                // one-winner-per-input rule per lane.

                // Input VCs of already-used input ports, as per-lane VC masks.
                let mut lm = sa_lanes;
                while lm != 0 {
                    let l = lm.trailing_zeros() as usize;
                    lm &= lm - 1;
                    used_vcs[l * words..(l + 1) * words].fill(0);
                }

                for (pw, port_word) in sa_ports.iter_mut().enumerate() {
                    let mut pbits = std::mem::take(port_word);
                    while pbits != 0 {
                        let lo_i = pw * 64 + pbits.trailing_zeros() as usize;
                        pbits &= pbits - 1;
                        let o = out_lo + lo_i;
                        let ro = lo_i * k;
                        // Lanes with any SA request for this output, from
                        // the scatter pass; consumed (and the words zeroed)
                        // here.
                        let mut lm = std::mem::take(&mut rdynz[lo_i]);
                        while lm != 0 {
                            let l = lm.trailing_zeros() as usize;
                            lm &= lm - 1;
                            let used = &mut used_vcs[l * words..(l + 1) * words];
                            let m = &mut req_sa[(ro + l) * words..(ro + l + 1) * words];
                            for (w, &u) in m.iter_mut().zip(used.iter()) {
                                *w &= !u;
                            }
                            let start = out_sa_rr[o * k + l] as usize;
                            let winner = loop {
                                let Some(pick) = wrapped_first(m, start) else {
                                    break None;
                                };
                                let ovc = (rovs[pick * k + l] >> 16) as usize;
                                if ovc_credits[(o * vcs + ovc) * k + l] == 0 {
                                    m[pick >> 6] &= !(1u64 << (pick & 63));
                                    continue;
                                }
                                break Some((pick, ovc));
                            };
                            m.fill(0);
                            let Some((pick, ovc)) = winner else {
                                continue;
                            };
                            let (i16, v16) = pick_iv[pick];
                            let (i, v) = (i16 as usize, v16 as usize);
                            let gi = (base + pick) * k + l;
                            let gl = pick * k + l;
                            let next = pick + 1;
                            out_sa_rr[o * k + l] = if next == total_vcs { 0 } else { next } as u32;
                            set_bits(used, i * vcs, vcs);
                            let word = front_word[gi];
                            let g = base + pick;
                            let lb = 1u64 << l;
                            vc_len[gi] -= 1;
                            if vc_len[gi] > 0 {
                                // Promote the next queued flit to the front arrays.
                                let (w, e) = if i == injection_local || ring_depth == 0 {
                                    vc_buf[gi].pop_front().expect("queue non-empty")
                                } else {
                                    let h = ring_head[gi] as usize;
                                    let next = h + 1;
                                    ring_head[gi] = if next == ring_depth { 0 } else { next } as u8;
                                    ring[gi * ring_depth + h]
                                };
                                front_word[gi] = w;
                                grp_head[g] =
                                    (grp_head[g] & !lb) | if word_is_head(w) { lb } else { 0 };
                                // Re-derive the front's eligibility bits: queued
                                // flits became eligible at most 2 cycles out from
                                // their arrival, so `e ∈ {..t, t+1, t+2}`.
                                if e <= t32 {
                                    grp_e0[g] |= lb;
                                    grp_e1[g] |= lb;
                                } else {
                                    debug_assert!(e <= t32 + 2);
                                    grp_e0[g] &= !lb;
                                    if e == t1 {
                                        grp_e1[g] |= lb;
                                        elig_wheel[es1].push(((g as u32) << 6) | l as u32);
                                    } else {
                                        grp_e1[g] &= !lb;
                                        elig_wheel[es2].push(((g as u32) << 6) | l as u32);
                                    }
                                }
                            } else {
                                front_word[gi] = FRONT_EMPTY;
                                grp_head[g] &= !lb;
                                grp_e0[g] &= !lb;
                                grp_e1[g] &= !lb;
                                occ.drain(g, l, r, pick);
                            }
                            let tail = word_is_tail(word);
                            let measure = measure_mask & (1 << l) != 0;

                            if measure {
                                let counters = &mut activity[r * k + l];
                                counters.crossbar_traversals += 1;
                                if i != injection_local {
                                    counters.buffer_reads += 1;
                                }
                            }

                            if o == ejection {
                                // Flit leaves the network; completion at end of cycle.
                                let lane = &mut lanes[l];
                                let record = &mut lane.packets[word_packet(word) as usize];
                                if word_is_head(word) {
                                    record.head_done = (t + 1) as u32;
                                }
                                if tail {
                                    record.tail_done = (t + 1) as u32;
                                    if measure {
                                        lane.ejected_in_window += 1;
                                    }
                                    if record.measured {
                                        lane.completed_measured += 1;
                                        let latency = (t + 1) as u32 - record.created;
                                        lane.latency_sum += latency as u64;
                                        lane.max_latency = lane.max_latency.max(latency as u64);
                                        lane.latencies.push(latency);
                                        lane.head_latency_sum +=
                                            (record.head_done - record.created) as u64;
                                    }
                                }
                            } else {
                                ovc_credits[(o * vcs + ovc) * k + l] -= 1;
                                let span = tables.out_span[o] as usize;
                                // `1 + span < horizon`: one conditional wrap suffices.
                                let mut slot = slot0 + 1 + span;
                                if slot >= horizon {
                                    slot -= horizon;
                                }
                                arrivals[slot].push(ArrivalEvent {
                                    port: tables.out_dst_port[o],
                                    vc: ovc as u16,
                                    lane: l as u16,
                                    word,
                                });
                                if measure {
                                    activity[r * k + l].link_flit_segments += span as u64;
                                    if trace_on {
                                        link_flits[o * k + l] += 1;
                                    }
                                }
                            }

                            if tail {
                                rovs[gl] = ROV_NONE;
                                grp_unrouted[g] |= lb;
                                grp_noovc[g] |= lb;
                                ovc_free[o * vcs + ovc] |= lb;
                            }

                            // Return the freed buffer slot upstream (1-cycle wire).
                            let cb = tables.in_credit_base[in_lo + i];
                            if cb != NONE_U32 {
                                credit_wheel[credit_slot]
                                    .push((cb + v as u32) * k as u32 + l as u32);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Telemetry only: per-lane buffered-flit occupancy, sampled every 64
    /// measure-window cycles when tracing is on.
    fn sample_occupancy(&mut self) {
        let k = self.k;
        let vcs = self.tables.vcs;
        let mut mask = self.measure_mask;
        while mask != 0 {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            self.lanes[l].occ_samples += 1;
            for r in 0..self.tables.routers {
                let lo = self.tables.in_port_off[r] as usize * vcs;
                let hi = self.tables.in_port_off[r + 1] as usize * vcs;
                let mut buffered = 0u64;
                for g in lo..hi {
                    buffered += self.vc_len[g * k + l] as u64;
                }
                self.occ_sum[r * k + l] += buffered;
            }
        }
    }

    fn finalize_lane(&mut self, l: usize, drained: bool) -> SimStats {
        let cycle = self.cycle;
        let k = self.k;
        let nodes = self.tables.routers;
        let activity = (0..nodes).map(|r| self.activity[r * k + l]).collect();
        let lane = &mut self.lanes[l];
        let completed = lane.completed_measured;
        let denom = completed.max(1) as f64;
        lane.latencies.sort_unstable();
        let pct = |q: f64| -> f64 {
            if lane.latencies.is_empty() {
                0.0
            } else {
                let idx = ((lane.latencies.len() - 1) as f64 * q).round() as usize;
                lane.latencies[idx] as f64
            }
        };
        let (p50, p95, p99) = (pct(0.50), pct(0.95), pct(0.99));
        SimStats {
            cycles: cycle,
            measure_cycles: lane.config.measure_cycles,
            nodes,
            measured_packets: lane.measured_total,
            completed_packets: completed,
            avg_packet_latency: lane.latency_sum as f64 / denom,
            avg_head_latency: lane.head_latency_sum as f64 / denom,
            max_packet_latency: lane.max_latency,
            p50_latency: p50,
            p95_latency: p95,
            p99_latency: p99,
            accepted_throughput: lane.ejected_in_window as f64
                / (lane.config.measure_cycles.max(1) as f64 * nodes as f64),
            offered_rate: lane.source.offered_rate(),
            avg_flits_per_packet: lane.flit_sum as f64 / lane.measured_total.max(1) as f64,
            activity,
            drained,
        }
    }

    /// Telemetry only: the per-link and per-router accumulators gathered
    /// during one lane's measure window, published as `sim.link` /
    /// `sim.router` series after every lane has finished (lane order
    /// matches K sequential one-lane runs). Reads state, mutates nothing
    /// the engine uses, so fingerprints cannot be affected.
    fn emit_trace(&self, l: usize, stats: &SimStats) {
        use noc_trace::FieldValue;
        let k = self.k;
        let lane = &self.lanes[l];
        let tables = &self.tables;
        let measure = lane.config.measure_cycles.max(1) as f64;
        for r in 0..tables.routers_len() {
            let ejection = tables.ejection_port(r);
            for o in tables.output_ports(r) {
                if o == ejection || self.link_flits[o * k + l] == 0 {
                    continue;
                }
                let flits = self.link_flits[o * k + l];
                noc_trace::emit(
                    "series",
                    "sim.link",
                    vec![
                        ("src", FieldValue::U64(r as u64)),
                        ("dst", FieldValue::U64(tables.out_to_router(o) as u64)),
                        ("span", FieldValue::U64(tables.out_span(o) as u64)),
                        ("flits", FieldValue::U64(flits)),
                        ("util", FieldValue::F64(flits as f64 / measure)),
                    ],
                );
            }
            let counters = &stats.activity[r];
            let avg_occupancy = if lane.occ_samples == 0 {
                0.0
            } else {
                self.occ_sum[r * k + l] as f64 / lane.occ_samples as f64
            };
            noc_trace::emit(
                "series",
                "sim.router",
                vec![
                    ("router", FieldValue::U64(r as u64)),
                    (
                        "crossbar_util",
                        FieldValue::F64(counters.crossbar_traversals as f64 / measure),
                    ),
                    ("buffer_writes", FieldValue::U64(counters.buffer_writes)),
                    ("buffer_reads", FieldValue::U64(counters.buffer_reads)),
                    ("avg_occupancy", FieldValue::F64(avg_occupancy)),
                    ("occ_samples", FieldValue::U64(lane.occ_samples)),
                ],
            );
        }
    }

    /// Whether flat input port `port / vcs` of input VC group `g` is an
    /// injection port (NI queue): those stay on the deque path regardless
    /// of the ring, mirroring the push/pop site predicates.
    fn is_injection_group(tables: &NetTables, g: usize) -> bool {
        let port = g / tables.vcs;
        let r = tables.in_port_router[port] as usize;
        port == tables.injection_port(r)
    }

    /// Serializes the complete dynamic batch state (all K lanes) at the
    /// current cycle boundary into a versioned, digest-protected snapshot
    /// (kind [`BATCH_KIND`]). Restoring over the same topology and replica
    /// list and running to completion is bit-identical per lane to never
    /// having stopped. Call only between cycles (after construction or
    /// [`BatchSimulator::run_until`]).
    pub fn snapshot(&self) -> Vec<u8> {
        let tables = &self.tables;
        let k = self.k;
        let vcs = tables.vcs;
        let total_in_vcs = tables.total_inputs() * vcs;
        let mut w = Writer::new(BATCH_KIND);
        w.write_u64(k as u64);
        w.write_u64(tables.routers as u64);
        w.write_u64(vcs as u64);
        w.write_u64(total_in_vcs as u64);
        w.write_u64((tables.total_outputs() * vcs) as u64);
        w.write_u64(tables.total_outputs() as u64);
        w.write_u64(self.horizon);
        w.write_u64(self.ring_depth as u64);
        w.write_u64(self.cycle);
        w.write_u64(self.live);
        w.write_u64(self.masked_cycles);
        for lane in &self.lanes {
            w.write_u64(lane.config.fingerprint());
            let (tag, fingerprint, cursor) = lane.source.identity();
            w.write_u8(tag);
            w.write_u64(fingerprint);
            w.write_u64(cursor);
            w.write_u64s(&lane.rng.state());
            w.write_u64(lane.measured_total);
            w.write_u64(lane.completed_measured);
            w.write_u64(lane.latency_sum);
            w.write_u64(lane.head_latency_sum);
            w.write_u64(lane.max_latency);
            w.write_u64(lane.flit_sum);
            w.write_u64(lane.ejected_in_window);
            w.write_u64(lane.occ_samples);
            w.write_len(lane.packets.len());
            for p in &lane.packets {
                w.write_u16(p.src);
                w.write_u16(p.dst);
                w.write_u32(p.flits);
                w.write_u32(p.created);
                w.write_u32(p.head_done);
                w.write_u32(p.tail_done);
                w.write_bool(p.measured);
            }
            w.write_u32s(&lane.latencies);
            match &lane.stats {
                None => w.write_u8(0),
                Some(stats) => {
                    w.write_u8(1);
                    stats.write_snapshot(&mut w);
                }
            }
        }
        for g in 0..total_in_vcs {
            let ring_queue = self.ring_depth > 0 && !Self::is_injection_group(tables, g);
            for l in 0..k {
                let gi = g * k + l;
                let len = self.vc_len[gi];
                w.write_u32(len);
                if len == 0 {
                    continue;
                }
                w.write_u64(self.front_word[gi]);
                let qlen = len as usize - 1;
                w.write_len(qlen);
                if ring_queue {
                    let head = self.ring_head[gi] as usize;
                    for j in 0..qlen {
                        let mut pos = head + j;
                        if pos >= self.ring_depth {
                            pos -= self.ring_depth;
                        }
                        let (word, elig) = self.ring[gi * self.ring_depth + pos];
                        w.write_u64(word);
                        w.write_u32(elig);
                    }
                } else {
                    debug_assert_eq!(self.vc_buf[gi].len(), qlen);
                    for &(word, elig) in self.vc_buf[gi].iter() {
                        w.write_u64(word);
                        w.write_u32(elig);
                    }
                }
            }
        }
        w.write_u32s(&self.vc_rov);
        w.write_u64s(&self.grp_unrouted);
        w.write_u64s(&self.grp_noovc);
        w.write_u64s(&self.grp_head);
        w.write_u64s(&self.grp_e0);
        w.write_u64s(&self.grp_e1);
        w.write_u64s(&self.ovc_free);
        for slot in &self.elig_wheel {
            w.write_u32s(slot);
        }
        w.write_u32s(&self.ovc_credits);
        w.write_u32s(&self.out_va_rr);
        w.write_u32s(&self.out_sa_rr);
        for slot in &self.credit_wheel {
            w.write_u32s(slot);
        }
        for bucket in &self.arrivals {
            w.write_len(bucket.len());
            for ev in bucket {
                w.write_u32(ev.port);
                w.write_u16(ev.vc);
                w.write_u16(ev.lane);
                w.write_u64(ev.word);
            }
        }
        w.write_len(self.activity.len());
        for a in &self.activity {
            a.write_snapshot(&mut w);
        }
        w.write_u64s(&self.link_flits);
        w.write_u64s(&self.occ_sum);
        w.finish()
    }

    /// Rebuilds a batch from a [`BatchSimulator::snapshot`], re-solving the
    /// topology like [`BatchSimulator::new`]. The replica list must be the
    /// one the snapshot was taken under (validated per lane by config and
    /// workload fingerprints).
    pub fn restore(
        topology: &MeshTopology,
        replicas: Vec<(Workload, SimConfig)>,
        bytes: &[u8],
    ) -> Result<Self, SnapshotError> {
        Self::new(topology, replicas).apply_snapshot(bytes)
    }

    /// Like [`BatchSimulator::restore`], but over pre-built shared tables
    /// (the [`BatchSimulator::with_tables`] counterpart).
    pub fn restore_with_tables(
        tables: Arc<NetTables>,
        replicas: Vec<(Workload, SimConfig)>,
        bytes: &[u8],
    ) -> Result<Self, SnapshotError> {
        Self::with_tables(tables, replicas).apply_snapshot(bytes)
    }

    pub(crate) fn apply_snapshot(mut self, bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes, BATCH_KIND)?;
        let k = self.k;
        let vcs = self.tables.vcs;
        let routers = self.tables.routers;
        let total_in_vcs = self.tables.total_inputs() * vcs;
        let total_out_vcs = self.tables.total_outputs() * vcs;
        let total_outputs = self.tables.total_outputs();
        for (field, expected) in [
            ("lane count", k),
            ("router count", routers),
            ("vc count", vcs),
            ("input vc count", total_in_vcs),
            ("output vc count", total_out_vcs),
            ("output port count", total_outputs),
            ("event horizon", self.horizon as usize),
            ("ring depth", self.ring_depth),
        ] {
            if r.read_u64()? != expected as u64 {
                return Err(SnapshotError::Mismatch { field });
            }
        }
        self.cycle = r.read_u64()?;
        self.live = r.read_u64()?;
        if k < 64 && self.live >> k != 0 {
            return Err(SnapshotError::Corrupt { field: "live mask" });
        }
        self.masked_cycles = r.read_u64()?;
        for lane in self.lanes.iter_mut() {
            if r.read_u64()? != lane.config.fingerprint() {
                return Err(SnapshotError::Mismatch {
                    field: "lane config",
                });
            }
            let tag = r.read_u8()?;
            let fingerprint = r.read_u64()?;
            let cursor = r.read_u64()?;
            let (want_tag, want_fingerprint, _) = lane.source.identity();
            if tag != want_tag {
                return Err(SnapshotError::Mismatch {
                    field: "lane source kind",
                });
            }
            if fingerprint != want_fingerprint {
                return Err(SnapshotError::Mismatch {
                    field: match lane.source {
                        Source::Workload(_) => "lane workload",
                        Source::Trace { .. } => "lane trace",
                    },
                });
            }
            if let Source::Trace { trace, next } = &mut lane.source {
                if cursor > trace.events().len() as u64 {
                    return Err(SnapshotError::Corrupt {
                        field: "lane trace cursor",
                    });
                }
                *next = cursor as usize;
            }
            let state = r.read_u64s()?;
            let state: [u64; 4] = state.try_into().map_err(|_| SnapshotError::Corrupt {
                field: "lane rng state",
            })?;
            lane.rng = SmallRng::from_state(state);
            lane.measured_total = r.read_u64()?;
            lane.completed_measured = r.read_u64()?;
            lane.latency_sum = r.read_u64()?;
            lane.head_latency_sum = r.read_u64()?;
            lane.max_latency = r.read_u64()?;
            lane.flit_sum = r.read_u64()?;
            lane.ejected_in_window = r.read_u64()?;
            lane.occ_samples = r.read_u64()?;
            let packet_count = r.read_len(21)?;
            lane.packets.clear();
            lane.packets.reserve(packet_count);
            for _ in 0..packet_count {
                lane.packets.push(PacketRecord {
                    src: r.read_u16()?,
                    dst: r.read_u16()?,
                    flits: r.read_u32()?,
                    created: r.read_u32()?,
                    head_done: r.read_u32()?,
                    tail_done: r.read_u32()?,
                    measured: r.read_bool()?,
                });
            }
            lane.latencies = r.read_u32s()?;
            lane.stats = match r.read_u8()? {
                0 => None,
                1 => Some(SimStats::read_snapshot(&mut r)?),
                _ => {
                    return Err(SnapshotError::Corrupt {
                        field: "lane stats tag",
                    })
                }
            };
        }
        for g in 0..total_in_vcs {
            let ring_queue = self.ring_depth > 0 && !Self::is_injection_group(&self.tables, g);
            for l in 0..k {
                let gi = g * k + l;
                let len = r.read_u32()?;
                self.vc_len[gi] = len;
                self.vc_buf[gi].clear();
                if len == 0 {
                    self.front_word[gi] = FRONT_EMPTY;
                    continue;
                }
                self.front_word[gi] = r.read_u64()?;
                let qlen = r.read_len(12)?;
                if qlen != len as usize - 1 {
                    return Err(SnapshotError::Corrupt {
                        field: "vc queue length",
                    });
                }
                if ring_queue {
                    // Restored queues start at ring position 0; the stored
                    // order is the logical (head-first) order, which is all
                    // the pop path observes.
                    if qlen >= self.ring_depth && qlen > 0 {
                        return Err(SnapshotError::Corrupt {
                            field: "ring queue length",
                        });
                    }
                    self.ring_head[gi] = 0;
                    for j in 0..qlen {
                        let word = r.read_u64()?;
                        let elig = r.read_u32()?;
                        self.ring[gi * self.ring_depth + j] = (word, elig);
                    }
                } else {
                    self.vc_buf[gi].reserve(qlen);
                    for _ in 0..qlen {
                        let word = r.read_u64()?;
                        let elig = r.read_u32()?;
                        self.vc_buf[gi].push_back((word, elig));
                    }
                }
            }
        }
        // Derived state: the occupancy masks follow from the restored
        // queue lengths and are not part of the format.
        self.occ = Occupancy::of(&self.tables, k, self.occ.words, &self.vc_len);
        let vc_rov = r.read_u32s()?;
        if vc_rov.len() != total_in_vcs * k {
            return Err(SnapshotError::Mismatch {
                field: "route/output-vc array",
            });
        }
        self.vc_rov = vc_rov;
        for (field, dst, expected) in [
            ("unrouted masks", &mut self.grp_unrouted, total_in_vcs),
            ("no-ovc masks", &mut self.grp_noovc, total_in_vcs),
            ("head masks", &mut self.grp_head, total_in_vcs),
            ("eligible-now masks", &mut self.grp_e0, total_in_vcs),
            ("eligible-next masks", &mut self.grp_e1, total_in_vcs),
            ("free output vcs", &mut self.ovc_free, total_out_vcs),
        ] {
            let vs = r.read_u64s()?;
            if vs.len() != expected {
                return Err(SnapshotError::Mismatch { field });
            }
            *dst = vs;
        }
        for slot in self.elig_wheel.iter_mut() {
            *slot = r.read_u32s()?;
            if slot
                .iter()
                .any(|&e| (e >> 6) as usize >= total_in_vcs || (e & 63) as usize >= k)
            {
                return Err(SnapshotError::Corrupt {
                    field: "eligibility wheel entry",
                });
            }
        }
        for (field, dst, expected) in [
            (
                "output vc credits",
                &mut self.ovc_credits,
                total_out_vcs * k,
            ),
            ("va round-robin", &mut self.out_va_rr, total_outputs * k),
            ("sa round-robin", &mut self.out_sa_rr, total_outputs * k),
        ] {
            let vs = r.read_u32s()?;
            if vs.len() != expected {
                return Err(SnapshotError::Mismatch { field });
            }
            *dst = vs;
        }
        for slot in self.credit_wheel.iter_mut() {
            *slot = r.read_u32s()?;
            if slot.iter().any(|&c| c as usize >= total_out_vcs * k) {
                return Err(SnapshotError::Corrupt {
                    field: "credit wheel entry",
                });
            }
        }
        for bucket in self.arrivals.iter_mut() {
            bucket.clear();
            let events = r.read_len(16)?;
            bucket.reserve(events);
            for _ in 0..events {
                let port = r.read_u32()?;
                let vc = r.read_u16()?;
                let lane = r.read_u16()?;
                let word = r.read_u64()?;
                if port as usize * vcs >= total_in_vcs || vc as usize >= vcs || lane as usize >= k {
                    return Err(SnapshotError::Corrupt {
                        field: "arrival event",
                    });
                }
                bucket.push(ArrivalEvent {
                    port,
                    vc,
                    lane,
                    word,
                });
            }
        }
        let activity_len = r.read_len(40)?;
        if activity_len != routers * k {
            return Err(SnapshotError::Mismatch {
                field: "activity counters",
            });
        }
        self.activity.clear();
        self.activity.reserve(routers * k);
        for _ in 0..routers * k {
            self.activity.push(ActivityCounters::read_snapshot(&mut r)?);
        }
        let link_flits = r.read_u64s()?;
        let occ_sum = r.read_u64s()?;
        if !link_flits.is_empty() && link_flits.len() != total_outputs * k {
            return Err(SnapshotError::Mismatch {
                field: "link flits",
            });
        }
        if !occ_sum.is_empty() && occ_sum.len() != routers * k {
            return Err(SnapshotError::Mismatch {
                field: "occupancy sums",
            });
        }
        // Telemetry follows the *current* sink state, not the snapshot's:
        // a restore under tracing starts zeroed series if the original run
        // had none, and a restore without tracing drops them.
        if self.trace_on {
            self.link_flits = if link_flits.is_empty() {
                vec![0; total_outputs * k]
            } else {
                link_flits
            };
            self.occ_sum = if occ_sum.is_empty() {
                vec![0; routers * k]
            } else {
                occ_sum
            };
        } else {
            self.link_flits = Vec::new();
            self.occ_sum = Vec::new();
        }
        r.finish()?;
        Ok(self)
    }
}

#[cfg(test)]
impl BatchSimulator {
    /// Recomputes the three occupancy masks from `vc_len` and checks them
    /// against the live ones.
    fn assert_occupancy_matches_queues(&self) {
        let fresh = Occupancy::of(&self.tables, self.k, self.occ.words, &self.vc_len);
        assert_eq!(
            self.occ, fresh,
            "occupancy masks drifted from the queue lengths at cycle {}",
            self.cycle
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::PacketMix;
    use noc_topology::RowPlacement;
    use noc_traffic::{SyntheticPattern, TrafficMatrix};

    /// SplitMix64: seeded replica parameters without an RNG dependency.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// `k` seeded replicas with rates up to `max_rate`. Drain caps are short,
    /// so saturated lanes retire with flits still buffered: the masks must
    /// keep tracking a dead lane's queues.
    fn replicas(n: usize, k: usize, max_rate: f64, salt: u64) -> Vec<(Workload, SimConfig)> {
        use SyntheticPattern::*;
        (0..k)
            .map(|i| {
                let h = mix(salt.wrapping_mul(0x1000) + i as u64);
                let rate = max_rate * (1 + h % 10) as f64 / 10.0;
                let pattern = match h % 3 {
                    0 => UniformRandom,
                    1 => Transpose,
                    // Bit reversal needs a power-of-two router count.
                    _ if n.is_power_of_two() => BitReverse,
                    _ => NearNeighbour,
                };
                let flit = [64, 128, 256][((h >> 8) % 3) as usize];
                let mut config = SimConfig::latency_run(flit, mix(h));
                config.warmup_cycles = 100 + (h >> 16) % 100;
                config.measure_cycles = 300 + (h >> 24) % 200;
                config.drain_cycles_max = 200 + (h >> 32) % 400;
                let matrix = TrafficMatrix::from_pattern(pattern, n);
                (Workload::new(matrix, rate, PacketMix::paper()), config)
            })
            .collect()
    }

    /// The 8×8 mesh, an 8×8 express row, and the `star20_wide` hub, whose
    /// 78 input VCs need two mask words; with each, its highest rate.
    fn topologies() -> Vec<(MeshTopology, f64)> {
        let row = RowPlacement::with_links(8, [(0, 3), (3, 7)]).unwrap();
        let star = RowPlacement::with_links(20, (2..20).map(|k| (0, k))).unwrap();
        vec![
            (MeshTopology::mesh(8), 0.3),
            (MeshTopology::uniform(8, &row), 0.3),
            (MeshTopology::uniform(20, &star), 0.03),
        ]
    }

    #[test]
    fn occupancy_masks_match_queue_lengths_after_every_cycle() {
        for (salt, (topo, max_rate)) in topologies().into_iter().enumerate() {
            for k in [1, 8] {
                let reps = replicas(topo.side(), k, max_rate, salt as u64 * 16 + k as u64);
                let mut batch = BatchSimulator::new(&topo, reps);
                batch.assert_occupancy_matches_queues();
                let mut busiest = 0;
                loop {
                    let done = batch.run_until(batch.cycle() + 1);
                    batch.assert_occupancy_matches_queues();
                    let occupied = batch.occ.routers.iter().map(|w| w.count_ones()).sum();
                    busiest = busiest.max(occupied);
                    if done {
                        break;
                    }
                }
                assert!(
                    busiest > 0,
                    "side {} K={k}: no router ever held a flit",
                    topo.side()
                );
            }
        }
    }

    #[test]
    fn occupancy_masks_are_rebuilt_on_restore() {
        for (salt, (topo, max_rate)) in topologies().into_iter().enumerate() {
            for k in [1, 8] {
                let seed = 0xc07 + salt as u64 * 16 + k as u64;
                let reps = || replicas(topo.side(), k, max_rate, seed);
                let cut = 150 + mix(seed) % 400;
                let mut batch = BatchSimulator::new(&topo, reps());
                batch.run_until(cut);
                assert!(
                    batch.occ.routers.iter().any(|&w| w != 0),
                    "cut {cut} is idle"
                );
                let bytes = batch.snapshot();
                let restored = BatchSimulator::restore(&topo, reps(), &bytes).unwrap();
                restored.assert_occupancy_matches_queues();
                assert_eq!(restored.occ, batch.occ, "cut {cut}");
                assert_eq!(restored.snapshot(), bytes, "the masks are not serialized");
            }
        }
    }

    #[test]
    fn routers_wider_than_one_port_word_deliver_everything() {
        // Row links (0,k) for every k ≥ 2 at n = 33 give router 0 64 link
        // outputs plus ejection: the port masks span two words, and a port
        // lost past the first word would strand its packets.
        let star = RowPlacement::with_links(33, (2..33).map(|k| (0, k))).unwrap();
        let topo = MeshTopology::uniform(33, &star);
        let mut config = SimConfig::latency_run(256, 5);
        config.warmup_cycles = 50;
        config.measure_cycles = 200;
        let matrix = TrafficMatrix::from_pattern(SyntheticPattern::UniformRandom, 33);
        let workload = Workload::new(matrix, 0.01, PacketMix::paper());
        let mut batch = BatchSimulator::new(&topo, vec![(workload, config)]);
        assert_eq!(batch.va_ports.len(), 2);
        while !batch.run_until(batch.cycle() + 50) {
            batch.assert_occupancy_matches_queues();
        }
        let stats = batch.run().pop().unwrap();
        assert!(stats.drained);
        assert!(stats.measured_packets > 0);
        assert_eq!(stats.completed_packets, stats.measured_packets);
        assert!(stats.activity[0].crossbar_traversals > 0);
    }
}
