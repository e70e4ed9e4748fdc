//! Flits and packets.

/// A flow-control digit. Flits are small and `Copy`; per-packet bookkeeping
/// lives in the simulator's packet table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Index into the packet table.
    pub packet: u32,
    /// Position within the packet (0 = head).
    pub seq: u16,
    /// Whether this is the last flit of its packet.
    pub tail: bool,
    /// Destination router (flat id), replicated for O(1) route computation.
    pub dst: u16,
}

/// Sentinel for "not yet happened" in [`PacketRecord`] completion cycles.
pub const PENDING: u32 = u32::MAX;

/// Lifetime record of one packet.
///
/// The ledger is the simulator's largest allocation (one record per
/// injected packet), and the ejection path touches records at effectively
/// random offsets, so the record is packed to 24 bytes: cycle counts are
/// `u32` (a single run is bounded far below 2^32 cycles) with [`PENDING`]
/// standing in for "not yet", and router ids are `u16` (flat ids already
/// fit [`Flit::dst`]).
#[derive(Debug, Clone)]
pub struct PacketRecord {
    /// Source router (flat id).
    pub src: u16,
    /// Destination router (flat id).
    pub dst: u16,
    /// Number of flits (`ceil(bits / flit_bits)`).
    pub flits: u32,
    /// Cycle the packet was created and enqueued at the source NI.
    pub created: u32,
    /// Completion cycle of the head flit's ejection (exclusive: the cycle
    /// *after* its ejection ST), or [`PENDING`].
    pub head_done: u32,
    /// Completion cycle of the tail flit's ejection, or [`PENDING`].
    pub tail_done: u32,
    /// Whether the packet was created inside the measurement window.
    pub measured: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_record_packs_to_24_bytes() {
        assert_eq!(std::mem::size_of::<PacketRecord>(), 24);
    }
}
