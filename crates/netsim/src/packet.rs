//! Packet representation.
//!
//! The simulator moves whole packets (no fragmentation). Transport headers
//! are modeled structurally rather than as byte layouts: a packet is either a
//! data segment or an acknowledgment, mirroring what the TCP-PR evaluation
//! needs (cumulative ACKs, SACK blocks, DSACK reports, timestamp echoes).
//!
//! A [`Packet`] is written once, into the simulator's packet arena, when an
//! agent sends it, and read out once, when it is delivered: in between it
//! sits still and events and link queues pass its [`crate::ids::PacketId`]
//! around (DESIGN.md §2 "Packets sit still"). Agents only ever see whole
//! packets, by value. A source-routed packet names its path by a
//! [`RouteId`] into the routing table, which owns every path installed.
//! It also carries the agent it is for, resolved when it is sent, so
//! delivery hands it over without searching the destination's flow table
//! (DESIGN.md §2 "Deliveries carry their agent").

use crate::ids::{AgentId, FlowId, NodeId, RouteId};
use crate::time::SimTime;

/// Default TCP data segment size used throughout the reproduction, in bytes
/// (payload + headers, matching the ns-2 convention of 1000-byte packets).
pub const DATA_PACKET_BYTES: u32 = 1000;

/// Default ACK packet size in bytes.
pub const ACK_PACKET_BYTES: u32 = 40;

/// Transport-level contents of a data segment.
///
/// Sequence numbers are in segments, as in the paper's pseudo-code and ns-2's
/// `Agent/TCP`: segment `n` carries bytes `[n * mss, (n+1) * mss)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataHeader {
    /// Segment sequence number.
    pub seq: u64,
    /// True if this transmission is a retransmission of `seq`.
    pub is_retransmit: bool,
    /// How many times `seq` has been transmitted, counting this one (1 = first).
    pub tx_count: u32,
    /// TCP timestamp option: the sender clock at transmission time.
    pub timestamp: SimTime,
}

/// Transport-level contents of an acknowledgment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckHeader {
    /// Cumulative acknowledgment: the next segment the receiver expects.
    /// All segments `< cum_ack` have been received in order.
    pub cum_ack: u64,
    /// SACK blocks as half-open segment ranges `[start, end)`, most recently
    /// received block first. Empty when the receiver has no out-of-order data
    /// (or SACK is disabled).
    pub sack: Vec<(u64, u64)>,
    /// DSACK report: a range that was received in duplicate, per RFC 2883.
    /// `None` when this ACK does not report a duplicate arrival.
    pub dsack: Option<(u64, u64)>,
    /// Echo of the timestamp carried by the segment that triggered this ACK.
    pub echo_timestamp: SimTime,
    /// Echo of that segment's transmission counter (lets the sender
    /// distinguish ACKs of originals from ACKs of retransmissions, as the
    /// Eifel algorithm does with its timestamp/one-bit scheme).
    pub echo_tx_count: u32,
    /// True if this is a duplicate acknowledgment (cumulative point did not
    /// advance).
    pub dup: bool,
}

/// What a packet carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketKind {
    /// A TCP data segment.
    Data(DataHeader),
    /// A TCP acknowledgment.
    Ack(AckHeader),
}

impl PacketKind {
    /// Returns the data header, if this is a data packet.
    pub fn as_data(&self) -> Option<&DataHeader> {
        match self {
            PacketKind::Data(h) => Some(h),
            PacketKind::Ack(_) => None,
        }
    }

    /// Returns the ACK header, if this is an acknowledgment.
    pub fn as_ack(&self) -> Option<&AckHeader> {
        match self {
            PacketKind::Ack(h) => Some(h),
            PacketKind::Data(_) => None,
        }
    }
}

/// A packet in flight.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Globally unique id, assigned in injection order.
    pub uid: u64,
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Wire size in bytes (drives transmission delay and queue accounting).
    pub size_bytes: u32,
    /// Transport payload.
    pub kind: PacketKind,
    /// The agent serving `(dst, flow)`, resolved when the packet was sent.
    /// `None` if no agent serves it: the packet still crosses the network
    /// and is a no-route drop at `dst`.
    pub to: Option<AgentId>,
    /// Number of links traversed so far.
    pub hops: u32,
    /// Handle of the pinned source route (sequence of links from `src` to
    /// `dst`), when the routing mode is source-routed multipath. `None`
    /// under next-hop routing.
    pub route: Option<RouteId>,
}

impl Packet {
    /// True if this packet carries a data segment.
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data(_))
    }

    /// True if this packet carries an acknowledgment.
    pub fn is_ack(&self) -> bool {
        matches!(self.kind, PacketKind::Ack(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_packet() -> Packet {
        Packet {
            uid: 0,
            flow: FlowId::from_raw(0),
            src: NodeId::from_raw(0),
            dst: NodeId::from_raw(1),
            size_bytes: DATA_PACKET_BYTES,
            kind: PacketKind::Data(DataHeader {
                seq: 7,
                is_retransmit: false,
                tx_count: 1,
                timestamp: SimTime::ZERO,
            }),
            to: None,
            hops: 0,
            route: None,
        }
    }

    #[test]
    fn kind_accessors() {
        let p = data_packet();
        assert!(p.is_data());
        assert!(!p.is_ack());
        assert_eq!(p.kind.as_data().unwrap().seq, 7);
        assert!(p.kind.as_ack().is_none());
    }

    #[test]
    fn ack_accessors() {
        let mut p = data_packet();
        p.kind = PacketKind::Ack(AckHeader {
            cum_ack: 3,
            sack: vec![(5, 6)],
            dsack: None,
            echo_timestamp: SimTime::ZERO,
            echo_tx_count: 1,
            dup: true,
        });
        assert!(p.is_ack());
        let h = p.kind.as_ack().unwrap();
        assert_eq!(h.cum_ack, 3);
        assert!(h.dup);
    }
}
