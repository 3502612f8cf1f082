//! Typed identifiers for simulator entities.
//!
//! Newtypes keep node, link, flow, agent and packet identifiers from being
//! mixed up at compile time (C-NEWTYPE). All are dense indices into the
//! simulator's internal vectors.

use core::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[derive(serde::Serialize, serde::Deserialize)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Creates an identifier from a raw index.
            pub const fn from_raw(raw: u32) -> Self {
                $name(raw)
            }

            /// The raw dense index backing this identifier.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a node (router or host) in the topology.
    NodeId,
    "n"
);
id_type!(
    /// Identifies a unidirectional link in the topology.
    LinkId,
    "l"
);
id_type!(
    /// Identifies an end-to-end flow (one sender/receiver agent pair).
    FlowId,
    "f"
);
id_type!(
    /// Identifies an agent (transport endpoint) attached to a node.
    AgentId,
    "a"
);
id_type!(
    /// Handle to a packet in the network: the index of its slot in the
    /// simulator's packet arena, valid from injection until the packet is
    /// delivered or dropped (the slot is then reused). Events and link queues
    /// carry this instead of the [`crate::packet::Packet`] itself.
    PacketId,
    "p"
);
id_type!(
    /// Handle to a source route: the index of a path in
    /// [`crate::routing::Routing`]'s append-only table of every path ever
    /// installed. A source-routed packet carries this, not the path.
    RouteId,
    "r"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_and_display() {
        let n = NodeId::from_raw(3);
        assert_eq!(n.index(), 3);
        assert_eq!(n.to_string(), "n3");
        assert_eq!(LinkId::from_raw(1).to_string(), "l1");
        assert_eq!(FlowId::from_raw(2).to_string(), "f2");
        assert_eq!(AgentId::from_raw(9).to_string(), "a9");
        assert_eq!(PacketId::from_raw(4).to_string(), "p4");
        assert_eq!(RouteId::from_raw(5).to_string(), "r5");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(NodeId::from_raw(1) < NodeId::from_raw(2));
    }
}
