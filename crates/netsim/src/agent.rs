//! Transport endpoints ("agents") attached to nodes.
//!
//! An agent is a transport endpoint (e.g. a TCP sender or receiver) bound to
//! a `(node, flow)` pair. Agents interact with the network exclusively
//! through an [`AgentCtx`]: they emit packets, arm a retransmission timer
//! and an auxiliary one, and draw deterministic randomness. The context
//! borrows the simulator for one callback; every call on it acts at once.

use std::any::Any;

use rand::Rng;

use crate::ids::{AgentId, FlowId, NodeId};
use crate::packet::{Packet, PacketKind};
use crate::sim::{Simulator, TimerId};
use crate::time::SimTime;

/// Execution context handed to agent callbacks.
///
/// A handle on the simulator, not a mailbox: each method acts at once, in
/// the order the agent calls them (DESIGN.md §2 "The round trip takes no
/// detour"); the agent is out of the simulator's table meanwhile.
pub struct AgentCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The agent being invoked.
    pub agent_id: AgentId,
    /// The node the agent lives on.
    pub node: NodeId,
    /// The flow the agent serves.
    pub flow: FlowId,
    pub(crate) sim: &'a mut Simulator,
}

impl<'a> AgentCtx<'a> {
    /// Sends a packet from this agent's node to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is the agent's own node: the packet would be for the
    /// agent itself (it keeps the agent's flow), and a callback does not
    /// re-enter.
    pub fn send(&mut self, dst: NodeId, size_bytes: u32, kind: PacketKind) {
        self.sim.inject(self.agent_id, dst, size_bytes, kind);
    }

    /// Arms the agent's single timer to fire at `at` (replacing any pending
    /// timer). Timers strictly in the past fire at the current instant.
    ///
    /// Re-arming on every ACK is cheap: the deadline takes its place in the
    /// event order here, but enters the queue only if it falls before the
    /// pop the timer already has pending (DESIGN.md §2 "One pop per timer").
    pub fn set_timer(&mut self, at: SimTime) {
        self.sim.arm_timer(self.agent_id, TimerId::Main, at);
    }

    /// Disarms the agent's timer.
    pub fn cancel_timer(&mut self) {
        self.sim.cancel_timer(self.agent_id, TimerId::Main);
    }

    /// Arms the agent's auxiliary timer to fire at `at` (replacing any
    /// pending auxiliary timer). The auxiliary timer is a second,
    /// independent timer slot — e.g. a pacing release clock running next to
    /// the retransmission timer — delivered through
    /// [`Agent::on_aux_timer`]. Instants in the past fire at the current
    /// instant.
    pub fn set_aux_timer(&mut self, at: SimTime) {
        self.sim.arm_timer(self.agent_id, TimerId::Aux, at);
    }

    /// Disarms the agent's auxiliary timer.
    pub fn cancel_aux_timer(&mut self) {
        self.sim.cancel_timer(self.agent_id, TimerId::Aux);
    }

    /// Draws a uniform sample from `[0, 1)` from the simulation's seeded RNG.
    pub fn random(&mut self) -> f64 {
        self.sim.rng.gen()
    }
}

/// A transport endpoint.
///
/// Implementations receive packets addressed to their `(node, flow)` pair
/// and may emit packets and timers through the [`AgentCtx`]. An agent's
/// statistics are read where they live, on its concrete type, through
/// `as_any`.
pub trait Agent: Any {
    /// Invoked once when the simulation starts (time zero).
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>);

    /// Invoked when a packet addressed to this agent arrives.
    fn on_packet(&mut self, packet: Packet, ctx: &mut AgentCtx<'_>);

    /// Invoked when the agent's timer fires. Only current (non-superseded)
    /// timers are delivered.
    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>);

    /// Invoked when the agent's auxiliary timer fires (see
    /// [`AgentCtx::set_aux_timer`]). Agents that never arm the auxiliary
    /// timer can keep this default no-op.
    fn on_aux_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        let _ = ctx;
    }
}

impl dyn Agent {
    /// The agent as [`Any`], to downcast to its concrete type:
    /// `sim.agent(id).as_any().downcast_ref::<CbrSink>()`.
    pub fn as_any(&self) -> &dyn Any {
        self
    }
}
