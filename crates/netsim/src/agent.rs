//! Transport endpoints ("agents") attached to nodes.
//!
//! An agent is a transport endpoint (e.g. a TCP sender or receiver) bound to
//! a `(node, flow)` pair. Agents interact with the network exclusively
//! through an [`AgentCtx`]: they emit packets, arm a single retransmission
//! timer, and draw deterministic randomness.

use std::any::Any;

use crate::ids::{AgentId, FlowId, NodeId};
use crate::packet::{Packet, PacketKind};
use crate::time::SimTime;

/// Actions an agent can request during a callback.
#[derive(Debug)]
pub(crate) enum AgentAction {
    /// Inject a packet at the agent's node.
    Send { dst: NodeId, size_bytes: u32, kind: PacketKind },
    /// (Re-)arm the agent's timer for the given instant, replacing any
    /// pending timer.
    SetTimer(SimTime),
    /// Disarm the agent's timer.
    CancelTimer,
    /// (Re-)arm the agent's auxiliary timer (see [`AgentCtx::set_aux_timer`]).
    SetAuxTimer(SimTime),
    /// Disarm the agent's auxiliary timer.
    CancelAuxTimer,
}

/// Execution context handed to agent callbacks.
///
/// Collects the agent's requested actions; the simulator applies them after
/// the callback returns, which keeps agent code free of simulator borrows.
pub struct AgentCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The agent being invoked.
    pub agent_id: AgentId,
    /// The node the agent lives on.
    pub node: NodeId,
    /// The flow the agent serves.
    pub flow: FlowId,
    pub(crate) actions: &'a mut Vec<AgentAction>,
    pub(crate) rng_draw: &'a mut dyn FnMut() -> f64,
}

impl<'a> AgentCtx<'a> {
    /// Sends a packet from this agent's node to `dst`.
    pub fn send(&mut self, dst: NodeId, size_bytes: u32, kind: PacketKind) {
        self.actions.push(AgentAction::Send { dst, size_bytes, kind });
    }

    /// Arms the agent's single timer to fire at `at` (replacing any pending
    /// timer). Timers strictly in the past fire at the current instant.
    ///
    /// Re-arming on every ACK is cheap: the deadline takes its place in the
    /// event order here, but enters the queue only if it falls before the
    /// pop the timer already has pending (DESIGN.md §2 "One pop per timer").
    pub fn set_timer(&mut self, at: SimTime) {
        self.actions.push(AgentAction::SetTimer(at));
    }

    /// Disarms the agent's timer.
    pub fn cancel_timer(&mut self) {
        self.actions.push(AgentAction::CancelTimer);
    }

    /// Arms the agent's auxiliary timer to fire at `at` (replacing any
    /// pending auxiliary timer). The auxiliary timer is a second,
    /// independent timer slot — e.g. a pacing release clock running next to
    /// the retransmission timer — delivered through
    /// [`Agent::on_aux_timer`]. Instants in the past fire at the current
    /// instant.
    pub fn set_aux_timer(&mut self, at: SimTime) {
        self.actions.push(AgentAction::SetAuxTimer(at));
    }

    /// Disarms the agent's auxiliary timer.
    pub fn cancel_aux_timer(&mut self) {
        self.actions.push(AgentAction::CancelAuxTimer);
    }

    /// Draws a uniform sample from `[0, 1)` from the simulation's seeded RNG.
    pub fn random(&mut self) -> f64 {
        (self.rng_draw)()
    }
}

/// A transport endpoint.
///
/// Implementations receive packets addressed to their `(node, flow)` pair
/// and may emit packets and timers through the [`AgentCtx`].
pub trait Agent {
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

    /// Upcast for downcasting concrete agent types when reading statistics.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}
