//! What is particular to each paper figure: its constants, the rows of its
//! artifact and its table. Every cell of every figure runs through
//! [`crate::cell`]; Figures 2–4 share its `Fairness` kind (the Section 4
//! experiment), Figure 6 its `Multipath` kind.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig2`] | Figure 2 — normalized throughput vs number of flows |
//! | [`fig3`] | Figure 3 — CoV vs loss rate |
//! | [`fig4`] | Figure 4 — TCP-SACK share over the (α, β) grid |
//! | [`fig6`] | Figure 6 — throughput vs ε under multipath routing |

pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig6;
