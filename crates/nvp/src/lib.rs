//! Nonvolatile-processor substrate for NEOFog.
//!
//! Models the node's compute element (paper §2.2):
//!
//! * [`spec`] — processor specifications. The calibration is exactly
//!   self-consistent with the paper: the NVP runs at 1 MHz drawing
//!   0.209 mW, and an 8051-class core retires one instruction every
//!   12 cycles, so one instruction costs 12 µs × 0.209 mW = **2.508 nJ**
//!   — which reproduces every compute-energy entry of Table 2 to the
//!   digit (545 × 2.508 = 1366.86 nJ, …).
//! * [`processor`] — volatile vs nonvolatile processor state machines:
//!   a VP loses all task progress on power failure and pays a 300 µs
//!   restart; an NVP backs up into NV flip-flops and restores in
//!   7–32 µs, achieving forward progress under arbitrarily frequent
//!   outages.
//! * [`exec`] — the intermittent-execution engine: run a task of N
//!   instructions across a sequence of power on/off intervals and
//!   report completion, energy and progress lost.
//! * [`spendthrift`] — the frequency/resource-scaling policy of
//!   Ma et al. (ASP-DAC'17) that the paper assumes at node level:
//!   match clock frequency to income power so energy converts to work
//!   at the leanest point.
//! * [`nvbuffer`] — the 64 KiB nonvolatile FIFO between sensor and NVP
//!   (Figure 2(b)) that enables the buffered
//!   sensing→buffering→computing→compression→transmission strategy.

// Library code must not panic: one panic aborts a whole fleet sweep.
// Tests are exempt (`clippy.toml`); DESIGN.md §10 has the waivers.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod exec;
pub mod nvbuffer;
pub mod processor;
pub mod spec;
pub mod spendthrift;

pub use exec::{ExecReport, IntermittentEngine, PowerInterval};
pub use nvbuffer::NvBuffer;
pub use processor::{Processor, ProcessorKind};
pub use spec::ProcSpec;
pub use spendthrift::{FrequencyLevel, SpendthriftPolicy};
