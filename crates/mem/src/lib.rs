//! Simulated SoC memory substrate for the protoacc reproduction.
//!
//! The paper evaluates its accelerator inside a Chipyard RISC-V SoC: the
//! accelerator and the BOOM core share a 128-bit TileLink system bus, an L2,
//! and an LLC, with accelerator-side TLBs backed by the core's page-table
//! walker (Section 4.1, Figure 8). This crate provides the equivalent
//! substrate for the behavioral model:
//!
//! * [`GuestMemory`] — sparse, paged, byte-addressable storage in which the
//!   runtime lays out C++-ABI-like message objects and serialized buffers.
//! * [`CacheModel`] / [`MemSystem`] — an L1/L2/LLC hierarchy with true tag
//!   arrays and LRU replacement, charging per-access cycle costs.
//! * [`Tlb`] — accelerator-side TLB with a page-table-walk penalty.
//! * [`Lru`] — exact true-LRU replacement state in O(1) per access, shared
//!   by the TLB and the accelerator's ADT cache.
//! * [`Memory`] — the bundle of storage plus timing that components thread
//!   through their operations.
//!
//! All timing is deterministic: the same access sequence always produces the
//! same cycle count, mirroring FireSim's cycle-exact methodology.
//!
//! # Example
//!
//! ```rust
//! use protoacc_mem::{AccessKind, MemConfig, Memory};
//!
//! let mut mem = Memory::new(MemConfig::default());
//! mem.data.write_u64(0x1000, 42);
//! let cycles = mem.system.access(0x1000, 8, AccessKind::Read);
//! assert_eq!(mem.data.read_u64(0x1000), 42);
//! assert!(cycles > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod guest;
mod hash;
pub mod lru;
pub mod system;
pub mod tlb;

pub use cache::{CacheConfig, CacheModel, CacheStats};
pub use guest::{GuestMemory, PAGE_SIZE};
pub use lru::Lru;
pub use system::{AccessKind, MemConfig, MemFault, MemStats, MemSystem, Memory, RequesterStats};
pub use tlb::{Tlb, TlbConfig};

/// Simulated clock cycles.
pub type Cycles = u64;

/// Width of the TileLink system bus in bytes (128 bits, Section 4.1).
pub const BUS_WIDTH_BYTES: usize = 16;
