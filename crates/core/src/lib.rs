//! Global History Reuse Prediction (GHRP).
//!
//! This crate implements the primary contribution of *"Exploring Predictive
//! Replacement Policies for Instruction Cache and Branch Target Buffer"*
//! (Mirbagher Ajorpaz, Garza, Jindal, Jiménez — ISCA 2018): a dead-block
//! replacement and bypass policy driven by the **global path history of
//! instruction addresses**.
//!
//! # How GHRP works
//!
//! * A 16-bit **path history** register records the last four accesses: on
//!   each access the three lowest-order (post-shift) PC bits are shifted in,
//!   followed by one zero bit ([`history`]).
//! * A **signature** is the XOR of the history with the accessed PC; the
//!   zero padding lets PC bits pass through unmodified ([`signature`]).
//! * Three **prediction tables** of 4,096 two-bit saturating counters are
//!   indexed by three distinct 12-bit hashes of the signature. Counters
//!   above a threshold vote "dead"; the aggregate prediction is a
//!   **majority vote** (unlike SDBP's summation) ([`tables`]).
//! * Each cache block carries metadata: its filling/last-use signature and a
//!   prediction bit. On a **hit** the counters under the block's *old*
//!   signature are decremented (the block proved live) and the metadata is
//!   refreshed under the current history. On an **eviction** the counters
//!   under the victim's stored signature are incremented (it proved dead).
//!   On a **miss** the incoming block may be **bypassed** when the vote
//!   clears a separate bypass threshold; otherwise the victim is the first
//!   predicted-dead block, falling back to LRU ([`policy`]).
//! * The **BTB** reuses the same tables and history: a BTB entry's
//!   dead-entry prediction is made with the signature stored in the I-cache
//!   block containing the branch (see the `fe-btb` crate).
//! * Two histories — speculative and retired — support misprediction
//!   recovery as in branch predictors (§III.F of the paper).
//!
//! # Example
//!
//! ```
//! use fe_cache::{Cache, CacheConfig};
//! use ghrp_core::{GhrpConfig, GhrpPolicy, SharedGhrp};
//!
//! let cache_cfg = CacheConfig::with_capacity(64 * 1024, 8, 64)?;
//! let shared = SharedGhrp::new(GhrpConfig::default(), cache_cfg);
//! let mut icache = Cache::new(cache_cfg, GhrpPolicy::new(cache_cfg, shared.clone()));
//! icache.access(0x1_0000, 0x1_0000);
//! # Ok::<(), fe_cache::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod history;
pub mod paper;
pub mod policy;
pub mod shared;
pub mod signature;
pub mod storage;
pub mod tables;

pub use config::{Aggregation, GhrpConfig, GhrpConfigError};
pub use history::SpeculativeHistory;
pub use policy::GhrpPolicy;
pub use shared::{BlockMeta, SharedGhrp};
pub use storage::StorageReport;
pub use tables::PredictionTables;
