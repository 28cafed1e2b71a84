//! # vira-dms
//!
//! The Viracocha **Data Management System** (paper §4): fast retrieval of
//! generic input data for the parallel post-processing back-end, reducing
//! the I/O share that dominates naïve extraction commands.
//!
//! Architecture (paper Figure 3): every computing node owns a
//! [`proxy::DataProxy`] holding a two-tiered cache
//! ([`cache::TieredCache`]: main memory + local disk) and a background
//! prefetch loader; a centralized [`server::DataServer`] at the scheduler
//! node runs the name service, tracks which node caches what, and picks a
//! loading strategy per forced load via a fitness function over modeled
//! transfer times.
//!
//! * [`name`] — item naming (source / type / format / parameters) and the
//!   name server / per-proxy resolvers.
//! * [`policy`] — LRU, LFU and FBR replacement.
//! * [`cache`] — memory + spill-to-disk cache tiers.
//! * [`prefetch`] — OBL, prefetch-on-miss, Markov (order n) and the
//!   Markov+OBL hybrid.
//! * [`stats`] — the statistical unit (hits, misses, prefetch accuracy,
//!   strategy usage).
//! * [`server`] / [`proxy`] — the two cooperating halves of the DMS.

pub mod cache;
pub mod name;
pub mod policy;
pub mod prefetch;
pub mod proxy;
pub mod server;
pub mod stats;

pub use cache::{CachePayload, DiskCodec, MemoryCache, ResidencyDigest, Tier, TieredCache};
pub use name::{ItemId, ItemName, NameResolver, NameServer};
pub use policy::{policy_by_name, FbrPolicy, LfuPolicy, LruPolicy, ReplacementPolicy};
pub use prefetch::{
    prefetcher_by_name, MarkovPrefetch, NoPrefetch, OblPrefetch, PrefetchOnMiss, Prefetcher,
    SequenceOrder,
};
pub use proxy::{DataProxy, L2Config, ProxyConfig};
pub use server::{DataServer, LoadPlan, LoadStrategy, NodeId, ServerConfig};
pub use stats::{DmsStats, DmsStatsSnapshot, StrategyIndex};
