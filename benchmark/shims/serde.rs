//! Stand-in for `serde`: re-exports the no-op derives of `serde_derive.rs`.
//! Nothing on the benchmarked data plane serializes through serde.

pub use serde_derive::{Deserialize, Serialize};
