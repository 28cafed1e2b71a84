//! # vira-comm
//!
//! Layer 1 of Viracocha's three-layer architecture: a generic
//! communication interface that hides the actual transport (§3 of the
//! paper). Layers 2 and 3 (scheduler/workers/DMS and the extraction
//! commands, in the `viracocha` crate) operate only on these abstractions.
//!
//! * [`transport`] — the [`transport::Transport`] trait and the in-process
//!   rank world [`transport::LocalWorld`] standing in for MPI.
//! * [`collective`] — work groups ([`Group`]): the ranks of one job.
//! * [`link`] — the framed client link standing in for TCP/IP between the
//!   visualization host and the scheduler.
//! * [`fault`] — deterministic fault injection: [`fault::FaultyTransport`]
//!   perturbs any transport from a seeded, replayable [`fault::FaultPlan`].
//! * [`socket`] — the real multi-process transport: framed TCP /
//!   Unix-domain sockets in a star topology behind the same trait.

pub mod collective;
pub mod fault;
pub mod link;
pub mod socket;
pub mod transport;

pub use collective::Group;
pub use fault::{FaultPlan, FaultStats, FaultStatsSnapshot, FaultyTransport, LinkFaults};
pub use link::{client_server_link, ClientSide, EventSender, ServerSide};
pub use socket::{SocketAddrSpec, SocketHub, SocketListener, SocketSender, SocketWorker};
pub use transport::{tags, CommError, LocalEndpoint, LocalWorld, Message, Rank, Tag, Transport};
