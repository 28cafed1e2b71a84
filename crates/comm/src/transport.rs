//! Layer 1 of Viracocha's three-layer design: the transport abstraction.
//!
//! The paper (§3): *"the actual implementation of the communication
//! protocol is hidden in the first layer, i.e. subsequent layers will only
//! operate on a generic communication interface without knowing whether
//! the data will be transferred using TCP/IP or MPI calls."*
//!
//! [`Transport`] is that generic interface. The bundled implementation,
//! [`LocalWorld`], provides an MPI-like world of rank-addressed endpoints
//! over in-process channels; a cluster deployment would implement the same
//! trait over sockets or MPI without touching layers 2 and 3.

use bytes::Bytes;
use std::fmt;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::Duration;

/// Index of a process within a communication world (MPI rank).
pub type Rank = usize;

/// Message tag distinguishing logical channels between the same pair of
/// ranks.
pub type Tag = u32;

/// Well-known tags used by layer 2. Applications may use any tag ≥
/// [`tags::USER_BASE`].
pub mod tags {
    use super::Tag;

    /// Scheduler → worker: command dispatch.
    pub const COMMAND: Tag = 1;
    /// Worker → master worker: partial result for merging.
    pub const PARTIAL_RESULT: Tag = 2;
    /// Worker → scheduler: job finished notification.
    pub const JOB_DONE: Tag = 3;
    /// Any → any: data-management traffic (peer cache transfer etc.).
    pub const DMS: Tag = 4;
    /// Scheduler → worker: orderly shutdown.
    pub const SHUTDOWN: Tag = 6;
    /// Scheduler → worker: liveness probe (answered with [`PONG`]).
    pub const PING: Tag = 7;
    /// Worker → scheduler: liveness probe reply.
    pub const PONG: Tag = 8;
    /// Worker → scheduler: a client-bound event frame to relay over the
    /// visualization link (used by remote worker processes, whose
    /// [`EventSender`](crate::link::EventSender) cannot share a channel
    /// with the client).
    pub const CLIENT_EVENT: Tag = 9;
    /// Scheduler → worker: cancel a running job (payload: the job id).
    /// Fanned to every rank of the job's work group so rank-local
    /// cancel sets trip mid-extraction even across processes.
    pub const CANCEL: Tag = 10;
    /// Hub → scheduler: a previously-convicted worker rank has
    /// reconnected and completed the rejoin handshake; the scheduler
    /// clears its dead-rank exclusion (payload empty, `from` = rank).
    pub const REJOIN: Tag = 11;
    /// First tag available to applications built on the framework.
    pub const USER_BASE: Tag = 1000;
}

/// A received message.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    pub from: Rank,
    pub tag: Tag,
    pub payload: Bytes,
}

/// Transport-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The destination rank does not exist in this world.
    UnknownRank(Rank),
    /// The peer endpoint has been dropped.
    Disconnected,
    /// A timed receive expired.
    Timeout,
    /// The payload of `bytes` is larger than the `limit` any frame of this
    /// link carries; it was not sent.
    TooLarge { bytes: usize, limit: usize },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::UnknownRank(r) => write!(f, "unknown rank {r}"),
            CommError::Disconnected => write!(f, "peer disconnected"),
            CommError::Timeout => write!(f, "receive timed out"),
            CommError::TooLarge { bytes, limit } => {
                write!(
                    f,
                    "payload of {bytes} bytes exceeds the {limit}-byte frame bound"
                )
            }
        }
    }
}

impl std::error::Error for CommError {}

/// The generic communication interface of layer 1.
pub trait Transport: Send {
    /// This endpoint's rank.
    fn rank(&self) -> Rank;

    /// Number of ranks in the world.
    fn world_size(&self) -> usize;

    /// Sends `payload` to rank `to` with `tag`. Non-blocking (buffered).
    fn send(&self, to: Rank, tag: Tag, payload: Bytes) -> Result<(), CommError>;

    /// Blocks until any message arrives.
    fn recv(&self) -> Result<Message, CommError>;

    /// Non-blocking receive; `Ok(None)` when no message is pending.
    fn try_recv(&self) -> Result<Option<Message>, CommError>;

    /// Receive with a deadline.
    fn recv_timeout(&self, timeout: Duration) -> Result<Message, CommError>;
}

/// An in-process world of `n` rank-addressed endpoints connected by
/// unbounded channels — the MPI stand-in.
pub struct LocalWorld;

/// One endpoint of a [`LocalWorld`].
pub struct LocalEndpoint {
    rank: Rank,
    peers: Vec<Sender<Message>>,
    inbox: Receiver<Message>,
}

impl LocalWorld {
    /// Creates a fully connected world of `n` endpoints.
    pub fn create(n: usize) -> Vec<LocalEndpoint> {
        assert!(n > 0, "world must have at least one rank");
        let mut senders = Vec::with_capacity(n);
        let mut inboxes = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            senders.push(tx);
            inboxes.push(rx);
        }
        inboxes
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| LocalEndpoint {
                rank,
                peers: senders.clone(),
                inbox,
            })
            .collect()
    }
}

impl Transport for LocalEndpoint {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.peers.len()
    }

    fn send(&self, to: Rank, tag: Tag, payload: Bytes) -> Result<(), CommError> {
        let tx = self.peers.get(to).ok_or(CommError::UnknownRank(to))?;
        tx.send(Message {
            from: self.rank,
            tag,
            payload,
        })
        .map_err(|_| CommError::Disconnected)
    }

    fn recv(&self) -> Result<Message, CommError> {
        self.inbox.recv().map_err(|_| CommError::Disconnected)
    }

    fn try_recv(&self) -> Result<Option<Message>, CommError> {
        match self.inbox.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(CommError::Disconnected),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Message, CommError> {
        match self.inbox.recv_timeout(timeout) {
            Ok(m) => Ok(m),
            Err(RecvTimeoutError::Timeout) => Err(CommError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(CommError::Disconnected),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_recv_between_ranks() {
        let mut world = LocalWorld::create(3);
        let c = world.pop().unwrap();
        let b = world.pop().unwrap();
        let a = world.pop().unwrap();
        assert_eq!(a.rank(), 0);
        assert_eq!(b.rank(), 1);
        assert_eq!(a.world_size(), 3);

        a.send(1, 7, Bytes::from_static(b"hello")).unwrap();
        let m = b.recv().unwrap();
        assert_eq!(m.from, 0);
        assert_eq!(m.tag, 7);
        assert_eq!(&m.payload[..], b"hello");

        // c got nothing.
        assert_eq!(c.try_recv().unwrap(), None);
    }

    #[test]
    fn send_to_self_works() {
        let mut world = LocalWorld::create(1);
        let a = world.pop().unwrap();
        a.send(0, 1, Bytes::from_static(b"me")).unwrap();
        assert_eq!(&a.recv().unwrap().payload[..], b"me");
    }

    #[test]
    fn unknown_rank_is_an_error() {
        let mut world = LocalWorld::create(2);
        let a = world.remove(0);
        assert_eq!(
            a.send(5, 0, Bytes::new()).unwrap_err(),
            CommError::UnknownRank(5)
        );
    }

    #[test]
    fn recv_timeout_expires() {
        let mut world = LocalWorld::create(2);
        let a = world.remove(0);
        assert_eq!(
            a.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            CommError::Timeout
        );
    }

    #[test]
    fn messages_from_one_sender_arrive_in_order() {
        let mut world = LocalWorld::create(2);
        let b = world.pop().unwrap();
        let a = world.pop().unwrap();
        for i in 0..100u8 {
            a.send(1, 0, Bytes::copy_from_slice(&[i])).unwrap();
        }
        for i in 0..100u8 {
            assert_eq!(b.recv().unwrap().payload[0], i);
        }
    }

    #[test]
    fn cross_thread_messaging() {
        let mut world = LocalWorld::create(2);
        let b = world.pop().unwrap();
        let a = world.pop().unwrap();
        let h = std::thread::spawn(move || {
            let m = b.recv().unwrap();
            b.send(0, m.tag, m.payload).unwrap();
        });
        a.send(1, 42, Bytes::from_static(b"ping")).unwrap();
        let echo = a.recv().unwrap();
        assert_eq!(echo.tag, 42);
        assert_eq!(&echo.payload[..], b"ping");
        h.join().unwrap();
    }
}
