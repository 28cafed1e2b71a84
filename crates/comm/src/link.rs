//! The visualization-client link.
//!
//! In the paper, ViSTA FlowLib talks to the Viracocha scheduler over
//! TCP/IP while the back-end processes talk MPI. Per the layered design,
//! the protocol is hidden: this module provides a framed, bidirectional,
//! in-process byte link with the same interface a socket implementation
//! would have.

use bytes::Bytes;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, OnceLock};
use vira_obs as obs;

use crate::transport::CommError;

// Link metrics: frames and bytes crossing the client link in each
// direction (requests client→server, events server→client).
static REQ_FRAMES: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static REQ_BYTES: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static EVENT_FRAMES: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static EVENT_BYTES: OnceLock<Arc<obs::Counter>> = OnceLock::new();

fn count_request(frame: &Bytes) {
    obs::counter_cached(&REQ_FRAMES, "link_request_frames_total").inc();
    obs::counter_cached(&REQ_BYTES, "link_request_bytes_total").add(frame.len() as u64);
}

fn count_event(frame: &Bytes) {
    obs::counter_cached(&EVENT_FRAMES, "link_event_frames_total").inc();
    obs::counter_cached(&EVENT_BYTES, "link_event_bytes_total").add(frame.len() as u64);
}

/// Frames flowing from the client to the back-end (requests).
/// Frames flowing back are events (job status, streamed packets, finals).
/// Both directions carry opaque `Bytes`; layers 2/3 define the encoding.
const LINK_DEPTH: usize = 4096;

/// Client-side handle: submit requests, receive events.
pub struct ClientSide {
    to_server: SyncSender<Bytes>,
    from_server: Receiver<Bytes>,
}

/// Back-end-side handle: receive requests, emit events.
pub struct ServerSide {
    from_client: Receiver<Bytes>,
    to_client: SyncSender<Bytes>,
}

/// Creates a connected client/server link pair.
pub fn client_server_link() -> (ClientSide, ServerSide) {
    let (req_tx, req_rx) = sync_channel(LINK_DEPTH);
    let (ev_tx, ev_rx) = sync_channel(LINK_DEPTH);
    (
        ClientSide {
            to_server: req_tx,
            from_server: ev_rx,
        },
        ServerSide {
            from_client: req_rx,
            to_client: ev_tx,
        },
    )
}

impl ClientSide {
    /// Sends a request frame to the back-end. Blocks if the link buffer is
    /// full (back-pressure).
    pub fn request(&self, frame: Bytes) -> Result<(), CommError> {
        count_request(&frame);
        self.to_server
            .send(frame)
            .map_err(|_| CommError::Disconnected)
    }

    /// Blocks for the next event frame.
    pub fn next_event(&self) -> Result<Bytes, CommError> {
        self.from_server.recv().map_err(|_| CommError::Disconnected)
    }
}

impl ServerSide {
    /// Blocks for the next request frame.
    pub fn next_request(&self) -> Result<Bytes, CommError> {
        self.from_client.recv().map_err(|_| CommError::Disconnected)
    }

    /// Non-blocking request poll.
    pub fn try_next_request(&self) -> Result<Option<Bytes>, CommError> {
        match self.from_client.try_recv() {
            Ok(v) => Ok(Some(v)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(CommError::Disconnected),
        }
    }

    /// Emits an event frame to the client.
    pub fn emit(&self, frame: Bytes) -> Result<(), CommError> {
        count_event(&frame);
        self.to_client
            .send(frame)
            .map_err(|_| CommError::Disconnected)
    }

    /// Clones the event sender so worker threads can stream partial
    /// results directly to the visualization client (§5.2: "the direct
    /// transmission of worker results to the visualization system").
    pub fn event_sender(&self) -> EventSender {
        EventSender {
            sink: Sink::Link(self.to_client.clone()),
        }
    }
}

/// Where an [`EventSender`] delivers its frames: straight onto the
/// client link (same-process back-end), or through an arbitrary hook —
/// remote worker processes forward frames to the scheduler as
/// `CLIENT_EVENT` messages, and the scheduler re-emits them here.
#[derive(Clone)]
enum Sink {
    Link(SyncSender<Bytes>),
    Hook(Arc<dyn Fn(Bytes) -> Result<(), CommError> + Send + Sync>),
}

/// A cloneable handle for emitting events toward the client from any
/// thread.
#[derive(Clone)]
pub struct EventSender {
    sink: Sink,
}

impl EventSender {
    /// An event sender that delivers through `f` instead of a link —
    /// the transport-agnostic seam remote worker processes plug into.
    pub fn from_fn(f: impl Fn(Bytes) -> Result<(), CommError> + Send + Sync + 'static) -> Self {
        EventSender {
            sink: Sink::Hook(Arc::new(f)),
        }
    }

    pub fn emit(&self, frame: Bytes) -> Result<(), CommError> {
        count_event(&frame);
        match &self.sink {
            Sink::Link(tx) => tx.send(frame).map_err(|_| CommError::Disconnected),
            Sink::Hook(f) => f(frame),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_event_roundtrip() {
        let (client, server) = client_server_link();
        client.request(Bytes::from_static(b"extract")).unwrap();
        assert_eq!(&server.next_request().unwrap()[..], b"extract");
        server.emit(Bytes::from_static(b"result")).unwrap();
        assert_eq!(&client.next_event().unwrap()[..], b"result");
    }

    #[test]
    fn try_and_timeout_variants() {
        let (client, server) = client_server_link();
        assert_eq!(server.try_next_request().unwrap(), None);
        client.request(Bytes::from_static(b"poll")).unwrap();
        assert_eq!(&server.try_next_request().unwrap().unwrap()[..], b"poll");
        assert_eq!(server.try_next_request().unwrap(), None);
        drop(client);
        assert_eq!(
            server.try_next_request().unwrap_err(),
            CommError::Disconnected
        );
    }

    #[test]
    fn disconnect_is_detected() {
        let (client, server) = client_server_link();
        drop(server);
        assert_eq!(
            client.request(Bytes::new()).unwrap_err(),
            CommError::Disconnected
        );
        assert_eq!(client.next_event().unwrap_err(), CommError::Disconnected);
    }

    #[test]
    fn event_sender_clones_stream_to_same_client() {
        let (client, server) = client_server_link();
        let s1 = server.event_sender();
        let s2 = server.event_sender();
        let h1 = std::thread::spawn(move || s1.emit(Bytes::from_static(b"a")).unwrap());
        let h2 = std::thread::spawn(move || s2.emit(Bytes::from_static(b"b")).unwrap());
        h1.join().unwrap();
        h2.join().unwrap();
        let mut got = vec![client.next_event().unwrap(), client.next_event().unwrap()];
        got.sort();
        assert_eq!(
            got,
            vec![Bytes::from_static(b"a"), Bytes::from_static(b"b")]
        );
    }
}
