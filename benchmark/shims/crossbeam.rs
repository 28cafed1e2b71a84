//! Minimal stand-in for `crossbeam::channel` backed by
//! `std::sync::mpsc`, sufficient for vira-comm: unbounded and bounded
//! MPSC channels with `send` / `recv` / `try_recv` / `recv_timeout`.
//! vira-comm never clones receivers and never selects, so the std
//! primitives (plus a Sender enum unifying `Sender`/`SyncSender`)
//! match the used surface exactly.

pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, TryRecvError};

    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    enum Tx<T> {
        Unbounded(mpsc::Sender<T>),
        Bounded(mpsc::SyncSender<T>),
    }

    pub struct Sender<T>(Tx<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(match &self.0 {
                Tx::Unbounded(s) => Tx::Unbounded(s.clone()),
                Tx::Bounded(s) => Tx::Bounded(s.clone()),
            })
        }
    }

    impl<T> Sender<T> {
        /// Blocks while a bounded channel is full, like crossbeam's.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            match &self.0 {
                Tx::Unbounded(s) => s.send(value).map_err(|mpsc::SendError(v)| SendError(v)),
                Tx::Bounded(s) => s.send(value).map_err(|mpsc::SendError(v)| SendError(v)),
            }
        }
    }

    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout)
        }
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(Tx::Unbounded(tx)), Receiver(rx))
    }

    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(Tx::Bounded(tx)), Receiver(rx))
    }
}
