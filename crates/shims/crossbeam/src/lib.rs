//! Minimal vendored shim of the [`crossbeam`](https://docs.rs/crossbeam)
//! channel API used by this workspace, backed by `std::sync::mpsc`.
//! The `select!` macro is not provided; the transport merges its
//! producers into one channel and blocks on that instead.

#![forbid(unsafe_code)]

/// Multi-producer single-consumer channels.
pub mod channel {
    pub use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};

    /// An unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvTimeoutError};
    use std::time::Duration;

    #[test]
    fn unbounded_send_recv() {
        let (tx, rx) = unbounded();
        tx.send(5).unwrap();
        assert_eq!(rx.recv().unwrap(), 5);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
    }
}
