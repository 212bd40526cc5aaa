//! Minimal `crossbeam` stand-in: MPMC unbounded *and bounded* channels
//! (the only part of crossbeam this workspace uses).

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    pub struct SendError<T>(pub T);

    /// Non-blocking send failure on a bounded channel.
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    /// Deadline-bounded send failure on a bounded channel.
    pub enum SendTimeoutError<T> {
        Timeout(T),
        Disconnected(T),
    }

    // Like the real crossbeam: Debug without requiring `T: Debug`.
    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> std::fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> std::fmt::Debug for SendTimeoutError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                SendTimeoutError::Timeout(_) => f.write_str("Timeout(..)"),
                SendTimeoutError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }
    impl std::error::Error for RecvError {}

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    struct Inner<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// `None` = unbounded; `Some(cap)` = at most `cap` queued items.
        cap: Option<usize>,
    }

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        cv: Condvar,
        /// Senders blocked on a full bounded queue park here; every pop
        /// (and every receiver drop) notifies it.
        cv_space: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
            self.inner.lock().unwrap_or_else(|e| e.into_inner())
        }
    }

    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                cap,
            }),
            cv: Condvar::new(),
            cv_space: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    /// A channel holding at most `cap` queued items; full-queue sends
    /// block ([`Sender::send`]), fail ([`Sender::try_send`]), or block
    /// with a deadline ([`Sender::send_timeout`]). Zero-capacity
    /// rendezvous channels are not supported.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(cap > 0, "bounded(0) rendezvous channels are unsupported");
        channel(Some(cap))
    }

    impl<T> Inner<T> {
        fn is_full(&self) -> bool {
            self.cap.is_some_and(|c| self.queue.len() >= c)
        }
    }

    impl<T> Sender<T> {
        fn push(shared: &Shared<T>, mut inner: std::sync::MutexGuard<'_, Inner<T>>, value: T) {
            inner.queue.push_back(value);
            drop(inner);
            shared.cv.notify_one();
        }

        /// Blocking send: waits for space on a full bounded channel.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            match self.send_deadline(value, None) {
                Ok(()) => Ok(()),
                Err(SendTimeoutError::Disconnected(v)) => Err(SendError(v)),
                Err(SendTimeoutError::Timeout(_)) => unreachable!("no deadline given"),
            }
        }

        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let inner = self.shared.lock();
            if inner.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if inner.is_full() {
                return Err(TrySendError::Full(value));
            }
            Self::push(&self.shared, inner, value);
            Ok(())
        }

        pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
            self.send_deadline(value, Some(Instant::now() + timeout))
        }

        fn send_deadline(
            &self,
            value: T,
            deadline: Option<Instant>,
        ) -> Result<(), SendTimeoutError<T>> {
            let mut inner = self.shared.lock();
            loop {
                if inner.receivers == 0 {
                    return Err(SendTimeoutError::Disconnected(value));
                }
                if !inner.is_full() {
                    Self::push(&self.shared, inner, value);
                    return Ok(());
                }
                inner = match deadline {
                    None => self
                        .shared
                        .cv_space
                        .wait(inner)
                        .unwrap_or_else(|e| e.into_inner()),
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            return Err(SendTimeoutError::Timeout(value));
                        }
                        self.shared
                            .cv_space
                            .wait_timeout(inner, d - now)
                            .unwrap_or_else(|e| e.into_inner())
                            .0
                    }
                };
            }
        }

        /// Items currently queued (a bounded sender's backlog gauge).
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.shared.lock().queue.is_empty()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.lock();
            inner.senders -= 1;
            if inner.senders == 0 {
                drop(inner);
                self.shared.cv.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.lock();
            match inner.queue.pop_front() {
                Some(v) => {
                    drop(inner);
                    self.shared.cv_space.notify_one();
                    Ok(v)
                }
                None if inner.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.lock();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    drop(inner);
                    self.shared.cv_space.notify_one();
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner = self
                    .shared
                    .cv
                    .wait(inner)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.shared.lock();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    drop(inner);
                    self.shared.cv_space.notify_one();
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (g, _) = self
                    .shared
                    .cv
                    .wait_timeout(inner, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                inner = g;
            }
        }

        pub fn is_empty(&self) -> bool {
            self.shared.lock().queue.is_empty()
        }

        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.lock();
            inner.receivers -= 1;
            if inner.receivers == 0 {
                drop(inner);
                // Senders blocked on a full queue must observe the
                // disconnect instead of waiting forever.
                self.shared.cv_space.notify_all();
            }
        }
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_surfaces() {
        let (tx, rx) = unbounded::<u8>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        let (tx2, rx2) = unbounded::<u8>();
        drop(rx2);
        assert!(tx2.send(9).is_err());
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn bounded_try_send_reports_full_then_drains() {
        let (tx, rx) = bounded(2);
        assert!(tx.try_send(1).is_ok());
        assert!(tx.try_send(2).is_ok());
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.recv(), Ok(1));
        assert!(tx.try_send(3).is_ok());
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn bounded_send_blocks_until_space() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let h = std::thread::spawn(move || {
            tx.send(2).unwrap(); // blocks until the pop below
            tx.len()
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        assert!(h.join().unwrap() <= 1, "capacity bound held");
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn bounded_send_timeout_expires_on_full_queue() {
        let (tx, _rx) = bounded(1);
        tx.send(1).unwrap();
        assert!(matches!(
            tx.send_timeout(2, Duration::from_millis(15)),
            Err(SendTimeoutError::Timeout(2))
        ));
    }

    #[test]
    fn bounded_send_unblocks_on_receiver_drop() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let h = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert!(h.join().unwrap().is_err(), "disconnect surfaces");
    }
}
