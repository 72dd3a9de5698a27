//! Offline stand-in for `parking_lot`.
//!
//! Wraps the std locks with parking_lot's non-poisoning API: `read()`,
//! `write()` and `lock()` return guards directly, and a panic while a
//! lock is held does not poison it for later users.

use std::sync::{PoisonError, TryLockError};

/// The guard of a `try_*` acquisition: `None` only if the lock is held
/// elsewhere (a poisoned lock is acquired all the same).
fn acquired<G>(attempt: Result<G, TryLockError<G>>) -> Option<G> {
    match attempt {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// A reader-writer lock without poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a lock around a value.
    pub fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Acquires shared read access.
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Shared read access, if it can be had without blocking.
    pub fn try_read(&self) -> Option<std::sync::RwLockReadGuard<'_, T>> {
        acquired(self.inner.try_read())
    }

    /// Exclusive write access, if it can be had without blocking.
    pub fn try_write(&self) -> Option<std::sync::RwLockWriteGuard<'_, T>> {
        acquired(self.inner.try_write())
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// A mutual-exclusion lock without poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a lock around a value.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Acquires the lock.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The lock, if it can be had without blocking.
    pub fn try_lock(&self) -> Option<std::sync::MutexGuard<'_, T>> {
        acquired(self.inner.try_lock())
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rwlock_read_write() {
        let lock = RwLock::new(1);
        *lock.write() += 1;
        assert_eq!(*lock.read(), 2);
        assert_eq!(lock.into_inner(), 2);
    }

    #[test]
    fn panicking_holder_does_not_poison() {
        let lock = std::sync::Arc::new(RwLock::new(0));
        let l2 = lock.clone();
        let _ = std::thread::spawn(move || {
            let _guard = l2.write();
            panic!("holder dies");
        })
        .join();
        // A poisoned std lock would panic here; the shim recovers.
        assert_eq!(*lock.read(), 0);
    }

    #[test]
    fn mutex_lock() {
        let m = Mutex::new(vec![1]);
        m.lock().push(2);
        assert_eq!(m.into_inner(), vec![1, 2]);
    }

    #[test]
    fn try_acquisition_fails_only_while_held() {
        let m = Mutex::new(1);
        {
            let _held = m.lock();
            assert!(m.try_lock().is_none());
        }
        assert_eq!(m.try_lock().map(|g| *g), Some(1));
        let l = RwLock::new(2);
        {
            let _reader = l.read();
            assert!(l.try_read().is_some());
            assert!(l.try_write().is_none());
        }
        assert!(l.try_write().is_some());
    }
}
