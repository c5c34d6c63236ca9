//! Offline stand-in for `parking_lot`.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the subset of the parking_lot API the workspace uses — `Mutex`, `RwLock`
//! (including `read_recursive`), and `Condvar` — with the same
//! no-poisoning, guard-returning signatures. `RwLock` is implemented from
//! scratch (readers never block on waiting writers) so that recursive read
//! acquisition is safe, which `read_recursive` callers rely on.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::time::Duration;

// ---------------- Mutex ----------------

pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

pub struct MutexGuard<'a, T: ?Sized> {
    // Option so Condvar::wait_for can temporarily take the std guard
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex { inner: std::sync::Mutex::new(value) }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        MutexGuard { inner: Some(g) }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(e)) => {
                Some(MutexGuard { inner: Some(e.into_inner()) })
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<'a, T: ?Sized> Deref for MutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<'a, T: ?Sized> DerefMut for MutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

// ---------------- Condvar ----------------

#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

/// Mirrors parking_lot's result type; only `timed_out` is provided.
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

impl Condvar {
    pub fn new() -> Self {
        Condvar { inner: std::sync::Condvar::new() }
    }

    /// Wait with a timeout, re-acquiring the lock into the same guard.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.inner.take().expect("guard present");
        let (g, timed_out) = match self.inner.wait_timeout(g, timeout) {
            Ok((g, r)) => (g, r.timed_out()),
            Err(e) => {
                let (g, r) = e.into_inner();
                (g, r.timed_out())
            }
        };
        guard.inner = Some(g);
        WaitTimeoutResult(timed_out)
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard present");
        let g = self.inner.wait(g).unwrap_or_else(|e| e.into_inner());
        guard.inner = Some(g);
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

// ---------------- RwLock ----------------

/// Reader–writer lock without writer preference: a read acquisition only
/// waits for an *active* writer, never for queued ones, so recursive reads
/// (`read_recursive`, or `read` while the same thread already holds a read
/// lock elsewhere in the call stack) cannot deadlock.
pub struct RwLock<T: ?Sized> {
    /// Number of active readers, or -1 while a writer holds the lock.
    state: std::sync::Mutex<i64>,
    cond: std::sync::Condvar,
    data: UnsafeCell<T>,
}

unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        RwLock {
            state: std::sync::Mutex::new(0),
            cond: std::sync::Condvar::new(),
            data: UnsafeCell::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    fn state(&self) -> std::sync::MutexGuard<'_, i64> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let mut s = self.state();
        while *s < 0 {
            s = self.cond.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        *s += 1;
        RwLockReadGuard { lock: self }
    }

    /// Identical to [`read`](Self::read): this lock has no writer
    /// preference, so every read acquisition is recursion-safe.
    pub fn read_recursive(&self) -> RwLockReadGuard<'_, T> {
        self.read()
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let mut s = self.state();
        if *s < 0 {
            return None;
        }
        *s += 1;
        Some(RwLockReadGuard { lock: self })
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let mut s = self.state();
        while *s != 0 {
            s = self.cond.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        *s = -1;
        RwLockWriteGuard { lock: self }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_struct("RwLock").field("data", &&*g).finish(),
            None => f.debug_struct("RwLock").field("data", &"<locked>").finish(),
        }
    }
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
}

impl<'a, T: ?Sized> Deref for RwLockReadGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.lock.data.get() }
    }
}

impl<'a, T: ?Sized> Drop for RwLockReadGuard<'a, T> {
    fn drop(&mut self) {
        let mut s = self.lock.state();
        *s -= 1;
        if *s == 0 {
            self.lock.cond.notify_all();
        }
    }
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
}

impl<'a, T: ?Sized> Deref for RwLockWriteGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.lock.data.get() }
    }
}

impl<'a, T: ?Sized> DerefMut for RwLockWriteGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<'a, T: ?Sized> Drop for RwLockWriteGuard<'a, T> {
    fn drop(&mut self) {
        let mut s = self.lock.state();
        *s = 0;
        self.lock.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_recursive_read_with_waiting_writer() {
        let l = Arc::new(RwLock::new(0u32));
        let outer = l.read();
        let l2 = l.clone();
        let writer = std::thread::spawn(move || {
            let mut g = l2.write();
            *g += 1;
        });
        // give the writer time to queue up, then take a recursive read;
        // with writer preference this would deadlock
        std::thread::sleep(Duration::from_millis(20));
        let inner = l.read_recursive();
        assert_eq!(*inner, 0);
        drop(inner);
        drop(outer);
        writer.join().unwrap();
        assert_eq!(*l.read(), 1);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let c = Condvar::new();
        let mut g = m.lock();
        let r = c.wait_for(&mut g, Duration::from_millis(5));
        assert!(r.timed_out());
    }
}
