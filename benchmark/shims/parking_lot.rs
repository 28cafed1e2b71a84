//! Stand-in for `parking_lot` over `std::sync`, sufficient for
//! vira-storage and vira-dms: non-poisoning `Mutex` / `RwLock` whose
//! lock methods return the guard directly, and a `Condvar` that waits on
//! a `&mut MutexGuard`. A lock poisoned by a panicking holder is
//! recovered, as parking_lot would hand it over.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

/// Wraps the std guard in an `Option` so `Condvar::wait` can move it
/// out and back through a `&mut` borrow.
pub struct MutexGuard<'a, T>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    pub fn new(v: T) -> Self {
        Mutex(std::sync::Mutex::new(v))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0
            .as_ref()
            .expect("guard present outside Condvar::wait")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0
            .as_mut()
            .expect("guard present outside Condvar::wait")
    }
}

#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.0.take().expect("guard present outside Condvar::wait");
        guard.0 = Some(self.0.wait(g).unwrap_or_else(PoisonError::into_inner));
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }
}

#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    pub fn new(v: T) -> Self {
        RwLock(std::sync::RwLock::new(v))
    }

    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}
