//! Synchronization facade for every concurrent module in the workspace.
//!
//! Normal builds compile to thin zero-cost wrappers over `std::sync` (plus
//! straight re-exports of `std::sync::atomic`, `std::sync::mpsc`, and
//! `std::thread`). Under `RUSTFLAGS='--cfg maliva_model_check'` the same
//! names resolve to the instrumented shims from the vendored `loomlite`
//! model checker, so `loomlite::explore` can drive every lock acquisition,
//! atomic access, condvar wait, and spawn through its deterministic
//! scheduler.
//!
//! Rules (enforced by `cargo xtask lint`):
//!
//! - concurrent modules import `Mutex`/`RwLock`/`Condvar`/atomics/`mpsc`/
//!   `thread::spawn` from here, never from `std::sync` or `parking_lot`;
//! - `std::sync::Arc` is exempt (pure refcount, nothing to interleave), as is
//!   `std::thread::scope` (used only on paths model tests drive via `spawn`);
//! - a loop that hands work to threads is written once, over
//!   `maliva_serve::queue::WorkQueue` (a `Condvar` wait over a queue), so the
//!   model suites check the code that runs in production; outside its tests
//!   `vizdb` spawns no threads.
//!
//! The facade mutexes do not expose poisoning: a panicked writer is a bug the
//! model checker reports directly, and non-model builds recover the value.

#[cfg(maliva_model_check)]
pub use loomlite::sync::{
    atomic, mpsc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
#[cfg(maliva_model_check)]
pub use loomlite::thread;

#[cfg(not(maliva_model_check))]
pub use std::sync::atomic;
#[cfg(not(maliva_model_check))]
pub use std::sync::mpsc;
#[cfg(not(maliva_model_check))]
pub use std::thread;
#[cfg(not(maliva_model_check))]
pub use std_impl::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(not(maliva_model_check))]
mod std_impl {
    //! Non-poisoning wrappers over `std::sync` with the same API surface as
    //! the loomlite shims. `lock()`/`read()`/`write()` return guards directly
    //! (parking_lot style); a poisoned lock yields the inner value.

    use std::fmt;
    use std::ops::{Deref, DerefMut};

    pub struct Mutex<T: ?Sized> {
        inner: std::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        pub fn new(value: T) -> Self {
            Self {
                inner: std::sync::Mutex::new(value),
            }
        }

        /// Name is used only for model-check diagnostics; ignored here.
        pub fn with_name(value: T, _name: &'static str) -> Self {
            Self::new(value)
        }

        pub fn into_inner(self) -> T {
            self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
        }
    }

    impl<T: ?Sized> Mutex<T> {
        pub fn lock(&self) -> MutexGuard<'_, T> {
            MutexGuard {
                inner: self.inner.lock().unwrap_or_else(|e| e.into_inner()),
            }
        }

        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Self::new(T::default())
        }
    }

    impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Mutex").finish_non_exhaustive()
        }
    }

    pub struct MutexGuard<'a, T: ?Sized> {
        inner: std::sync::MutexGuard<'a, T>,
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    pub struct RwLock<T: ?Sized> {
        inner: std::sync::RwLock<T>,
    }

    impl<T> RwLock<T> {
        pub fn new(value: T) -> Self {
            Self {
                inner: std::sync::RwLock::new(value),
            }
        }

        pub fn with_name(value: T, _name: &'static str) -> Self {
            Self::new(value)
        }

        pub fn into_inner(self) -> T {
            self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
        }
    }

    impl<T: ?Sized> RwLock<T> {
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            RwLockReadGuard {
                inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
            }
        }

        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            RwLockWriteGuard {
                inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
            }
        }
    }

    impl<T: Default> Default for RwLock<T> {
        fn default() -> Self {
            Self::new(T::default())
        }
    }

    impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("RwLock").finish_non_exhaustive()
        }
    }

    pub struct RwLockReadGuard<'a, T: ?Sized> {
        inner: std::sync::RwLockReadGuard<'a, T>,
    }

    impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    pub struct RwLockWriteGuard<'a, T: ?Sized> {
        inner: std::sync::RwLockWriteGuard<'a, T>,
    }

    impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    pub struct Condvar {
        inner: std::sync::Condvar,
    }

    impl Condvar {
        pub fn new() -> Self {
            Self {
                inner: std::sync::Condvar::new(),
            }
        }

        pub fn with_name(_name: &'static str) -> Self {
            Self::new()
        }

        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            MutexGuard {
                inner: self
                    .inner
                    .wait(guard.inner)
                    .unwrap_or_else(|e| e.into_inner()),
            }
        }

        pub fn wait_while<'a, T, F>(
            &self,
            mut guard: MutexGuard<'a, T>,
            mut condition: F,
        ) -> MutexGuard<'a, T>
        where
            F: FnMut(&mut T) -> bool,
        {
            while condition(&mut guard) {
                guard = self.wait(guard);
            }
            guard
        }

        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        pub fn notify_all(&self) {
            self.inner.notify_all();
        }
    }

    impl Default for Condvar {
        fn default() -> Self {
            Self::new()
        }
    }

    impl fmt::Debug for Condvar {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Condvar").finish_non_exhaustive()
        }
    }
}
