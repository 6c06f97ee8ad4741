//! Test-only fault injection for the batch engine (feature `fault-inject`).
//!
//! The containment tests need a way to make a *specific query index* fail —
//! by panicking inside the refinement loop or by corrupting the query point
//! to NaN — while every other query in the batch stays healthy. This module
//! keeps a process-global plan of `(query index, fault)` pairs that
//! [`crate::batch::QueryBatch::try_run`] consults right before evaluating
//! each query.
//!
//! The plan is guarded by an [`InjectionGuard`] holding a global lock, so
//! concurrently running `#[test]`s cannot interleave their plans; dropping
//! the guard clears the plan even when the test itself panics. The batch
//! engine reads the plan without that lock, so a test must hold its guard
//! for *every* batch it runs — its healthy baseline included — or that
//! batch can pick up another test's live plan. Take `inject(&[])` first,
//! run the baseline, then arm the plan with [`InjectionGuard::set`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What to do to a planned query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the per-query evaluation closure.
    Panic,
    /// Replace the query point with an all-NaN vector so the validated
    /// entry path rejects it with `KarlError::NonFiniteQuery`.
    Nan,
}

static PLAN: Mutex<Vec<(usize, Fault)>> = Mutex::new(Vec::new());
static GATE: Mutex<()> = Mutex::new(());
static BASE: AtomicUsize = AtomicUsize::new(0);

fn plan() -> MutexGuard<'static, Vec<(usize, Fault)>> {
    // Injected panics unwind through the batch worker while it may hold
    // this lock-free path; the plan lock itself is only poisoned if a test
    // dies between install and clear — recover the data either way.
    PLAN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serializes fault-injection tests and clears the plan on drop.
pub struct InjectionGuard {
    _gate: MutexGuard<'static, ()>,
}

impl InjectionGuard {
    /// Replaces the installed plan (and resets the base offset) while the
    /// guard keeps holding the injection lock.
    pub fn set(&self, faults: &[(usize, Fault)]) {
        let mut p = plan();
        p.clear();
        p.extend_from_slice(faults);
        BASE.store(0, Ordering::SeqCst);
    }
}

impl Drop for InjectionGuard {
    fn drop(&mut self) {
        plan().clear();
        BASE.store(0, Ordering::SeqCst);
    }
}

/// Installs a fault plan, returning a guard that holds the global
/// injection lock until dropped. Tests must keep the guard alive for the
/// duration of the batch run they want sabotaged.
pub fn inject(faults: &[(usize, Fault)]) -> InjectionGuard {
    let guard = InjectionGuard {
        _gate: GATE.lock().unwrap_or_else(PoisonError::into_inner),
    };
    guard.set(faults);
    guard
}

/// Removes every planned fault (also done automatically on guard drop).
pub fn clear_plan() {
    plan().clear();
    BASE.store(0, Ordering::SeqCst);
}

/// Offsets subsequent plan lookups: the batch engine consults the plan at
/// `base + slot` for slot `i` of its query set. A standalone
/// [`crate::batch::QueryBatch`] run leaves the base at 0, so plan indices
/// are batch slots; the serve loop sets the base to its dispatch counter
/// before each micro-batch group, so plan indices address *dispatch
/// ordinals* — "poison the k-th request handed to the engine" — across
/// any number of micro-batches. Reset to 0 by [`inject`], [`clear_plan`]
/// and guard drop.
pub fn set_base(base: usize) {
    BASE.store(base, Ordering::SeqCst);
}

/// The current lookup offset (see [`set_base`]).
pub fn base() -> usize {
    BASE.load(Ordering::SeqCst)
}

/// The fault planned for lookup index `base() + slot`, if any. Consulted
/// by the batch engine once per query slot.
pub(crate) fn planned(slot: usize) -> Option<Fault> {
    let index = BASE.load(Ordering::SeqCst) + slot;
    plan().iter().find(|(i, _)| *i == index).map(|(_, f)| *f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_drop_alone_clears_the_plan() {
        // No batch reaches this index, so concurrent batch tests never see
        // the plan.
        let far = usize::MAX;
        let guard = inject(&[(far, Fault::Panic)]);
        assert_eq!(plan().as_slice(), &[(far, Fault::Panic)]);
        drop(guard);
        // Take the gate itself: `inject` would clear the plan on its own.
        // `BASE` is not checked, since serve tests set it without the gate.
        let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(plan().is_empty());
    }
}
