//! Resource governance: budgets, cooperative cancellation, and abort.
//!
//! LDL1's universe `U` is the ω-closure of a Herbrand universe with function
//! symbols (§2.2), so perfectly legal programs — `n(s(X)) <- n(X). n(z).` —
//! have *infinite* minimal models. A fixpoint evaluator that cannot be
//! bounded or interrupted turns such a program into a hung process. This
//! module makes every evaluation drive boundable:
//!
//! * a [`Budget`] declares the limits — fuel (derivation attempts), a
//!   wall-clock deadline, a derived-fact cap, an interner-size cap — plus a
//!   shared [`CancelToken`] for external interruption (Ctrl-C);
//! * a [`BudgetMeter`] is created per evaluation drive and consulted
//!   *cooperatively at round boundaries*: the fixpoints call
//!   [`BudgetMeter::check`] before and after each evaluation round, never
//!   inside one. A round reads one immutable snapshot and merges its
//!   buffers in fixed order, so aborting only *between* rounds keeps every
//!   run deterministic — it either completes identically to an unbudgeted
//!   run or aborts wholesale;
//! * a [`RoundGate`] is the per-derivation-attempt hook handed to every
//!   rule pass. On the production path it is a no-op (no atomics
//!   per tuple — the per-round check is the only real cost); when a test
//!   arms the token with [`CancelToken::trip_after`], each attempt counts
//!   down and trips cancellation at a chosen derivation — the fault
//!   injection behind the abort-then-retry differential suite.
//!
//! An exceeded limit surfaces as
//! [`EvalError::ResourceExhausted`](crate::EvalError) naming the resource,
//! how much was consumed, and which stratum/predicate was being evaluated.
//! Abort safety is the caller's half of the contract: full evaluation is
//! shadowed (it builds a fresh database that is simply dropped on error),
//! and incremental commits roll their EDB back and drop the cached model,
//! so a retry re-evaluates from a state bit-identical to a clean run.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ldl_value::{intern, Symbol};

use crate::error::EvalError;

/// Countdown value meaning "fault injection disarmed".
const UNARMED: u64 = u64::MAX;

/// The shared cancellation cell: a flag plus a fault-injection countdown.
#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    /// Remaining derivation attempts before the token trips itself;
    /// [`UNARMED`] when fault injection is off (the normal state).
    countdown: AtomicU64,
}

impl CancelInner {
    const fn new() -> CancelInner {
        CancelInner {
            cancelled: AtomicBool::new(false),
            countdown: AtomicU64::new(UNARMED),
        }
    }

    /// One derivation attempt under an armed countdown.
    fn tick_armed(&self) {
        if self.cancelled.load(Ordering::Relaxed) {
            return; // already tripped; stop decrementing
        }
        if self.countdown.fetch_sub(1, Ordering::Relaxed) == 1 {
            self.cancelled.store(true, Ordering::Release);
        }
    }
}

/// The process-global token behind [`CancelToken::global`]. Const-initialized
/// so a signal handler can reach it without any allocation or locking.
static GLOBAL: CancelInner = CancelInner::new();

/// A shared, cloneable cancellation handle.
///
/// Cloning yields another handle to the *same* cell: cancel from any clone
/// (a signal handler, another thread) and every evaluation holding the token
/// aborts at its next round boundary with
/// [`EvalError::ResourceExhausted`](crate::EvalError) (`Interrupt`).
///
/// [`CancelToken::global`] returns a handle to one process-wide static cell —
/// the only kind safe to touch from a signal handler ([`CancelToken::cancel`]
/// on it is a single atomic store).
#[derive(Clone, Debug)]
pub struct CancelToken {
    repr: Repr,
}

#[derive(Clone, Debug)]
enum Repr {
    Owned(Arc<CancelInner>),
    Global,
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> CancelToken {
        CancelToken {
            repr: Repr::Owned(Arc::new(CancelInner::new())),
        }
    }

    /// The process-global token. Async-signal-safe to
    /// [`CancelToken::cancel`]: the cell is a const-initialized static and
    /// cancelling is one atomic store, so a `SIGINT` handler may call it.
    pub fn global() -> CancelToken {
        CancelToken { repr: Repr::Global }
    }

    fn inner(&self) -> &CancelInner {
        match &self.repr {
            Repr::Owned(a) => a,
            Repr::Global => &GLOBAL,
        }
    }

    /// Request cancellation: every evaluation sharing this token aborts at
    /// its next round boundary.
    pub fn cancel(&self) {
        self.inner().cancelled.store(true, Ordering::Release);
    }

    /// Has cancellation been requested (or the countdown tripped)?
    pub fn is_cancelled(&self) -> bool {
        self.inner().cancelled.load(Ordering::Acquire)
    }

    /// Clear the cancelled flag and disarm any fault-injection countdown,
    /// making the token reusable for the next evaluation.
    pub fn reset(&self) {
        let inner = self.inner();
        inner.countdown.store(UNARMED, Ordering::Relaxed);
        inner.cancelled.store(false, Ordering::Release);
    }

    /// Fault injection: trip the token after `n` more derivation attempts
    /// (`n == 0` trips immediately). The abort-then-retry differential suite
    /// uses this to kill an evaluation at an arbitrary derivation and prove
    /// that a retry is bit-identical to a clean run.
    pub fn trip_after(&self, n: u64) {
        if n == 0 {
            self.cancel();
        } else {
            self.inner().countdown.store(n, Ordering::Relaxed);
        }
    }

    fn is_armed(&self) -> bool {
        self.inner().countdown.load(Ordering::Relaxed) != UNARMED
    }
}

/// Which resource limit an aborted evaluation ran into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResourceKind {
    /// The fuel cap: derivation attempts ([`Budget::fuel`]).
    Fuel,
    /// The wall-clock deadline ([`Budget::deadline`]).
    Time,
    /// The derived-fact cap ([`Budget::max_facts`]).
    Facts,
    /// The value-interner size cap ([`Budget::max_interned`]).
    Interner,
    /// External cancellation: the [`CancelToken`] was tripped (Ctrl-C, or a
    /// fault-injection countdown).
    Interrupt,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ResourceKind::Fuel => "fuel",
            ResourceKind::Time => "deadline",
            ResourceKind::Facts => "derived facts",
            ResourceKind::Interner => "interner size",
            ResourceKind::Interrupt => "interrupt",
        })
    }
}

/// Resource limits for one evaluation drive. The default is unlimited —
/// every limit off, a fresh never-tripped token — so existing callers pay
/// nothing.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Maximum derivation attempts (body solutions enumerated across all
    /// rule passes). The deterministic work cap: independent of machine
    /// speed.
    pub fuel: Option<u64>,
    /// Wall-clock limit for the whole drive, measured from the moment the
    /// evaluation starts (checked at round boundaries).
    pub deadline: Option<Duration>,
    /// Maximum facts derived (new tuples inserted) by this drive.
    pub max_facts: Option<u64>,
    /// Cap on the *process-global* value interner's size. Coarse by nature
    /// (the interner is shared and append-only) but the only lever against
    /// unbounded term growth — `n(s(X))` interns a new value every round.
    pub max_interned: Option<u64>,
    /// Cooperative cancellation handle; see [`CancelToken`].
    pub cancel: CancelToken,
}

impl Budget {
    /// No limits (the default).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Set the fuel cap.
    pub fn with_fuel(mut self, attempts: u64) -> Budget {
        self.fuel = Some(attempts);
        self
    }

    /// Set the wall-clock deadline.
    pub fn with_deadline(mut self, limit: Duration) -> Budget {
        self.deadline = Some(limit);
        self
    }

    /// Set the derived-fact cap.
    pub fn with_max_facts(mut self, facts: u64) -> Budget {
        self.max_facts = Some(facts);
        self
    }

    /// Set the interner-size cap.
    pub fn with_max_interned(mut self, values: u64) -> Budget {
        self.max_interned = Some(values);
        self
    }

    /// Use the given cancellation token (e.g. [`CancelToken::global`] so a
    /// signal handler can interrupt).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Budget {
        self.cancel = cancel;
        self
    }

    /// Is any limit set? (Cancellation is always possible and not counted.)
    pub fn is_limited(&self) -> bool {
        self.fuel.is_some()
            || self.deadline.is_some()
            || self.max_facts.is_some()
            || self.max_interned.is_some()
    }

    /// The per-attempt hook for one round's work units. Unarmed (the normal
    /// case) its `tick` is a branch on a local bool — no atomics.
    pub fn gate(&self) -> RoundGate<'_> {
        RoundGate {
            cancel: Some(self.cancel.inner()),
            armed: self.cancel.is_armed(),
        }
    }
}

/// Per-derivation-attempt hook handed to every rule pass.
///
/// `Copy`, so every pass of a round can carry one while the meter stays
/// exclusively borrowed. On the production path [`tick`](RoundGate::tick)
/// does nothing; when the budget's token is armed with
/// [`CancelToken::trip_after`] it counts attempts down and trips
/// cancellation.
#[derive(Clone, Copy, Debug)]
pub struct RoundGate<'a> {
    cancel: Option<&'a CancelInner>,
    armed: bool,
}

impl RoundGate<'_> {
    /// A gate connected to nothing, for callers evaluating without a budget
    /// (tests, the model checker).
    pub const fn open() -> RoundGate<'static> {
        RoundGate {
            cancel: None,
            armed: false,
        }
    }

    /// Record one derivation attempt. No-op unless fault injection armed it.
    #[inline]
    pub fn tick(&self) {
        if self.armed {
            if let Some(c) = self.cancel {
                c.tick_armed();
            }
        }
    }

    /// Has the token already tripped? Work units consult this once on entry
    /// so an interrupted round stops scheduling useless passes — safe
    /// because an aborted drive's results are discarded wholesale, never
    /// observed.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.cancel
            .is_some_and(|c| c.cancelled.load(Ordering::Relaxed))
    }
}

/// The consumption ledger for one evaluation drive (one full evaluation,
/// one incremental update, or one magic-set query).
///
/// Created from the drive's [`Budget`]; the fixpoints
/// [`charge`](BudgetMeter::charge) each round's work into it and
/// [`check`](BudgetMeter::check) it at round boundaries. The deadline is
/// resolved to an absolute instant at construction, so nested fixpoints
/// (the magic-set schedule) share one clock.
#[derive(Debug)]
pub struct BudgetMeter<'a> {
    budget: &'a Budget,
    started: Instant,
    deadline: Option<Instant>,
    /// Derivation attempts charged so far.
    pub attempts: u64,
    /// Facts derived (new tuples inserted) so far.
    pub facts: u64,
    stratum: usize,
    pred: Option<Symbol>,
}

impl<'a> BudgetMeter<'a> {
    /// A fresh meter; the deadline clock starts now.
    pub fn new(budget: &'a Budget) -> BudgetMeter<'a> {
        let started = Instant::now();
        BudgetMeter {
            budget,
            started,
            deadline: budget.deadline.map(|d| started + d),
            attempts: 0,
            facts: 0,
            stratum: 0,
            pred: None,
        }
    }

    /// Record which stratum (and representative head predicate) is being
    /// evaluated, for abort diagnostics.
    pub fn set_context(&mut self, stratum: usize, pred: Option<Symbol>) {
        self.stratum = stratum;
        self.pred = pred;
    }

    /// Charge one round's consumption.
    pub fn charge(&mut self, attempts: u64, facts: u64) {
        self.attempts += attempts;
        self.facts += facts;
    }

    fn exhausted(&self, resource: ResourceKind, consumed: u64, limit: u64) -> EvalError {
        EvalError::ResourceExhausted {
            resource,
            consumed,
            limit,
            stratum: self.stratum,
            pred: self.pred.map_or_else(|| "?".to_string(), |p| p.to_string()),
        }
    }

    /// Round-boundary check: abort if any limit is exceeded or the token
    /// tripped. Cheap when nothing is configured — one atomic load for the
    /// token, a compare per set limit, a clock read only under a deadline,
    /// an interner-size read only under an interner cap.
    pub fn check(&self) -> Result<(), EvalError> {
        let b = self.budget;
        if b.cancel.is_cancelled() {
            return Err(self.exhausted(ResourceKind::Interrupt, self.attempts, 0));
        }
        if let Some(limit) = b.fuel {
            if self.attempts > limit {
                return Err(self.exhausted(ResourceKind::Fuel, self.attempts, limit));
            }
        }
        if let Some(limit) = b.max_facts {
            if self.facts > limit {
                return Err(self.exhausted(ResourceKind::Facts, self.facts, limit));
            }
        }
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            if now >= deadline {
                return Err(self.exhausted(
                    ResourceKind::Time,
                    (now - self.started).as_millis() as u64,
                    b.deadline.unwrap_or_default().as_millis() as u64,
                ));
            }
        }
        if let Some(limit) = b.max_interned {
            let len = intern::len() as u64;
            if len > limit {
                return Err(self.exhausted(ResourceKind::Interner, len, limit));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = Budget::unlimited();
        assert!(!b.is_limited());
        let mut m = BudgetMeter::new(&b);
        m.charge(u64::MAX / 2, u64::MAX / 2);
        assert!(m.check().is_ok());
    }

    #[test]
    fn fuel_and_fact_limits_trip() {
        let b = Budget::unlimited().with_fuel(10);
        let mut m = BudgetMeter::new(&b);
        m.charge(10, 0);
        assert!(m.check().is_ok(), "at the limit is still fine");
        m.charge(1, 0);
        let err = m.check().unwrap_err();
        assert!(matches!(
            err,
            EvalError::ResourceExhausted {
                resource: ResourceKind::Fuel,
                consumed: 11,
                limit: 10,
                ..
            }
        ));

        let b = Budget::unlimited().with_max_facts(3);
        let mut m = BudgetMeter::new(&b);
        m.charge(100, 4);
        assert!(matches!(
            m.check().unwrap_err(),
            EvalError::ResourceExhausted {
                resource: ResourceKind::Facts,
                ..
            }
        ));
    }

    #[test]
    fn deadline_trips_after_elapsing() {
        let b = Budget::unlimited().with_deadline(Duration::from_millis(0));
        let m = BudgetMeter::new(&b);
        std::thread::sleep(Duration::from_millis(1));
        assert!(matches!(
            m.check().unwrap_err(),
            EvalError::ResourceExhausted {
                resource: ResourceKind::Time,
                ..
            }
        ));
    }

    #[test]
    fn cancel_token_is_shared_and_resettable() {
        let b = Budget::unlimited();
        let handle = b.cancel.clone();
        let m = BudgetMeter::new(&b);
        assert!(m.check().is_ok());
        handle.cancel();
        assert!(matches!(
            m.check().unwrap_err(),
            EvalError::ResourceExhausted {
                resource: ResourceKind::Interrupt,
                ..
            }
        ));
        handle.reset();
        assert!(m.check().is_ok());
    }

    #[test]
    fn trip_after_counts_gate_ticks() {
        let b = Budget::unlimited();
        b.cancel.trip_after(3);
        let gate = b.gate();
        gate.tick();
        gate.tick();
        assert!(!b.cancel.is_cancelled());
        gate.tick();
        assert!(b.cancel.is_cancelled());
        assert!(gate.is_cancelled());
        b.cancel.reset();
        assert!(!b.cancel.is_cancelled());
    }

    #[test]
    fn unarmed_gate_never_trips() {
        let b = Budget::unlimited();
        let gate = b.gate();
        for _ in 0..1000 {
            gate.tick();
        }
        assert!(!b.cancel.is_cancelled());
        let open = RoundGate::open();
        open.tick();
        assert!(!open.is_cancelled());
    }

    #[test]
    fn trip_after_zero_cancels_immediately() {
        let b = Budget::unlimited();
        b.cancel.trip_after(0);
        assert!(b.cancel.is_cancelled());
        b.cancel.reset();
    }

    #[test]
    fn global_token_is_process_shared() {
        let a = CancelToken::global();
        let b = CancelToken::global();
        a.reset();
        a.cancel();
        assert!(b.is_cancelled());
        b.reset();
        assert!(!a.is_cancelled());
    }
}
