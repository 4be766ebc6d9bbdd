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
//! * the operation's [`Drive`](crate::fixpoint::Drive) enforces them, and
//!   only *at round boundaries*: [`run_round`](crate::fixpoint::run_round)
//!   calls [`Drive::check`](crate::fixpoint::Drive::check) before and after
//!   each application of §3.2's `R`, never inside one. Fuel and the fact
//!   cap read the operation's own [`EvalStats`](crate::EvalStats) counters,
//!   so there is one ledger per operation. A round reads one immutable
//!   snapshot and merges its buffers in fixed order, so aborting only
//!   *between* rounds keeps every run deterministic — it either completes
//!   identically to an unbudgeted run or aborts wholesale.
//!
//! There is one stop rule for every trigger: the round in flight when a
//! limit is crossed — fuel spent, the deadline passed, the token cancelled
//! (Ctrl-C) — runs to its end, and the check at its boundary aborts.
//!
//! An exceeded limit surfaces as
//! [`EvalError::ResourceExhausted`](crate::EvalError) naming the resource,
//! how much was consumed, and which stratum/predicate was being evaluated.
//! Abort safety is the caller's half of the contract: full evaluation is
//! shadowed (it builds a fresh database that is simply dropped on error),
//! and incremental commits roll their EDB back and drop the cached model,
//! so a retry re-evaluates from a state bit-identical to a clean run.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The process-global flag behind [`CancelToken::global`]. Const-initialized
/// so a signal handler can reach it without any allocation or locking.
static GLOBAL: AtomicBool = AtomicBool::new(false);

/// A shared, cloneable cancellation flag.
///
/// Cloning yields another handle to the *same* flag: cancel from any clone
/// (a signal handler, another thread) and every evaluation holding the token
/// aborts at its next round boundary with
/// [`EvalError::ResourceExhausted`](crate::EvalError) (`Interrupt`).
///
/// [`CancelToken::global`] returns a handle to one process-wide static flag —
/// the only kind safe to touch from a signal handler ([`CancelToken::cancel`]
/// on it is a single atomic store).
#[derive(Clone, Debug)]
pub struct CancelToken {
    repr: Repr,
}

#[derive(Clone, Debug)]
enum Repr {
    Owned(Arc<AtomicBool>),
    Global,
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken {
            repr: Repr::Owned(Arc::new(AtomicBool::new(false))),
        }
    }

    /// The process-global token. Async-signal-safe to
    /// [`CancelToken::cancel`]: the flag is a const-initialized static and
    /// cancelling is one atomic store, so a `SIGINT` handler may call it.
    pub fn global() -> CancelToken {
        CancelToken { repr: Repr::Global }
    }

    fn flag(&self) -> &AtomicBool {
        match &self.repr {
            Repr::Owned(a) => a,
            Repr::Global => &GLOBAL,
        }
    }

    /// Request cancellation: every evaluation sharing this token finishes
    /// its round in flight and aborts at that round's boundary.
    pub fn cancel(&self) {
        self.flag().store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag().load(Ordering::Acquire)
    }

    /// Clear the cancelled flag, making the token reusable for the next
    /// evaluation.
    pub fn reset(&self) {
        self.flag().store(false, Ordering::Release);
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
    /// The value-interner size cap ([`Budget::max_interned`]): arena
    /// values, not counting in-range integers.
    Interner,
    /// External cancellation: the [`CancelToken`] was cancelled (Ctrl-C,
    /// another thread).
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
    /// speed. The drive aborts at the end of the first round whose
    /// cumulative attempts exceed it.
    pub fuel: Option<u64>,
    /// Wall-clock limit for the whole drive, measured from the moment the
    /// evaluation starts (checked at round boundaries).
    pub deadline: Option<Duration>,
    /// Maximum facts derived (new tuples inserted) by this drive.
    pub max_facts: Option<u64>,
    /// Cap on the *process-global* value interner's size. Coarse by nature
    /// (the interner is shared and append-only) but the only lever against
    /// unbounded term growth — `n(s(X))` interns a new value every round.
    /// An integer in `−2^30 ..= 2^30 − 1` is its own id and takes no slot,
    /// so counting up through that range does not move it.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EvalOptions;
    use crate::error::EvalError;
    use crate::fixpoint::{run_round, Drive, RoundTask};
    use crate::plan::RulePlan;
    use crate::stats::EvalStats;
    use ldl_parser::parse_rule;
    use ldl_storage::Database;
    use ldl_value::Value;

    fn options(budget: Budget) -> EvalOptions {
        EvalOptions {
            budget,
            ..EvalOptions::default()
        }
    }

    /// The kind, amount consumed and limit of a budget abort.
    fn resource(r: Result<(), EvalError>) -> Option<(ResourceKind, u64, u64)> {
        match r {
            Ok(()) => None,
            Err(EvalError::ResourceExhausted {
                resource,
                consumed,
                limit,
                ..
            }) => Some((resource, consumed, limit)),
            Err(e) => panic!("not a budget abort: {e}"),
        }
    }

    #[test]
    fn unlimited_budget_always_passes() {
        let opts = options(Budget::unlimited());
        let mut stats = EvalStats::new();
        let drive = Drive::new(&opts, &mut stats);
        drive.stats.attempts = u64::MAX / 2;
        drive.stats.facts_derived = u64::MAX / 2;
        assert!(drive.check().is_ok());
    }

    #[test]
    fn fuel_and_fact_limits_trip() {
        let opts = options(Budget::unlimited().with_fuel(10));
        let mut stats = EvalStats::new();
        let drive = Drive::new(&opts, &mut stats);
        drive.stats.attempts = 10;
        assert_eq!(resource(drive.check()), None, "at the limit is still fine");
        drive.stats.attempts = 11;
        assert_eq!(resource(drive.check()), Some((ResourceKind::Fuel, 11, 10)));

        let opts = options(Budget::unlimited().with_max_facts(3));
        let mut stats = EvalStats::new();
        let drive = Drive::new(&opts, &mut stats);
        drive.stats.attempts = 100;
        drive.stats.facts_derived = 4;
        assert_eq!(resource(drive.check()), Some((ResourceKind::Facts, 4, 3)));
    }

    /// The rounds of a naive transitive closure over a 6-edge chain, run
    /// under `budget` until one derives nothing: the cumulative attempts at
    /// each round's end, and the abort if the drive stopped.
    fn closure_rounds(budget: Budget) -> (Vec<u64>, Option<(ResourceKind, u64, u64)>) {
        let plans: Vec<RulePlan> = ["t(X, Y) <- e(X, Y).", "t(X, Z) <- t(X, Y), e(Y, Z)."]
            .iter()
            .map(|r| RulePlan::compile(&parse_rule(r).unwrap(), None).unwrap())
            .collect();
        let tasks: Vec<RoundTask<'_>> = plans
            .iter()
            .map(|p| RoundTask::new(p, None, true))
            .collect();
        let mut db = Database::new();
        for i in 0..6 {
            db.insert_tuple("e", vec![Value::int(i), Value::int(i + 1)]);
        }
        db.relation_mut("t".into(), 2);
        let opts = options(budget);
        let mut stats = EvalStats::new();
        let mut drive = Drive::new(&opts, &mut stats);
        let mut ends = Vec::new();
        loop {
            let new = match run_round(&tasks, &mut db, &mut drive) {
                Ok(new) => new,
                Err(e) => return (ends, resource(Err(e))),
            };
            ends.push(drive.stats.attempts);
            if new == 0 {
                return (ends, None);
            }
        }
    }

    /// Fuel `n − 1` stops a drive where its `n`-th attempt lands: at the
    /// end of the first round whose cumulative attempts reach `n`, with
    /// every earlier round complete and no later one begun.
    #[test]
    fn fuel_stops_at_the_boundary_of_the_round_that_spends_it() {
        let (ends, abort) = closure_rounds(Budget::unlimited());
        assert_eq!(abort, None);
        let total = *ends.last().unwrap();
        assert!(ends.len() > 3, "{ends:?}");
        for n in 1..=total {
            let (done, abort) = closure_rounds(Budget::unlimited().with_fuel(n - 1));
            let stop = ends.iter().position(|&e| e >= n).unwrap();
            assert_eq!(
                abort,
                Some((ResourceKind::Fuel, ends[stop], n - 1)),
                "n = {n}"
            );
            assert_eq!(done, ends[..stop], "n = {n}");
        }
    }

    /// A token cancelled before the drive starts stops it before its
    /// first round.
    #[test]
    fn a_cancelled_token_stops_before_the_first_round() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let (done, abort) = closure_rounds(Budget::unlimited().with_cancel(cancel));
        assert_eq!(
            (done, abort),
            (vec![], Some((ResourceKind::Interrupt, 0, 0)))
        );
    }

    #[test]
    fn deadline_trips_after_elapsing() {
        let opts = options(Budget::unlimited().with_deadline(Duration::from_millis(0)));
        let mut stats = EvalStats::new();
        let drive = Drive::new(&opts, &mut stats);
        std::thread::sleep(Duration::from_millis(1));
        assert!(matches!(
            resource(drive.check()),
            Some((ResourceKind::Time, _, 0))
        ));
    }

    #[test]
    fn cancel_token_is_shared_and_resettable() {
        let opts = options(Budget::unlimited());
        let handle = opts.budget.cancel.clone();
        let mut stats = EvalStats::new();
        let drive = Drive::new(&opts, &mut stats);
        assert!(drive.check().is_ok());
        handle.cancel();
        assert_eq!(
            resource(drive.check()),
            Some((ResourceKind::Interrupt, 0, 0))
        );
        handle.reset();
        assert!(drive.check().is_ok());
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
