//! Evaluation errors.

use std::fmt;

use ldl_ast::rule::Rule;
use ldl_ast::wf::WfError;
use ldl_stratify::NotAdmissible;

use crate::budget::ResourceKind;

/// Errors raised while compiling or evaluating a program.
#[derive(Clone, Debug)]
pub enum EvalError {
    /// The program failed §2.1 well-formedness.
    WellFormedness(Vec<WfError>),
    /// The program is not admissible (§3.1) — no layering exists.
    NotAdmissible(NotAdmissible),
    /// No executable ordering of a rule's body exists: some built-in or
    /// negated literal can never have its required arguments bound.
    Unschedulable {
        /// The offending rule.
        rule: Rule,
        /// Which literals could not be scheduled.
        detail: String,
    },
    /// The §6 magic-set pipeline could not adorn the program for a query.
    Adornment(String),
    /// A relation is used with two different arities.
    ArityMismatch {
        /// The predicate name.
        pred: String,
        /// Arity seen first.
        expected: usize,
        /// Conflicting arity.
        found: usize,
    },
    /// A generative mode of `subset`, `union` or `partition` met a set of
    /// more than [`MAX_ENUMERATED_SET`](crate::builtins::MAX_ENUMERATED_SET)
    /// elements. The operation aborts as on a budget trip.
    Enumeration {
        /// The built-in, as `name/arity`.
        builtin: &'static str,
        /// The size of the set.
        size: usize,
    },
    /// Evaluation was aborted by its [`Budget`](crate::Budget): a resource
    /// limit was exceeded, or the [`CancelToken`](crate::CancelToken)
    /// tripped. The aborting operation is transactional — the EDB keeps its
    /// pre-call rows, positions and liveness, and a retry with a sufficient budget recomputes a
    /// model bit-identical to an uninterrupted run.
    ResourceExhausted {
        /// Which limit tripped.
        resource: ResourceKind,
        /// How much had been consumed when the abort fired (attempts,
        /// facts, milliseconds, or interned values, per `resource`;
        /// attempts for an interrupt).
        consumed: u64,
        /// The configured limit (0 for an interrupt, which has none).
        limit: u64,
        /// The stratum being evaluated when the abort fired.
        stratum: usize,
        /// A head predicate of that stratum, as context.
        pred: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::WellFormedness(errs) => {
                writeln!(f, "program is not well-formed:")?;
                for e in errs {
                    writeln!(f, "  - {e}")?;
                }
                Ok(())
            }
            EvalError::NotAdmissible(e) => write!(f, "{e}"),
            EvalError::Unschedulable { rule, detail } => {
                write!(f, "cannot schedule body of rule {rule}: {detail}")
            }
            EvalError::Adornment(msg) => write!(f, "magic-set compilation failed: {msg}"),
            EvalError::ArityMismatch {
                pred,
                expected,
                found,
            } => write!(
                f,
                "predicate {pred} used with arity {found}, expected {expected}"
            ),
            EvalError::Enumeration { builtin, size } => write!(
                f,
                "{builtin} cannot enumerate over a set of {size} elements: its generative \
                 mode takes sets of at most {} elements",
                crate::builtins::MAX_ENUMERATED_SET
            ),
            EvalError::ResourceExhausted {
                resource: ResourceKind::Interrupt,
                consumed,
                stratum,
                pred,
                ..
            } => write!(
                f,
                "evaluation interrupted (cancel token tripped after {consumed} derivation \
                 attempts) in stratum {stratum} while evaluating {pred}"
            ),
            EvalError::ResourceExhausted {
                resource,
                consumed,
                limit,
                stratum,
                pred,
            } => {
                let unit = match resource {
                    ResourceKind::Fuel => "attempts",
                    ResourceKind::Time => "ms",
                    ResourceKind::Facts => "facts",
                    ResourceKind::Interner => "values",
                    ResourceKind::Interrupt => unreachable!("matched above"),
                };
                write!(
                    f,
                    "evaluation aborted: {resource} limit exceeded ({consumed} of {limit} {unit}) \
                     in stratum {stratum} while evaluating {pred}"
                )
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<NotAdmissible> for EvalError {
    fn from(e: NotAdmissible) -> EvalError {
        EvalError::NotAdmissible(e)
    }
}

impl From<Vec<WfError>> for EvalError {
    fn from(e: Vec<WfError>) -> EvalError {
        EvalError::WellFormedness(e)
    }
}
