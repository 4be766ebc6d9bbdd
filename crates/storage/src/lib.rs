#![warn(missing_docs)]

//! Relational storage substrate for bottom-up evaluation.
//!
//! The evaluator works on *relations* of ground tuples over the LDL1
//! universe. This crate provides:
//!
//! * [`Relation`]: an append-only, duplicate-free tuple store over a flat
//!   paged row arena, with incrementally-maintained position-keyed hash
//!   indexes on arbitrary column subsets — append-only storage gives
//!   semi-naive evaluation its deltas for free (a delta is just an index
//!   range), and the arena makes scans linear memory walks with no
//!   per-tuple allocation;
//! * [`Database`]: a name → relation map holding the EDB and, during
//!   evaluation, the growing IDB.

pub mod database;
pub mod relation;

pub use database::{intern_ids, resolve_fact, Database};
pub use relation::{IndexRef, Relation};
