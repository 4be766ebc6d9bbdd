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
//!   evaluation, the growing IDB;
//! * [`WordSet`]: a set of tuples of one or two ids packed into a word,
//!   with which one rule pass drops a tuple it has already emitted.

pub mod database;
pub mod relation;
pub mod word_set;

pub use database::{intern_ids, resolve_fact, Database, IdRows};
pub use relation::{IndexRef, Relation};
pub use word_set::WordSet;
