//! Relational-model substrate for the *Independence-reducible Database
//! Schemes* reproduction (Chan & Hernández, PODS 1988).
//!
//! This crate provides the data model every other crate in the workspace is
//! built on:
//!
//! * [`Universe`] — the fixed, finite set of attributes `U = {A1, …, An}`
//!   with string interning ([`Attribute`] ids).
//! * [`AttrSet`] — fast, `Copy` bitsets over the universe (up to
//!   [`MAX_ATTRS`] attributes), used for relation schemes, FD sides,
//!   closures and keys.
//! * [`SymbolTable`] / [`Value`] — interned constants for tuple components.
//! * [`Tuple`] — a total tuple over an arbitrary attribute set; tuples over
//!   a *subset* of a relation scheme double as the "partial tuples / total
//!   on C" objects the paper's algorithms manipulate.
//! * [`Relation`], [`DatabaseState`] — relations with set semantics and
//!   database states `r = <r1, …, rk>`.
//! * [`RelationScheme`], [`DatabaseScheme`] — schemes with embedded
//!   candidate keys (the paper's standing assumption is that a cover of the
//!   FDs is embedded as key dependencies).
//! * [`algebra`] — a small relational-algebra AST (projection, conjunctive
//!   selection, natural join, union) with an evaluator, matching §2.6 of
//!   the paper (extension joins, sequential joins) and the expressions of
//!   Corollary 3.1(b) / Theorem 4.1.


#![warn(missing_docs)]
pub mod algebra;
mod attrset;
mod error;
mod eval;
pub mod exec;
pub mod parse;
mod relation;
pub mod rng;
mod schema;
mod state;
mod symbol;
mod tuple;
mod universe;

pub use attrset::{AttrSet, AttrSetIter, MAX_ATTRS};
pub use error::RelationError;
pub use relation::Relation;
pub use schema::{DatabaseScheme, RelationScheme, SchemeBuilder};
pub use state::{state_of, DatabaseState};
pub use symbol::{SymbolTable, Value};
pub use tuple::Tuple;
pub use universe::{Attribute, Universe};
