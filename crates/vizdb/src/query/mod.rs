//! Query representation: predicates, output shapes, joins and SQL rendering.

mod ast;
mod sql;

pub(crate) use ast::CellMap;
pub use ast::{BinGrid, JoinSpec, OutputKind, Predicate, Query};
pub use sql::render_sql;
