//! Row storage: columnar tables, text dictionaries and sample tables.

mod dictionary;
mod sample;
mod table;

pub use dictionary::Dictionary;
pub(crate) use sample::check_fraction;
pub use sample::{BuildOnce, SampleTable};
pub use table::{ColumnData, RowWriter, Table, TableBuilder, TextColumn};
