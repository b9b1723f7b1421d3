//! Row storage: columnar tables, text dictionaries, sample tables and cell
//! columns.

mod cells;
mod dictionary;
mod sample;
mod table;

pub(crate) use cells::CellKey;
pub use cells::{BuildOnce, CellColumn, CellColumnSlot};
pub use dictionary::Dictionary;
pub(crate) use sample::check_fraction;
pub use sample::SampleTable;
pub use table::{ColumnData, RowWriter, Table, TableBuilder, TextColumn};
