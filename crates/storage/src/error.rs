//! Storage-layer errors.

use std::fmt;

/// Errors raised by the relational substrate.
#[derive(Clone, Debug, PartialEq)]
pub enum StorageError {
    /// A table name was not found in the catalog.
    UnknownTable(String),
    /// A column name was not found in a table.
    UnknownColumn { table: String, column: String },
    /// A row had the wrong number of values for its schema.
    Arity { table: String, expected: usize, got: usize },
    /// A value's type did not match its column's declared type.
    TypeMismatch { table: String, column: String },
    /// Primary-key uniqueness violation.
    DuplicateKey { table: String, key: i64 },
    /// Primary-key value was NULL or non-integer.
    BadPrimaryKey { table: String },
    /// A foreign key referenced a missing row.
    DanglingForeignKey { table: String, column: String, key: i64 },
    /// Schema construction error (e.g. FK declared on a non-Int column).
    BadSchema(String),
    /// An update/delete targeted a primary key with no live row.
    MissingRow { table: String, key: i64 },
    /// A delete would strand live rows still referencing the target
    /// (the mutation model is RESTRICT, not CASCADE).
    RestrictedDelete { table: String, key: i64, referencing_table: String },
    /// An update attempted to change a row's primary key.
    ImmutablePrimaryKey { table: String, key: i64 },
    /// A write would carry a table past a fixed limit of its layout:
    /// `u32` row ids, or `u32` offsets into a text column's arena.
    /// Checked before any index or cell moves; nothing was mutated.
    LimitExceeded { table: String, limit: &'static str },
    /// A durability hook (write-ahead log, segment checkpoint) failed
    /// before the mutation settled; nothing was mutated. Carries the
    /// disk-layer error rendered as text so the storage crate stays
    /// independent of the disk crate.
    Durability(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            StorageError::UnknownColumn { table, column } => {
                write!(f, "unknown column `{column}` in table `{table}`")
            }
            StorageError::Arity { table, expected, got } => {
                write!(f, "row for `{table}` has {got} values, schema expects {expected}")
            }
            StorageError::TypeMismatch { table, column } => {
                write!(f, "type mismatch for `{table}.{column}`")
            }
            StorageError::DuplicateKey { table, key } => {
                write!(f, "duplicate primary key {key} in `{table}`")
            }
            StorageError::BadPrimaryKey { table } => {
                write!(f, "primary key of `{table}` must be a non-null Int")
            }
            StorageError::DanglingForeignKey { table, column, key } => {
                write!(f, "`{table}.{column}` = {key} references a missing row")
            }
            StorageError::BadSchema(msg) => write!(f, "bad schema: {msg}"),
            StorageError::MissingRow { table, key } => {
                write!(f, "no live row with primary key {key} in `{table}`")
            }
            StorageError::RestrictedDelete { table, key, referencing_table } => {
                write!(
                    f,
                    "cannot delete `{table}` pk {key}: still referenced by `{referencing_table}`"
                )
            }
            StorageError::ImmutablePrimaryKey { table, key } => {
                write!(f, "primary key {key} of `{table}` is immutable under update")
            }
            StorageError::LimitExceeded { table, limit } => {
                write!(f, "`{table}` cannot take the write: it would pass {limit}")
            }
            StorageError::Durability(msg) => write!(f, "durability failure: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = StorageError::DanglingForeignKey {
            table: "Paper".into(),
            column: "year_id".into(),
            key: 99,
        };
        let msg = e.to_string();
        assert!(msg.contains("Paper.year_id"));
        assert!(msg.contains("99"));
    }
}
