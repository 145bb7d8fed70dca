//! The one serialised form of a [`Mutation`] batch, over
//! [`sizel_storage::codec`]. The wire's `ApplyBatch` payload is exactly
//! these bytes and a WAL record is an epoch followed by them
//! ([`crate::durability`]), so any batch the front-end can decode is a
//! record recovery can read back.
//!
//! ```text
//! [n_mutations u32] then per mutation:
//!   [table u32 len + utf-8]
//!   [reserved u8 = 0] [op u8: 0=insert 1=update 2=delete]
//!   insert:          [n_values u32] [values]
//!   update: [pk i64] [n_values u32] [values]
//!   delete: [pk i64]
//! ```
//!
//! Scalars and values are laid out as `sizel_storage::codec` defines
//! them; counts are capped by the bytes that remain before anything is
//! allocated for them.
//!
//! The reserved byte is written 0 and any other value is a
//! [`CodecError`]. It stays in the layout because a WAL record carries
//! no format version: a record from a build that wrote another value
//! there must fail to decode, not decode into other mutations.

use sizel_storage::codec::{put_i64, put_str, put_u32, put_u8, put_value, CodecError, Reader};
use sizel_storage::Value;

use crate::engine::{Mutation, MutationOp};

type Result<T> = std::result::Result<T, CodecError>;

/// Appends `ms` to `buf` in the batch layout.
pub fn put_batch(buf: &mut Vec<u8>, ms: &[Mutation]) {
    put_u32(buf, ms.len() as u32);
    for m in ms {
        put_mutation(buf, m);
    }
}

/// Reads one batch; the caller decides whether the buffer must end
/// there ([`Reader::finish`]).
pub fn get_batch(r: &mut Reader) -> Result<Vec<Mutation>> {
    let n = r.count(1)?;
    (0..n).map(|_| get_mutation(r)).collect()
}

fn put_mutation(buf: &mut Vec<u8>, m: &Mutation) {
    put_str(buf, &m.table);
    put_u8(buf, 0);
    let (op, pk, values) = match &m.op {
        MutationOp::Insert { values } => (0, None, Some(values)),
        MutationOp::Update { pk, values } => (1, Some(*pk), Some(values)),
        MutationOp::Delete { pk } => (2, Some(*pk), None),
    };
    put_u8(buf, op);
    if let Some(pk) = pk {
        put_i64(buf, pk);
    }
    if let Some(values) = values {
        put_u32(buf, values.len() as u32);
        for v in values {
            put_value(buf, v);
        }
    }
}

fn get_mutation(r: &mut Reader) -> Result<Mutation> {
    let table = r.str()?;
    match r.u8()? {
        0 => {}
        other => return Err(CodecError(format!("reserved mutation byte {other}, not 0"))),
    }
    let op = match r.u8()? {
        0 => MutationOp::Insert { values: get_values(r)? },
        1 => MutationOp::Update { pk: r.i64()?, values: get_values(r)? },
        2 => MutationOp::Delete { pk: r.i64()? },
        other => return Err(CodecError(format!("unknown mutation op {other}"))),
    };
    Ok(Mutation { table, op })
}

fn get_values(r: &mut Reader) -> Result<Vec<Value>> {
    let n = r.count(1)?;
    (0..n).map(|_| r.value()).collect()
}
