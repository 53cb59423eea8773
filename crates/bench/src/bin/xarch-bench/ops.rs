//! One script operation at each depth of the read stack: over the wire
//! through a [`Client`], as protocol work alone on in-memory buffers, and
//! in-process against any [`StoreReader`].

use std::hint::black_box;
use std::io::Cursor;

use xarch::xml::writer::to_compact_string;
use xarch::{StoreError, StoreReader};
use xarch_proto::{
    read_frame, write_frame, Client, ClientError, Lease, Request, Response, MAX_FRAME_LEN,
};

use crate::data::Op;

/// Runs `op` in-process and drops the answer — the timed form.
pub fn run_local(reader: &dyn StoreReader, op: &Op) -> Result<(), StoreError> {
    match op {
        Op::AsOf { steps, v } => drop(black_box(reader.as_of(steps, *v)?)),
        Op::Diff { steps, v1, v2 } => drop(black_box(reader.diff(steps, *v1, *v2)?)),
        Op::Range { prefix, lo, hi } => drop(black_box(reader.range(prefix, *lo..=*hi)?)),
        Op::HistoryValues { steps } => drop(black_box(reader.history_values(steps)?)),
    }
    Ok(())
}

/// Runs `op` in-process and wraps the answer as the response a server
/// would send, so answers from every depth compare byte for byte.
pub fn answer_local(reader: &dyn StoreReader, op: &Op) -> Result<Response, StoreError> {
    Ok(match op {
        Op::AsOf { steps, v } => {
            Response::Document(reader.as_of(steps, *v)?.map(|d| to_compact_string(&d)))
        }
        Op::Diff { steps, v1, v2 } => Response::Diff(reader.diff(steps, *v1, *v2)?),
        Op::Range { prefix, lo, hi } => Response::Range(reader.range(prefix, *lo..=*hi)?),
        Op::HistoryValues { steps } => Response::HistoryValues(reader.history_values(steps)?),
    })
}

/// Runs `op` over the wire under `lease`.
pub fn run_served(client: &mut Client, lease: Lease, op: &Op) -> Result<Response, ClientError> {
    Ok(match op {
        Op::AsOf { steps, v } => Response::Document(client.as_of(lease, *v, steps)?),
        Op::Diff { steps, v1, v2 } => Response::Diff(client.diff(lease, steps, *v1, *v2)?),
        Op::Range { prefix, lo, hi } => Response::Range(client.range(lease, prefix, *lo, *hi)?),
        Op::HistoryValues { steps } => {
            Response::HistoryValues(client.history_values(lease, steps)?)
        }
    })
}

/// The request a client sends for `op`.
pub fn request_of(op: &Op, lease: Lease) -> Request {
    let lease = lease.0;
    match op.clone() {
        Op::AsOf { steps, v } => Request::AsOf { lease, v, steps },
        Op::Diff { steps, v1, v2 } => Request::Diff {
            lease,
            v1,
            v2,
            steps,
        },
        Op::Range { prefix, lo, hi } => Request::Range {
            lease,
            lo,
            hi,
            prefix,
        },
        Op::HistoryValues { steps } => Request::HistoryValues { lease, steps },
    }
}

/// Everything the protocol layer does for one exchange, on in-memory
/// buffers: encode and frame the request, read and decode it (server
/// side), encode and frame the response, read and decode it (client
/// side). Returns the response frame's length in bytes.
pub fn proto_round_trip(req: &Request, resp: &Response) -> usize {
    let mut wire = Vec::new();
    write_frame(&mut wire, &req.encode()).expect("request frames");
    let body =
        read_frame(&mut Cursor::new(&wire), MAX_FRAME_LEN).expect("request frame reads back");
    black_box(Request::decode(&body).expect("request decodes"));
    wire.clear();
    write_frame(&mut wire, &resp.encode()).expect("response frames");
    let body =
        read_frame(&mut Cursor::new(&wire), MAX_FRAME_LEN).expect("response frame reads back");
    black_box(Response::decode(&body).expect("response decodes"));
    wire.len()
}
