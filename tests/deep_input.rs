//! No stack overflow on untrusted input: every entry point that builds or
//! walks a tree from bytes a file or a peer supplies runs on a thread with
//! a small fixed stack. Input nested `MAX_DEPTH` deep is accepted there;
//! input nested far past it is refused with an error. A walker that
//! recursed without its bound would overflow that stack, which aborts the
//! test binary — a failure no `catch_unwind` hides.
//!
//! `cargo test --release --test deep_input` runs the same checks on the
//! frames an optimized build lays out.

use xarch_core::state::{decode_archive, encode_archive};
use xarch_core::wire::{put_str, put_varint};
use xarch_core::{Archive, Compaction, StoreError};
use xarch_extmem::decode_small;
use xarch_keys::{annotate, KeySpec};
use xarch_proto::Request;
use xarch_storage::payload::{bytes_to_doc, doc_to_bytes};
use xarch_xml::writer::to_compact_string;
use xarch_xml::{parse, Document, MAX_DEPTH};

/// The stack every entry point runs on: what a spawned thread, a server
/// worker included, gets by default. `MAX_DEPTH` input fits with room to
/// spare: the deepest user, `decode_small`, needs about 1.4 MiB in a debug
/// build (its frame is some 5 KiB), the rest at most 384 KiB, and every
/// one at most 256 KiB in a release build. Unbounded recursion over
/// [`FAR`] levels needs more than this at any frame size.
const STACK: usize = 2 * 1024 * 1024;

/// Far past `MAX_DEPTH`.
const FAR: usize = 200_000;

/// Runs `f` on a fresh thread with a [`STACK`]-byte stack.
fn on_small_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(STACK)
            .spawn_scoped(s, f)
            .expect("spawn a small-stack thread")
            .join()
            .expect("the entry point returned")
    })
}

fn spec() -> KeySpec {
    KeySpec::parse("(/, (a, {}))").unwrap()
}

/// A chain of `depth` `a` elements.
fn nested(depth: usize) -> Document {
    let mut doc = Document::new("a");
    let mut at = doc.root();
    for _ in 1..depth {
        at = doc.add_element(at, "a");
    }
    doc
}

/// The same chain as XML text.
fn nested_xml(depth: usize) -> String {
    ["<a>".repeat(depth), "</a>".repeat(depth)].concat()
}

/// The payload entry of a chain of `depth` `a` elements, as `doc_to_bytes`
/// writes one — built here because `doc_to_bytes` refuses to write one
/// deeper than `MAX_DEPTH`. Lengths are summed from the innermost entry
/// out, then the entries written from the outermost in.
fn nested_payload(depth: usize) -> Vec<u8> {
    let varint_len = |v: usize| {
        let mut buf = Vec::new();
        put_varint(&mut buf, v as u64);
        buf.len()
    };
    // tag "a" (length byte + byte), no attributes
    const HEAD: usize = 3;
    let mut bodies = vec![0; depth];
    let mut inner = 0;
    for body in bodies.iter_mut().rev() {
        *body = HEAD + inner;
        inner = 2 + varint_len(*body) + *body;
    }
    let mut out = Vec::with_capacity(inner);
    for body in bodies {
        // kind, flags, body length, body
        out.extend_from_slice(&[0x01, 0]);
        put_varint(&mut out, body as u64);
        put_str(&mut out, "a");
        out.push(0);
    }
    out
}

/// The checkpoint state of an archive holding one version, a chain of
/// `depth` `a` elements under [`spec`] — built here because no archive
/// grows deeper than `MAX_DEPTH`. Node 0 is the archive's synthetic root,
/// node 1 the keyed `a` (a frontier node: its key has no parts), and the
/// rest lie beyond the frontier, stamped by inheritance.
fn nested_state(depth: usize) -> Vec<u8> {
    let mut out = vec![xarch_core::state::STATE_ARCHIVE];
    put_varint(&mut out, 1); // latest
    out.push(0); // Compaction::Alternatives
    put_str(&mut out, &spec().to_string());
    put_varint(&mut out, 2);
    put_str(&mut out, "root");
    put_str(&mut out, "a");
    let nodes = depth + 1;
    put_varint(&mut out, nodes as u64);
    for id in 0..nodes {
        out.push(0); // element
        put_varint(&mut out, u64::from(id > 0)); // symbol
        put_varint(&mut out, id as u64); // parent + 1, 0 for none
        if id + 1 < nodes {
            put_varint(&mut out, 1);
            put_varint(&mut out, id as u64 + 1);
        } else {
            put_varint(&mut out, 0);
        }
        put_varint(&mut out, 0); // attributes
        match id {
            // time {1}, no key, Keyed; time {1}, key of no parts, Frontier
            0 => out.extend_from_slice(&[1, 1, 1, 0, 0, 0]),
            1 => out.extend_from_slice(&[1, 1, 1, 0, 1, 0, 1]),
            // inherited time, no key, BeyondFrontier
            _ => out.extend_from_slice(&[0, 0, 2]),
        }
    }
    put_varint(&mut out, 0); // root
    out
}

#[test]
fn the_xml_parser_refuses_what_nests_past_max_depth() {
    let (at_bound, far) = (nested_xml(MAX_DEPTH), nested_xml(FAR));
    on_small_stack(|| {
        assert_eq!(
            to_compact_string(&parse(&at_bound).unwrap()),
            to_compact_string(&nested(MAX_DEPTH))
        );
        let err = parse(&far).unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("elements nest deeper than {MAX_DEPTH}")),
            "{err}"
        );
    });
}

#[test]
fn annotate_refuses_what_nests_past_max_depth() {
    let (at_bound, far) = (nested(MAX_DEPTH), nested(FAR));
    on_small_stack(|| {
        assert!(annotate(&at_bound, &spec()).is_ok());
        let err = annotate(&far, &spec()).unwrap_err();
        assert_eq!(
            err.message,
            format!("elements nest deeper than {MAX_DEPTH}")
        );
    });
}

#[test]
fn the_payload_encoder_refuses_what_nests_past_max_depth() {
    let (at_bound, far) = (nested(MAX_DEPTH), nested(FAR));
    on_small_stack(|| {
        assert_eq!(doc_to_bytes(&at_bound).unwrap(), nested_payload(MAX_DEPTH));
        let err = doc_to_bytes(&far).unwrap_err();
        assert!(err.reason.contains("nests deeper than"), "{err:?}");
    });
}

#[test]
fn the_payload_decoder_refuses_what_nests_past_max_depth() {
    let (at_bound, far) = (nested_payload(MAX_DEPTH), nested_payload(FAR));
    on_small_stack(|| {
        assert_eq!(
            to_compact_string(&bytes_to_doc(&at_bound).unwrap()),
            to_compact_string(&nested(MAX_DEPTH))
        );
        let err = bytes_to_doc(&far).unwrap_err();
        assert!(err.reason.contains("nest"), "{err:?}");
    });
}

#[test]
fn the_event_decoder_refuses_what_nests_past_max_depth() {
    let (at_bound, far) = (nested_payload(MAX_DEPTH), nested_payload(FAR));
    on_small_stack(|| {
        let mut pos = 0;
        decode_small(&at_bound, &mut pos).unwrap();
        assert_eq!(pos, at_bound.len());
        let err = decode_small(&far, &mut 0).unwrap_err();
        assert!(err.reason.contains("nest deeper than"), "{err:?}");
    });
}

#[test]
fn the_checkpoint_decoder_refuses_what_nests_past_max_depth() {
    let mut archive = Archive::new(spec());
    archive.add_version(&nested(MAX_DEPTH)).unwrap();
    let at_bound = encode_archive(&archive);
    assert_eq!(at_bound, nested_state(MAX_DEPTH), "the state as written");
    let far = nested_state(FAR);
    on_small_stack(|| {
        let restored = decode_archive(&at_bound, &spec(), Compaction::Alternatives).unwrap();
        assert_eq!(restored.map(|a| a.latest()), Some(1));
        let err = decode_archive(&far, &spec(), Compaction::Alternatives).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt { reason, .. } if reason.contains("too deep")),
            "{err}"
        );
    });
}

/// An ingest request carries its documents as text: the request decodes
/// whatever they nest, and the parse the server runs on each refuses one
/// past `MAX_DEPTH`.
#[test]
fn an_ingest_request_past_max_depth_decodes_and_its_document_is_refused() {
    let body = Request::Ingest {
        docs: vec![nested_xml(MAX_DEPTH), nested_xml(FAR)],
    }
    .encode();
    on_small_stack(|| {
        let Request::Ingest { docs } = Request::decode(&body).unwrap() else {
            panic!("an ingest request decodes as one");
        };
        assert_eq!(
            to_compact_string(&parse(&docs[0]).unwrap()),
            to_compact_string(&nested(MAX_DEPTH))
        );
        assert!(parse(&docs[1]).is_err());
    });
}
