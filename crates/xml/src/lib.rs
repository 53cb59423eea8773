//! # xarch-xml
//!
//! A from-scratch XML substrate for the `xarch` archiver, reproducing the
//! XML data model of Buneman et al., *Archiving Scientific Data*
//! (SIGMOD 2002 / TODS 2004), Appendix A.
//!
//! The model has three node types:
//!
//! * **E-nodes** (elements) labelled with an interned tag name,
//! * **A-nodes** (attributes) — name/value pairs attached to an element,
//! * **T-nodes** (text), holding a string value.
//!
//! Documents are stored in flat arrays ([`Document`]) addressed by
//! [`NodeId`] and built front to back by a [`Builder`]; tag and attribute
//! names are interned as [`Sym`]s in a per-document [`SymbolTable`]. The
//! crate provides:
//!
//! * a hand-written, dependency-free parser ([`parser::parse`]),
//! * compact and line-oriented writers ([`writer`]) — the line-oriented form
//!   is what the paper's line-diff experiments operate on,
//! * the paper's *value equality* `=v` and total *value order* `≤v`
//!   (Appendix A.6) in [`order`],
//! * the canonical form used for fingerprinting in [`canon`]
//!   (string equality of canonical forms ⇔ value equality),
//! * simple label-path expressions in [`path`].
#![deny(clippy::print_stderr)]

pub mod canon;
pub mod error;
pub mod escape;
pub mod model;
pub mod order;
pub mod parser;
pub mod path;
pub mod sym;
pub mod writer;

pub use error::{ParseError, Result};
pub use model::{Builder, Document, NodeId, NodeKind, MAX_BYTES};
pub use order::{cmp_nodes, value_equal};
pub use parser::{parse, MAX_DEPTH};
pub use path::Path;
pub use sym::{Sym, SymbolTable};
