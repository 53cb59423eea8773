//! # xarch-keys
//!
//! Keys for XML (Buneman et al., WWW'01) as used by the archiver of
//! *Archiving Scientific Data* (§3, Appendix A/B).
//!
//! A **relative key** `(Q, (Q', {P1..Pk}))` states that, beneath any node
//! reached by the *context path* `Q`, nodes reached by the *target path*
//! `Q'` are uniquely identified by the values found at their *key paths*
//! `P1..Pk`. Key paths may be empty (`{.}` / `{\e}`), meaning the node is
//! identified by its whole content, or absent (`{}`), meaning at most one
//! such node exists.
//!
//! This crate provides:
//!
//! * the key-specification model and textual parser ([`spec`]) in exactly
//!   the paper's syntax — the specs of Appendix B parse verbatim;
//! * frontier-path computation ([`spec::KeySpec::frontier_paths`]);
//! * document validation against a spec ([`mod@validate`]);
//! * the **Annotate Keys** stack machine of §4.1 ([`mod@annotate`]), producing
//!   per-node key values;
//! * canonical-form **fingerprints** with the collision-verification
//!   protocol of §4.3 ([`mod@fingerprint`]).
#![deny(clippy::print_stderr)]

pub mod annotate;
pub mod fingerprint;
pub mod spec;
pub mod validate;

pub use annotate::{
    annotate, annotate_holding, annotate_with, Annotations, KeyError, KeyPart, KeyValue, NodeClass,
    PathName,
};
pub use fingerprint::{fingerprint, Fingerprinter};
pub use spec::{Key, KeySpec, SpecError};
pub use validate::{validate, Violation, ViolationKind};
