//! # xarch-datagen
//!
//! Dataset generators and change simulators for the experiments of §5.
//!
//! The paper's evaluation uses three datasets: **OMIM** (curated gene
//! descriptions, near-daily versions, almost purely accretive), **Swiss-Prot**
//! (protein records, few versions, fast growth) and **XMark** (synthetic
//! auction data driven by a change simulator). The real OMIM/Swiss-Prot
//! snapshot sequences are not redistributable, so this crate generates
//! documents with the *schemas of Appendix B* and evolves them with the
//! *change ratios the paper reports* (§5.3: OMIM ≈ 0.02%/0.2%/0.03% and
//! Swiss-Prot ≈ 14%/26%/1.2% deletion/insertion/modification):
//!
//! * [`company`] — the Figure 2 running example,
//! * [`omim`] — Appendix B.1 records + accretive evolution,
//! * [`swissprot`] — Appendix B.2 records + growth-heavy evolution,
//! * [`xmark`] — Appendix B.3 auction site + the two simulators of
//!   §5.3: `random_change` (Fig 13) and `key_mutation` (Fig 14's
//!   worst case: "deletion and insertion of highly similar data at the
//!   exactly same location"),
//! * [`words`] — deterministic text/name/DNA generators.
//!
//! Everything is seeded; no generator touches wall-clock or global state.
#![deny(clippy::print_stderr)]

pub mod company;
pub mod omim;
pub mod swissprot;
pub mod words;
pub mod xmark;

pub use company::company_versions;
