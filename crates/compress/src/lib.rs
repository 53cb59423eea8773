//! # xarch-compress
//!
//! The compression substrate for §5.4 of *Archiving Scientific Data*.
//! The paper compresses delta repositories with `gzip -9` and archives with
//! `XMill -9`; both are closed tools from the paper's era, so this crate
//! implements the same two *mechanisms* from scratch:
//!
//! * [`lzss`] — an LZ77/LZSS byte compressor (sliding window, hash-chain
//!   match finder). Plays the role of gzip: a general-purpose LZ-family
//!   coder applied to flat text.
//! * [`xmill`] — an XMill-style XML compressor: the document is split into
//!   a *structure stream* and per-path *text containers* ("XMill groups
//!   text data according to the names of the elements in which they occur
//!   and compresses each group separately", §5.4), each compressed with the
//!   LZSS backend. Grouping similar text multiplies LZ locality — the
//!   effect that makes `xmill(archive)` the smallest series in Fig 12.
//!
//! Both codecs are real (lossless, round-trip tested), so the size series
//! they produce are honest measurements, not estimates.
#![deny(clippy::print_stderr)]

pub mod bitio;
pub mod codec;
pub mod lzss;
pub mod xmill;

pub use codec::BlockCodec;
pub use lzss::{compress, decompress};
pub use xmill::{xml_compress, xml_decompress};
