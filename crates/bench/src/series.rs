//! The storage-size series that every §5 figure plots.
//!
//! For a version sequence, each row reports the sizes the paper's graphs
//! show: the version itself, our archive, the incremental and cumulative
//! diff repositories, and (at sample points — compression is the expensive
//! part) `gzip`-style compressed repositories, the `xmill`-style compressed
//! archive, and XMill over the concatenation of all versions.

use xarch_compress::{lzss, xmill};
use xarch_core::Archive;
use xarch_diff::{CumulativeRepo, IncrementalRepo};
use xarch_keys::KeySpec;
use xarch_xml::writer::to_pretty_string;
use xarch_xml::Document;

/// One row of a figure's data series.
#[derive(Debug, Clone)]
pub struct SizeRow {
    pub version: u32,
    /// Size of this version's line-oriented XML text.
    pub version_bytes: usize,
    /// Our archive (pretty XML form), as in the `archive` line.
    pub archive_bytes: usize,
    /// `V1 + incremental diffs`.
    pub inc_bytes: usize,
    /// `V1 + cumulative diffs`.
    pub cumu_bytes: usize,
    /// The compressed sizes; `None` = not sampled at this version.
    pub compressed: Option<Compressed>,
}

/// The compressed columns of a [`SizeRow`].
#[derive(Debug, Clone, Copy)]
pub struct Compressed {
    /// `gzip(V1 + incremental diffs)` (LZSS substitute).
    pub gzip_inc: usize,
    /// `gzip(V1 + cumulative diffs)`.
    pub gzip_cumu: usize,
    /// `xmill(archive)`.
    pub xmill_archive: usize,
    /// `xmill(V1 + ... + Vi)` — all versions side by side in one XML tree.
    pub xmill_concat: usize,
}

/// Computes the size series for a version sequence, with the compressed
/// columns at every `compress_every`-th version and at the last.
pub fn size_series(versions: &[Document], spec: &KeySpec, compress_every: usize) -> Vec<SizeRow> {
    let mut archive = Archive::new(spec.clone());
    let mut inc = IncrementalRepo::new();
    let mut cumu = CumulativeRepo::new();
    let mut concat = Document::new("versions");
    let mut rows = Vec::with_capacity(versions.len());

    for (idx, doc) in versions.iter().enumerate() {
        let v = idx as u32 + 1;
        let text = to_pretty_string(doc, 0);
        archive.add_version(doc).expect("version satisfies keys");
        inc.add_version(&text);
        cumu.add_version(&text);
        let root = concat.root();
        concat.copy_subtree_from(doc, doc.root(), root);

        let sample = (v as usize).is_multiple_of(compress_every) || idx + 1 == versions.len();
        rows.push(SizeRow {
            version: v,
            version_bytes: text.len(),
            archive_bytes: archive.size_bytes(),
            inc_bytes: inc.size_bytes(),
            cumu_bytes: cumu.size_bytes(),
            compressed: sample.then(|| Compressed {
                gzip_inc: lzss::compress(inc.serialized().as_bytes()).len(),
                gzip_cumu: lzss::compress(cumu.serialized().as_bytes()).len(),
                xmill_archive: xmill::xml_compress(&archive.to_xml()).len(),
                xmill_concat: xmill::xml_compress(&concat).len(),
            }),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use xarch_datagen::company::{company_spec, company_versions};

    #[test]
    fn company_series_is_sane() {
        let rows = size_series(&company_versions(), &company_spec(), 3);
        assert_eq!(rows.len(), 4);
        // archive and repos grow monotonically
        for w in rows.windows(2) {
            assert!(w[1].archive_bytes >= w[0].archive_bytes);
            assert!(w[1].inc_bytes >= w[0].inc_bytes);
            assert!(w[1].cumu_bytes >= w[0].cumu_bytes);
        }
        // every third row is sampled, and the last always is
        let sampled: Vec<u32> = rows
            .iter()
            .filter(|r| r.compressed.is_some())
            .map(|r| r.version)
            .collect();
        assert_eq!(sampled, [3, 4]);
    }
}
