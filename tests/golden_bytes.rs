//! Golden bytes: the generators, the journal encoder and the checkpoint
//! writer produce exactly the bytes they produced before `Document`'s
//! storage was laid out in flat pools.
//!
//! The generators clone their documents and mutate them in place
//! (`remove_child`, `set_text`, new records appended beneath earlier
//! parents), so a CRC-32 of each sequence's compact XML pins the mutation
//! API; the payload and checkpoint CRCs pin what the journal and the
//! checkpoints write from those documents. The values were taken from the
//! code before the change; a change that moves any of these bytes must
//! say why and take them again.

use xarch::core::{Archive, VersionStore};
use xarch::datagen::omim::{omim_spec, OmimGen};
use xarch::datagen::swissprot::SwissProtGen;
use xarch::datagen::xmark::XmarkGen;
use xarch::storage::payload::{doc_to_bytes, docs_to_batch_bytes};
use xarch::storage::{crc32, Crc32};
use xarch::xml::writer::to_compact_string;
use xarch::xml::Document;

/// One CRC over every document's compact XML, each followed by a newline.
fn xml_crc(docs: &[Document]) -> u32 {
    let mut crc = Crc32::new();
    for doc in docs {
        crc.update(to_compact_string(doc).as_bytes());
        crc.update(b"\n");
    }
    crc.finish()
}

fn omim() -> Vec<Document> {
    OmimGen::new(7).sequence(120, 12)
}

#[test]
fn generated_sequences_keep_their_bytes() {
    let swissprot = SwissProtGen::new(11).sequence(40, 6);
    let xmark = XmarkGen::new(13).random_change_sequence(60, 5, 0.1);
    let keyed = XmarkGen::new(17).key_mutation_sequence(60, 5, 0.1);
    let got = [
        xml_crc(&omim()),
        xml_crc(&swissprot),
        xml_crc(&xmark),
        xml_crc(&keyed),
    ];
    assert_eq!(
        got,
        [0xd009_f474, 0x16a9_d694, 0xacb0_4c14, 0xfbb0_1e3c],
        "{got:#010x?}"
    );
}

#[test]
fn journal_payloads_keep_their_bytes() {
    let docs = omim();
    let mut each = Crc32::new();
    for doc in &docs {
        each.update(&doc_to_bytes(doc).expect("generated documents nest shallowly"));
    }
    let batch = docs_to_batch_bytes(&docs).expect("generated documents nest shallowly");
    let got = [each.finish(), crc32(&batch)];
    assert_eq!(got, [0xb457_5389, 0x1c7e_e5e1], "{got:#010x?}");
}

#[test]
fn checkpoints_keep_their_bytes() {
    let mut archive = Archive::new(omim_spec());
    let mut got = Vec::new();
    for doc in omim() {
        archive.add_version(&doc).expect("OMIM releases are keyed");
        if archive.latest().is_multiple_of(4) {
            let state = archive.checkpoint_state().expect("in memory");
            got.push(crc32(&state.expect("the plain archive checkpoints")));
        }
    }
    assert_eq!(got, [0x6f1f_ed05, 0x1474_eea5, 0x5bea_6c4f], "{got:#010x?}");
}
