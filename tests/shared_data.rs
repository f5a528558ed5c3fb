//! A value whose text is shared with its source and a value that owns the
//! same text cannot be told apart.
//!
//! Reads hand out `Data` whose text is shared with the world (a file's
//! content, a registry value, an argument); values an application builds
//! own their text. Every observable form must be the same for both:
//! equality, hashing (world fingerprints and store scopes hash file
//! content), `Debug`, the JSON wire form, the text views, the pieces
//! `lines` and `split_text` make, appending, and an indirect fault's
//! mutation.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use epa::core::perturb::IndirectFault;
use epa::sandbox::data::{Data, Label};

const TEXTS: [&str; 6] = [
    "",
    "/etc/passwd",
    "a\nb\n\nc",
    "/bin:/usr/bin:",
    "font.fon",
    "caf\u{e9} \u{1f600}",
];

/// The same text and label, once owned and once shared.
fn pair(text: &str) -> (Data, Data) {
    let label = Label::Untrusted {
        source: "registry:HKLM/K".into(),
    };
    (
        Data::from(text.to_string()).with_label(label),
        Data::from(Arc::<str>::from(text)).with_label(label),
    )
}

fn hash_of(data: &Data) -> u64 {
    let mut h = DefaultHasher::new();
    data.hash(&mut h);
    h.finish()
}

/// Every observable form of a value, side by side.
fn forms(data: &Data) -> (u64, String, String, String, Vec<u8>, usize) {
    (
        hash_of(data),
        format!("{data:?}"),
        serde_json::to_string(data).expect("data serializes"),
        data.as_text().into_owned(),
        data.as_bytes().to_vec(),
        data.len(),
    )
}

#[test]
fn shared_and_owned_text_read_the_same() {
    for text in TEXTS {
        let (owned, shared) = pair(text);
        assert_eq!(owned, shared, "{text:?}");
        assert_eq!(forms(&owned), forms(&shared), "{text:?}");
        assert_eq!(owned.to_shared(), shared);
        assert_eq!(forms(&owned.to_shared()), forms(&owned));
        assert_eq!(owned.lines(), shared.lines(), "{text:?}");
        assert_eq!(owned.split_text(':'), shared.split_text(':'), "{text:?}");
        assert_eq!(owned.to_string(), shared.to_string());
        let back: Data = serde_json::from_str(&serde_json::to_string(&shared).unwrap()).unwrap();
        assert_eq!(back, owned);
    }
}

#[test]
fn writing_into_a_shared_value_copies_it_and_leaves_the_source() {
    let source: Arc<str> = Arc::from("PATH=/usr/bin");
    for tail in TEXTS {
        let (mut owned, mut shared) = pair(&source);
        let extra = Data::from(Arc::<str>::from(tail)).with_label(Label::Untrusted { source: "env".into() });
        owned.append(&extra);
        shared.append(&extra);
        assert_eq!(forms(&owned), forms(&shared), "{tail:?}");
        assert_eq!(owned.labels(), shared.labels());

        let (mut owned, mut shared) = pair(&source);
        owned.push_str(tail);
        shared.push_str(tail);
        assert_eq!(forms(&owned), forms(&shared), "{tail:?}");

        let mut head = Data::from(tail.to_string());
        head.append(&Data::from(Arc::clone(&source)));
        assert_eq!(head, Data::from(format!("{tail}{source}")));
    }
    // A value read from the source and written into leaves the source as
    // it was.
    let read = Data::from(Arc::clone(&source));
    let mut written = read.clone();
    written.push_str(":/evil");
    written.set_bytes(b"replaced".to_vec());
    assert_eq!(&*source, "PATH=/usr/bin");
    assert_eq!(read.as_text(), "PATH=/usr/bin");
}

#[test]
fn a_shared_value_appends_bytes_that_are_not_utf8_as_an_owned_one_does() {
    for text in TEXTS {
        let (mut owned, mut shared) = pair(text);
        let raw = Data::from(vec![0xc3]);
        owned.append(&raw);
        shared.append(&raw);
        assert_eq!(forms(&owned), forms(&shared), "{text:?}");
        let mut bytes_first = Data::from(vec![0xff]);
        bytes_first.append(&pair(text).1);
        let mut bytes_first_owned = Data::from(vec![0xff]);
        bytes_first_owned.append(&pair(text).0);
        assert_eq!(forms(&bytes_first), forms(&bytes_first_owned), "{text:?}");
    }
}

#[test]
fn an_indirect_fault_mutates_shared_and_owned_values_alike() {
    let faults = [
        IndirectFault::Lengthen { by: 300 },
        IndirectFault::MakeRelative,
        IndirectFault::MakeAbsolute,
        IndirectFault::InsertDotDot { depth: 3 },
        IndirectFault::InsertSpecial { ch: ';' },
        IndirectFault::PathListReorder,
        IndirectFault::PathListInsertUntrusted {
            dir: "/home/evil/bin".into(),
        },
        IndirectFault::PathListWrong { dir: "/nowhere".into() },
        IndirectFault::PathListRecursive,
        IndirectFault::PermMaskZero,
        IndirectFault::ChangeExtension { ext: "exe".into() },
        IndirectFault::LengthenExtension,
        IndirectFault::Malform,
    ];
    for fault in &faults {
        for text in TEXTS {
            let (mut owned, mut shared) = pair(text);
            fault.apply_to_data(&mut owned);
            fault.apply_to_data(&mut shared);
            assert_eq!(forms(&owned), forms(&shared), "{fault:?} on {text:?}");
            assert_eq!(owned.labels(), shared.labels(), "{fault:?} keeps labels");
        }
        // Bytes that are not UTF-8 are repaired by every mutation, as before.
        let mut raw = Data::from(b"/x\xff".to_vec());
        fault.apply_to_data(&mut raw);
        assert!(std::str::from_utf8(raw.as_bytes()).is_ok(), "{fault:?}");
    }
}
