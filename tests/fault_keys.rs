//! Pins the bytes of every `FaultKey::repr`.
//!
//! The canonical key text is the memo key of the `ResultCache`, the key
//! of every persistent store entry, and the `key` column of
//! `MANIFEST.json`, so a change to one byte of it orphans every stored
//! run. These tests fold every key of the standard suite's plans and of a
//! 120-scenario synthesized corpus, in plan order, into one FNV-1a digest
//! each, and spell out one literal key per payload shape.

use epa::apps::ScriptedApp;
use epa::core::corpus::{synthesize, CorpusConfig};
use epa::core::engine::planner::{fnv1a, FaultKey, Fnv1a};
use epa::core::engine::Session;
use epa::core::inject::InjectionPlan;
use epa::core::model::EaiCategory;
use epa::core::perturb::{ConcreteFault, DirectFault, FaultPayload, IndirectFault};
use epa::sandbox::app::Application;
use epa::sandbox::trace::{InputSemantic, SiteId};
use std::hash::Hasher;

/// Every key of `app`'s plan over `session`, in plan order.
fn plan_keys(session: &Session, app: &dyn Application) -> Vec<FaultKey> {
    session.plan(app).jobs().iter().map(FaultKey::of).collect()
}

/// `(key count, FNV-1a over each repr followed by a newline)`.
fn fold(keys: &[FaultKey]) -> (usize, u64) {
    let mut hasher = Fnv1a::default();
    for key in keys {
        hasher.write(key.repr().as_bytes());
        hasher.write(b"\n");
        assert_eq!(
            key.digest(),
            fnv1a(key.repr().as_bytes()),
            "a key's digest hashes its repr"
        );
    }
    (keys.len(), hasher.finish())
}

fn standard_suite_keys() -> Vec<FaultKey> {
    epa::apps::standard_apps()
        .into_iter()
        .flat_map(|(app, spec)| {
            let session = Session::new(&spec).expect("standard worlds materialize");
            plan_keys(&session, app.as_ref())
        })
        .collect()
}

#[test]
fn standard_suite_keys_are_pinned() {
    let keys = standard_suite_keys();
    assert_eq!(
        fold(&keys),
        (245, 0xf13e_4f70_d6af_e048),
        "standard-suite key bytes moved"
    );
    let reprs: Vec<&str> = keys.iter().map(FaultKey::repr).collect();
    for literal in [
        r#"lpr:read_args#0|UserFileName|{"Indirect":[{"Lengthen":{"by":4096}}]}"#,
        r#"fingerd:dns#0|-|{"Direct":["DnsDeny"]}"#,
    ] {
        assert!(reprs.contains(&literal), "missing key {literal}");
    }
}

#[test]
fn corpus_keys_are_pinned() {
    let mut keys = Vec::new();
    for scenario in synthesize(&CorpusConfig { seed: 0, count: 120 }) {
        let session = Session::new(&scenario.spec).expect("corpus worlds materialize");
        keys.extend(plan_keys(&session, &ScriptedApp::for_scenario(&scenario)));
    }
    assert_eq!(fold(&keys), (4199, 0xa62d_c728_8cfb_c3ce), "corpus key bytes moved");
}

fn key_of(site: &str, occurrence: usize, semantic: Option<InputSemantic>, payload: FaultPayload) -> String {
    let job = InjectionPlan {
        site: SiteId::new(site),
        occurrence,
        fault: ConcreteFault {
            id: "id".into(),
            category: EaiCategory::Other,
            semantic,
            description: "ignored by the key".into(),
            payload,
        },
    };
    FaultKey::of(&job).repr().to_string()
}

#[test]
fn every_payload_variant_has_a_literal_key() {
    let d = |f: DirectFault| key_of("s", 1, None, FaultPayload::Direct(f));
    let s = |p: &str| p.to_string();
    let direct = [
        (
            d(DirectFault::FileMakeExist { path: s("/tmp//./f") }),
            r#"s#1|-|{"Direct":[{"FileMakeExist":{"path":"/tmp/f"}}]}"#,
        ),
        (
            d(DirectFault::FileMakeMissing { path: s("/a/../b") }),
            r#"s#1|-|{"Direct":[{"FileMakeMissing":{"path":"/a/../b"}}]}"#,
        ),
        (
            d(DirectFault::FileChownAttacker { path: s("/x") }),
            r#"s#1|-|{"Direct":[{"FileChownAttacker":{"path":"/x"}}]}"#,
        ),
        (
            d(DirectFault::FileChownRoot { path: s("/x") }),
            r#"s#1|-|{"Direct":[{"FileChownRoot":{"path":"/x"}}]}"#,
        ),
        (
            d(DirectFault::FilePermRestrict { path: s("/x") }),
            r#"s#1|-|{"Direct":[{"FilePermRestrict":{"path":"/x"}}]}"#,
        ),
        (
            d(DirectFault::FilePermOpen { path: s("/x") }),
            r#"s#1|-|{"Direct":[{"FilePermOpen":{"path":"/x"}}]}"#,
        ),
        (
            d(DirectFault::FilePermNoExec { path: s("/x") }),
            r#"s#1|-|{"Direct":[{"FilePermNoExec":{"path":"/x"}}]}"#,
        ),
        (
            d(DirectFault::SymlinkSwap {
                path: s("/var//run/x"),
                target: s("/etc/./shadow"),
            }),
            r#"s#1|-|{"Direct":[{"SymlinkSwap":{"path":"/var/run/x","target":"/etc/shadow"}}]}"#,
        ),
        (
            d(DirectFault::ModifyContent {
                path: s("/x"),
                content: s("a\"b\\c\nd\re\tf\u{1}g\u{7f}é"),
            }),
            "s#1|-|{\"Direct\":[{\"ModifyContent\":{\"path\":\"/x\",\"content\":\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\u{7f}é\"}}]}",
        ),
        (
            d(DirectFault::RenameAway { path: s("/x") }),
            r#"s#1|-|{"Direct":[{"RenameAway":{"path":"/x"}}]}"#,
        ),
        (
            d(DirectFault::WorkingDirectory { dir: s("/tmp/") }),
            r#"s#1|-|{"Direct":[{"WorkingDirectory":{"dir":"/tmp"}}]}"#,
        ),
        (
            d(DirectFault::RegistryOpenAcl { key: s(r"HKLM\Run") }),
            r#"s#1|-|{"Direct":[{"RegistryOpenAcl":{"key":"HKLM\\Run"}}]}"#,
        ),
        (
            d(DirectFault::RegistrySetValue {
                key: s(r"HKLM\Run"),
                value: s("v"),
                new_value: s("/home/evil//x"),
            }),
            r#"s#1|-|{"Direct":[{"RegistrySetValue":{"key":"HKLM\\Run","value":"v","new_value":"/home/evil//x"}}]}"#,
        ),
        (
            d(DirectFault::NetSpoofNext {
                port: 79,
                actual: s("evil"),
            }),
            r#"s#1|-|{"Direct":[{"NetSpoofNext":{"port":79,"actual":"evil"}}]}"#,
        ),
        (
            d(DirectFault::NetOmitStep { port: 25, idx: 0 }),
            r#"s#1|-|{"Direct":[{"NetOmitStep":{"port":25,"idx":0}}]}"#,
        ),
        (
            d(DirectFault::NetDuplicateStep { port: 25, idx: 3 }),
            r#"s#1|-|{"Direct":[{"NetDuplicateStep":{"port":25,"idx":3}}]}"#,
        ),
        (
            d(DirectFault::NetSwapSteps { port: 65535, a: 1, b: 2 }),
            r#"s#1|-|{"Direct":[{"NetSwapSteps":{"port":65535,"a":1,"b":2}}]}"#,
        ),
        (
            d(DirectFault::NetShareSocket {
                port: 113,
                with: s("evil"),
            }),
            r#"s#1|-|{"Direct":[{"NetShareSocket":{"port":113,"with":"evil"}}]}"#,
        ),
        (
            d(DirectFault::NetDenyService {
                host: s("dns"),
                port: 53,
            }),
            r#"s#1|-|{"Direct":[{"NetDenyService":{"host":"dns","port":53}}]}"#,
        ),
        (
            d(DirectFault::NetDistrustEntity {
                host: s("h"),
                port: 0,
            }),
            r#"s#1|-|{"Direct":[{"NetDistrustEntity":{"host":"h","port":0}}]}"#,
        ),
        (d(DirectFault::DnsDeny), r#"s#1|-|{"Direct":["DnsDeny"]}"#),
        (
            d(DirectFault::IpcSpoofNext {
                channel: s("c"),
                actual: s("evil"),
            }),
            r#"s#1|-|{"Direct":[{"IpcSpoofNext":{"channel":"c","actual":"evil"}}]}"#,
        ),
        (
            d(DirectFault::IpcDistrust { channel: s("c") }),
            r#"s#1|-|{"Direct":[{"IpcDistrust":{"channel":"c"}}]}"#,
        ),
        (
            d(DirectFault::IpcDeny { channel: s("c") }),
            r#"s#1|-|{"Direct":[{"IpcDeny":{"channel":"c"}}]}"#,
        ),
    ];
    // Indirect faults are not occurrence-sensitive when aimed at an input
    // semantic, so their occurrence reads 0; their text is never cleaned.
    let i = |f: IndirectFault| key_of("s", 1, Some(InputSemantic::EnvPathList), FaultPayload::Indirect(f));
    let indirect = [
        (
            i(IndirectFault::Lengthen { by: 4096 }),
            r#"s#0|EnvPathList|{"Indirect":[{"Lengthen":{"by":4096}}]}"#,
        ),
        (
            i(IndirectFault::MakeRelative),
            r#"s#0|EnvPathList|{"Indirect":["MakeRelative"]}"#,
        ),
        (
            i(IndirectFault::MakeAbsolute),
            r#"s#0|EnvPathList|{"Indirect":["MakeAbsolute"]}"#,
        ),
        (
            i(IndirectFault::InsertDotDot { depth: 3 }),
            r#"s#0|EnvPathList|{"Indirect":[{"InsertDotDot":{"depth":3}}]}"#,
        ),
        (
            i(IndirectFault::InsertSpecial { ch: '\n' }),
            r#"s#0|EnvPathList|{"Indirect":[{"InsertSpecial":{"ch":"\n"}}]}"#,
        ),
        (
            i(IndirectFault::InsertSpecial { ch: '"' }),
            r#"s#0|EnvPathList|{"Indirect":[{"InsertSpecial":{"ch":"\""}}]}"#,
        ),
        (
            i(IndirectFault::PathListReorder),
            r#"s#0|EnvPathList|{"Indirect":["PathListReorder"]}"#,
        ),
        (
            i(IndirectFault::PathListInsertUntrusted { dir: s("/tmp//x") }),
            r#"s#0|EnvPathList|{"Indirect":[{"PathListInsertUntrusted":{"dir":"/tmp//x"}}]}"#,
        ),
        (
            i(IndirectFault::PathListWrong { dir: s("/nowhere") }),
            r#"s#0|EnvPathList|{"Indirect":[{"PathListWrong":{"dir":"/nowhere"}}]}"#,
        ),
        (
            i(IndirectFault::PathListRecursive),
            r#"s#0|EnvPathList|{"Indirect":["PathListRecursive"]}"#,
        ),
        (
            i(IndirectFault::PermMaskZero),
            r#"s#0|EnvPathList|{"Indirect":["PermMaskZero"]}"#,
        ),
        (
            i(IndirectFault::ChangeExtension { ext: s("exe") }),
            r#"s#0|EnvPathList|{"Indirect":[{"ChangeExtension":{"ext":"exe"}}]}"#,
        ),
        (
            i(IndirectFault::LengthenExtension),
            r#"s#0|EnvPathList|{"Indirect":["LengthenExtension"]}"#,
        ),
        (i(IndirectFault::Malform), r#"s#0|EnvPathList|{"Indirect":["Malform"]}"#),
    ];
    for (got, want) in direct.iter().chain(&indirect) {
        assert_eq!(got, want);
    }
    // A semantic-free indirect fault keeps its occurrence.
    assert_eq!(
        key_of("s", 2, None, FaultPayload::Indirect(IndirectFault::Malform)),
        r#"s#2|-|{"Indirect":["Malform"]}"#
    );
}
