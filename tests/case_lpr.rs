//! Integration: the §3.4 lpr walkthrough, driven through a `Session` over
//! the hand-built lpr world: the paper's numbers (4 injected / 4 violated
//! at the create site) hold.

use epa::apps::{lpr, Lpr, LprFixed};
use epa::core::campaign::CampaignOptions;
use epa::core::engine::Session;
use epa::sandbox::trace::SiteId;
use std::collections::BTreeSet;

fn create_site_only() -> CampaignOptions {
    let mut filter = BTreeSet::new();
    filter.insert(SiteId::new("lpr:create_spool"));
    CampaignOptions {
        site_filter: Some(filter),
        ..Default::default()
    }
}

#[test]
fn four_applicable_attributes_all_violate() {
    let session = Session::new(&lpr::spec()).unwrap().with_options(create_site_only());
    let report = session.execute(&Lpr);
    assert_eq!(report.clean_violations, 0);
    assert_eq!(report.injected(), 4, "existence, ownership, permission, symbolic link");
    assert_eq!(report.violated(), 4, "paper: violations detected for attributes 1-4");
    // Attributes 5-7 (content/name invariance, working directory) are not
    // applicable at a first-encounter create with an absolute path.
    let ids: BTreeSet<&str> = report.records.iter().map(|r| &*r.fault_id).collect();
    assert!(!ids
        .iter()
        .any(|i| i.contains(":content@") || i.contains(":name@") || i.contains(":workdir@")));
}

#[test]
fn the_symlink_attack_clobbers_the_passwd_file() {
    let session = Session::new(&lpr::spec()).unwrap().with_options(create_site_only());
    let report = session.execute(&Lpr);
    let symlink = report
        .records
        .iter()
        .find(|r| r.fault_id.starts_with("direct:fs:symlink"))
        .expect("symlink fault injected");
    assert!(!symlink.tolerated());
    assert!(symlink.violations.iter().any(|v| v.description.contains("/etc/passwd")));
}

#[test]
fn fixed_lpr_tolerates_all_four() {
    let session = Session::new(&lpr::spec()).unwrap().with_options(create_site_only());
    let report = session.execute(&LprFixed);
    assert_eq!(report.injected(), 4);
    assert_eq!(report.violated(), 0, "{:#?}", report.violations().collect::<Vec<_>>());
}

#[test]
fn full_lpr_campaign_also_covers_input_sites() {
    let report = Session::new(&lpr::spec()).unwrap().execute(&Lpr);
    assert_eq!(report.total_sites, 3, "argv, read-input, create");
    assert!(report.injected() > 4);
    assert_eq!(report.clean_violations, 0);
}

#[test]
fn the_executor_paths_keep_the_paper_numbers() {
    use epa::core::engine::Suite;
    // On the session's calling thread...
    let session = Session::new(&lpr::spec()).unwrap().with_options(create_site_only());
    let sequential = session.execute(&Lpr);
    assert_eq!(
        sequential.injected(),
        4,
        "existence, ownership, permission, symbolic link"
    );
    assert_eq!(
        sequential.violated(),
        4,
        "paper: violations detected for attributes 1-4"
    );
    // ...and through a 4-worker suite queue, the numbers hold.
    let mut suite = Suite::new().with_workers(4);
    suite.register_session(Lpr, session);
    let batch = suite.execute();
    assert_eq!(batch.get("lpr").expect("lpr report"), &sequential);
}
