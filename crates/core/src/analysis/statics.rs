//! Spec-level path queries the world linter asks of a [`WorldSpec`]
//! without building it: where a name lands once the declared symlink
//! chains are resolved ([`resolve_alias`]), and whether the declared world
//! holds a path at all (`declared_exists`). What the application does
//! with those paths comes from its clean-run trace
//! ([`super::AppAnalysis`]), the one model of an application the engine
//! keeps.

use std::collections::{BTreeMap, BTreeSet};

use epa_sandbox::path;

use crate::engine::spec::WorldSpec;

/// Resolves `p` through the spec's declared symlink chains, lexically:
/// whenever a prefix of the path names a declared link, the prefix is
/// replaced by the link's target (relative targets join against the link's
/// parent). Returns the physical form and whether any link was traversed.
/// Chains are followed at most 16 hops — past that the world is cyclic and
/// the name is returned as the last hop left it.
pub fn resolve_alias(spec: &WorldSpec, p: &str) -> (String, bool) {
    let links: BTreeMap<String, String> = spec
        .symlinks
        .iter()
        .map(|s| (path::normalize(&s.link), s.target.clone()))
        .collect();
    let mut current = path::normalize(p);
    let mut aliased = false;
    for _ in 0..16 {
        let mut replaced = false;
        let comps: Vec<String> = path::components(&current).map(str::to_string).collect();
        let mut prefix = String::new();
        for (i, c) in comps.iter().enumerate() {
            prefix.push('/');
            prefix.push_str(c);
            if let Some(target) = links.get(&prefix) {
                let parent = path::parent(&prefix).unwrap_or_else(|| "/".to_string());
                let resolved_target = if path::is_absolute(target) {
                    path::normalize(target)
                } else {
                    path::normalize(&path::join(&parent, target))
                };
                let rest = comps[i + 1..].join("/");
                current = if rest.is_empty() {
                    resolved_target
                } else {
                    path::normalize(&path::join(&resolved_target, &rest))
                };
                aliased = true;
                replaced = true;
                break;
            }
        }
        if !replaced {
            return (current, aliased);
        }
    }
    (current, aliased)
}

/// Whether the declared world contains `p` (as a file, directory, link, or
/// an ancestor implicitly created for one).
pub(crate) fn declared_exists(spec: &WorldSpec, p: &str) -> bool {
    let target = path::clean(p);
    if target == "/" {
        return true;
    }
    let mut declared: BTreeSet<String> = BTreeSet::new();
    let mut add_with_ancestors = |raw: &str| {
        let mut cur = path::clean(raw);
        loop {
            declared.insert(cur.clone());
            match path::parent(&cur) {
                Some(parent) if parent != cur && parent != "/" => cur = parent,
                _ => break,
            }
        }
    };
    for d in &spec.dirs {
        add_with_ancestors(&d.path);
    }
    for f in &spec.files {
        add_with_ancestors(&f.path);
    }
    for s in &spec.symlinks {
        add_with_ancestors(&s.link);
    }
    for u in &spec.users {
        add_with_ancestors(&u.home);
    }
    declared.contains(&target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::spec::SymlinkSpec;

    fn spec_with_link(link: &str, target: &str) -> WorldSpec {
        let mut spec = WorldSpec::default();
        spec.symlinks.push(SymlinkSpec {
            link: link.to_string(),
            target: target.to_string(),
        });
        spec
    }

    #[test]
    fn alias_resolution_follows_chains() {
        let spec = spec_with_link("/var/log", "/data/log");
        let (r, aliased) = resolve_alias(&spec, "/var/log/app.log");
        assert_eq!(r, "/data/log/app.log");
        assert!(aliased);
        let (r, aliased) = resolve_alias(&spec, "/etc/passwd");
        assert_eq!(r, "/etc/passwd");
        assert!(!aliased);
    }

    #[test]
    fn relative_targets_resolve_against_the_link_parent() {
        let spec = spec_with_link("/usr/tmp", "../var/tmp");
        let (r, aliased) = resolve_alias(&spec, "/usr/tmp/x");
        assert_eq!(r, "/var/tmp/x");
        assert!(aliased);
    }

    #[test]
    fn cyclic_links_terminate() {
        let mut spec = spec_with_link("/a", "/b");
        spec.symlinks.push(SymlinkSpec {
            link: "/b".to_string(),
            target: "/a".to_string(),
        });
        let (_, aliased) = resolve_alias(&spec, "/a/x");
        assert!(aliased);
    }

    #[test]
    fn declared_world_membership_includes_ancestors() {
        let mut spec = WorldSpec::default();
        spec.files.push(crate::engine::spec::FileSpec {
            path: "/etc/app/conf".into(),
            content: String::new(),
            owner: epa_sandbox::cred::Uid::ROOT,
            group: epa_sandbox::cred::Gid::ROOT,
            mode: 0o644,
        });
        assert!(declared_exists(&spec, "/etc/app/conf"));
        assert!(declared_exists(&spec, "/etc/app"));
        assert!(declared_exists(&spec, "/etc"));
        assert!(!declared_exists(&spec, "/var"));
    }
}
