//! The declarative world layer: scenario worlds as *data*.
//!
//! A [`WorldSpec`] lists everything a campaign world contains — users,
//! directories, files, symlinks, oracle tags, registry keys, DNS entries,
//! network services, queued messages — plus the spawn parameters of the
//! application under test. Specs are built with the [`ScenarioBuilder`],
//! validated once ([`WorldSpec::validate`]), and materialized into a
//! [`TestSetup`] ([`WorldSpec::materialize`]) that campaigns snapshot
//! copy-on-write per injected fault.
//!
//! Compared to hand-assembled `put_file`/`mkdir_p` boilerplate, a spec is
//! reusable across campaigns, serializable, diffable, and checked up front:
//! a typo'd relative path or an undeclared program fails at build time with
//! a [`SpecError`], not halfway through a fault run.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use epa_sandbox::cred::{Gid, Uid};
use epa_sandbox::fs::FileTag;
use epa_sandbox::mode::Mode;
use epa_sandbox::net::Message;
use epa_sandbox::os::{Os, ScenarioMeta};
use epa_sandbox::policy::InvariantSpec;
use epa_sandbox::registry::RegAcl;

use crate::campaign::TestSetup;
use crate::perturb::tag_standard_targets;

/// Why a [`WorldSpec`] failed to validate or materialize.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpecError {
    /// A path that must be absolute is not.
    RelativePath {
        /// What kind of entry held the path.
        what: &'static str,
        /// The offending path.
        path: String,
    },
    /// Two entries declare the same file-system path.
    DuplicatePath {
        /// The duplicated path.
        path: String,
    },
    /// Two users share a name (uids may repeat: one uid can have several
    /// account names).
    DuplicateUser {
        /// The duplicated name.
        who: String,
    },
    /// A declared file or symlink sits where another declared entry needs a
    /// directory (building it would orphan the subtree).
    NotADirectory {
        /// The file/symlink path that other entries nest under.
        path: String,
    },
    /// A registry key path is empty — typically a `registry_value` declared
    /// before any `registry_key`.
    EmptyRegistryKey {
        /// The first value name on the empty key, if any.
        value: Option<String>,
    },
    /// The effective invoker is not among the declared users.
    UndeclaredInvoker {
        /// The invoker uid.
        uid: Uid,
    },
    /// The program under test is not declared as a file or symlink.
    UndeclaredProgram {
        /// The program path.
        path: String,
    },
    /// A mode has bits outside `0o7777`.
    BadMode {
        /// The path carrying the mode.
        path: String,
        /// The offending bits.
        mode: u16,
    },
    /// An oracle tag names a path the spec never creates.
    MissingTagTarget {
        /// The tagged path.
        path: String,
    },
    /// The working directory does not exist in the materialized world.
    MissingCwd {
        /// The working directory.
        path: String,
    },
    /// A god-mode build step failed (surfaced with the substrate's error).
    Build {
        /// The entry that failed.
        what: String,
        /// The substrate error text.
        error: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::RelativePath { what, path } => write!(f, "{what} path `{path}` is not absolute"),
            SpecError::DuplicatePath { path } => write!(f, "path `{path}` is declared twice"),
            SpecError::DuplicateUser { who } => write!(f, "user `{who}` is declared twice"),
            SpecError::NotADirectory { path } => {
                write!(
                    f,
                    "`{path}` is declared as a file or symlink but other entries nest under it"
                )
            }
            SpecError::EmptyRegistryKey { value } => match value {
                Some(v) => write!(
                    f,
                    "registry value `{v}` is declared on an empty key path (declare a key first)"
                ),
                None => write!(f, "a registry key has an empty path"),
            },
            SpecError::UndeclaredInvoker { uid } => write!(f, "invoker {uid} is not a declared user"),
            SpecError::UndeclaredProgram { path } => {
                write!(f, "program `{path}` is not declared as a file or symlink")
            }
            SpecError::BadMode { path, mode } => write!(f, "mode {mode:#o} on `{path}` has bits outside 0o7777"),
            SpecError::MissingTagTarget { path } => write!(f, "tag target `{path}` is never created"),
            SpecError::MissingCwd { path } => write!(f, "working directory `{path}` does not exist in the world"),
            SpecError::Build { what, error } => write!(f, "building {what}: {error}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// One declared account.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UserSpec {
    /// Account name.
    pub name: String,
    /// User id.
    pub uid: Uid,
    /// Primary group id.
    pub gid: Gid,
    /// Home directory (informational; not implicitly created).
    pub home: String,
}

/// One declared directory (created with all missing ancestors).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirSpec {
    /// Absolute path.
    pub path: String,
    /// Owning user.
    pub owner: Uid,
    /// Owning group.
    pub group: Gid,
    /// Permission bits.
    pub mode: u16,
}

/// One declared regular file (parents created root-owned `0755`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileSpec {
    /// Absolute path.
    pub path: String,
    /// Content bytes (text).
    pub content: String,
    /// Owning user.
    pub owner: Uid,
    /// Owning group.
    pub group: Gid,
    /// Permission bits.
    pub mode: u16,
}

/// One declared symbolic link.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SymlinkSpec {
    /// Absolute path of the link itself.
    pub link: String,
    /// Target path text.
    pub target: String,
}

/// One declared registry key with its values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegKeySpec {
    /// `/`-separated key path.
    pub key: String,
    /// Whether everyone may write the key (the "unprotected" condition).
    pub world_writable: bool,
    /// Named string values set on the key.
    pub values: Vec<(String, String)>,
}

/// One declared remote network service.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceSpec {
    /// Host offering the service.
    pub host: String,
    /// Port.
    pub port: u16,
    /// Whether the peer entity is trusted.
    pub trusted: bool,
}

/// One genuine message queued on an inbound port before the run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InboundSpec {
    /// Local port.
    pub port: u16,
    /// Origin (claimed and actual agree — perturbations spoof later).
    pub from: String,
    /// Payload text.
    pub data: String,
}

/// One genuine message queued on an IPC channel before the run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IpcSpec {
    /// Channel name.
    pub channel: String,
    /// Origin.
    pub from: String,
    /// Payload text.
    pub data: String,
}

/// A campaign world declared as data. Build with [`WorldSpec::builder`],
/// validate once, materialize into a [`TestSetup`] as often as needed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorldSpec {
    /// Scenario metadata (attack targets, invoker/attacker identities).
    pub scenario: ScenarioMeta,
    /// Declared accounts.
    pub users: Vec<UserSpec>,
    /// Declared directories.
    pub dirs: Vec<DirSpec>,
    /// Declared regular files.
    pub files: Vec<FileSpec>,
    /// Declared symlinks.
    pub symlinks: Vec<SymlinkSpec>,
    /// Extra oracle tags beyond the scenario's standard targets.
    pub tags: Vec<(String, FileTag)>,
    /// Declared registry keys.
    pub reg_keys: Vec<RegKeySpec>,
    /// DNS entries (name, address).
    pub dns: Vec<(String, String)>,
    /// Remote services.
    pub services: Vec<ServiceSpec>,
    /// Pre-queued inbound network messages.
    pub inbound: Vec<InboundSpec>,
    /// Pre-queued IPC messages.
    pub ipc: Vec<IpcSpec>,
    /// Program file to spawn from (SUID semantics apply); `None` spawns
    /// with the invoker's plain credentials.
    pub program: Option<String>,
    /// Explicit invoker override (defaults to the scenario invoker).
    pub invoker: Option<Uid>,
    /// Argument vector.
    pub args: Vec<String>,
    /// Environment variables.
    pub env: BTreeMap<String, String>,
    /// Initial working directory.
    pub cwd: String,
    /// Declarative custom invariants, compiled into oracle detectors for
    /// every run of this world (replacing in-code-only custom checks with
    /// serializable data the spec round-trips).
    pub invariants: Vec<InvariantSpec>,
}

impl Default for WorldSpec {
    fn default() -> Self {
        WorldSpec {
            scenario: ScenarioMeta::default(),
            users: Vec::new(),
            dirs: Vec::new(),
            files: Vec::new(),
            symlinks: Vec::new(),
            tags: Vec::new(),
            reg_keys: Vec::new(),
            dns: Vec::new(),
            services: Vec::new(),
            inbound: Vec::new(),
            ipc: Vec::new(),
            program: None,
            invoker: None,
            args: Vec::new(),
            env: BTreeMap::new(),
            cwd: "/".to_string(),
            invariants: Vec::new(),
        }
    }
}

impl WorldSpec {
    /// Starts a builder with the default scenario.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    /// The effective invoker: the explicit override or the scenario's.
    pub fn effective_invoker(&self) -> Uid {
        self.invoker.unwrap_or(self.scenario.invoker)
    }

    /// Checks the spec without building anything.
    ///
    /// # Errors
    ///
    /// See [`SpecError`]: relative paths, duplicate paths/users, modes with
    /// bits outside `0o7777`, an undeclared program, or an invoker that is
    /// not a declared user.
    pub fn validate(&self) -> Result<(), SpecError> {
        let abs = |what: &'static str, path: &str| -> Result<(), SpecError> {
            if path.starts_with('/') {
                Ok(())
            } else {
                Err(SpecError::RelativePath {
                    what,
                    path: path.to_string(),
                })
            }
        };
        let mut seen_paths = std::collections::BTreeSet::new();
        for d in &self.dirs {
            abs("directory", &d.path)?;
            if d.mode > 0o7777 {
                return Err(SpecError::BadMode {
                    path: d.path.clone(),
                    mode: d.mode,
                });
            }
            // Re-declaring a directory is benign (mkdir_p is idempotent),
            // but a dir colliding with a file/symlink below is not.
            seen_paths.insert(d.path.as_str());
        }
        for f in &self.files {
            abs("file", &f.path)?;
            if f.mode > 0o7777 {
                return Err(SpecError::BadMode {
                    path: f.path.clone(),
                    mode: f.mode,
                });
            }
            if !seen_paths.insert(f.path.as_str()) {
                return Err(SpecError::DuplicatePath { path: f.path.clone() });
            }
        }
        for l in &self.symlinks {
            abs("symlink", &l.link)?;
            if !seen_paths.insert(l.link.as_str()) {
                return Err(SpecError::DuplicatePath { path: l.link.clone() });
            }
        }
        // A file/symlink must never sit where another declared entry needs a
        // directory: `put_file` would replace the directory inode and orphan
        // everything below it. (Declared dirs may nest freely.)
        for leaf in self
            .files
            .iter()
            .map(|f| f.path.as_str())
            .chain(self.symlinks.iter().map(|l| l.link.as_str()))
        {
            let below = |p: &&str| p.strip_prefix(leaf).is_some_and(|rest| rest.starts_with('/'));
            if seen_paths.iter().any(below) {
                return Err(SpecError::NotADirectory { path: leaf.to_string() });
            }
        }
        for k in &self.reg_keys {
            if k.key.is_empty() {
                return Err(SpecError::EmptyRegistryKey {
                    value: k.values.first().map(|(n, _)| n.clone()),
                });
            }
        }
        for (path, _) in &self.tags {
            abs("tag", path)?;
        }
        for inv in &self.invariants {
            if let Some(path) = inv.constrained_path() {
                abs("invariant", path)?;
            }
        }
        abs("cwd", &self.cwd)?;
        // Names must be unique; uids may repeat (a uid can have several
        // account names, as the fingerd/authd worlds do).
        let mut names = std::collections::BTreeSet::new();
        for u in &self.users {
            if !names.insert(u.name.as_str()) {
                return Err(SpecError::DuplicateUser { who: u.name.clone() });
            }
        }
        let invoker = self.effective_invoker();
        if !self.users.iter().any(|u| u.uid == invoker) {
            return Err(SpecError::UndeclaredInvoker { uid: invoker });
        }
        if let Some(p) = &self.program {
            abs("program", p)?;
            let declared = self.files.iter().any(|f| &f.path == p) || self.symlinks.iter().any(|l| &l.link == p);
            if !declared {
                return Err(SpecError::UndeclaredProgram { path: p.clone() });
            }
        }
        Ok(())
    }

    /// Validates the spec and builds the pristine world plus spawn
    /// parameters.
    ///
    /// # Errors
    ///
    /// Everything [`WorldSpec::validate`] reports, plus materialization
    /// failures: a tag naming a path that was never created, a working
    /// directory missing from the built world, or a substrate error while
    /// building ([`SpecError::Build`]).
    pub fn materialize(&self) -> Result<TestSetup, SpecError> {
        self.validate()?;
        let mut os = Os::with_scenario(self.scenario.clone());
        for u in &self.users {
            os.users.add(&u.name, u.uid, u.gid, &u.home);
        }
        for d in &self.dirs {
            os.fs
                .mkdir_p(&d.path, d.owner, d.group, Mode::new(d.mode))
                .map_err(|e| SpecError::Build {
                    what: format!("directory `{}`", d.path),
                    error: e.to_string(),
                })?;
        }
        for f in &self.files {
            os.fs
                .put_file(&f.path, f.content.as_str(), f.owner, f.group, Mode::new(f.mode))
                .map_err(|e| SpecError::Build {
                    what: format!("file `{}`", f.path),
                    error: e.to_string(),
                })?;
        }
        for l in &self.symlinks {
            os.fs.god_symlink(&l.link, &l.target).map_err(|e| SpecError::Build {
                what: format!("symlink `{}`", l.link),
                error: e.to_string(),
            })?;
        }
        for k in &self.reg_keys {
            os.registry.ensure_key(
                &k.key,
                RegAcl {
                    owner: Uid::ROOT,
                    world_writable: k.world_writable,
                },
            );
            for (name, value) in &k.values {
                os.registry.god_set_value(&k.key, name, value);
            }
        }
        for (name, addr) in &self.dns {
            os.net.add_dns(name.as_str(), addr.as_str());
        }
        for s in &self.services {
            os.net.add_service(s.host.as_str(), s.port, s.trusted);
        }
        for m in &self.inbound {
            os.net
                .push_message(m.port, Message::genuine(m.from.as_str(), m.data.as_str()));
        }
        for m in &self.ipc {
            os.net
                .push_ipc(m.channel.as_str(), Message::genuine(m.from.as_str(), m.data.as_str()));
        }
        tag_standard_targets(&mut os);
        for (path, tag) in &self.tags {
            os.fs
                .tag(path, *tag)
                .map_err(|_| SpecError::MissingTagTarget { path: path.clone() })?;
        }
        if os.fs.walk(&self.cwd, true, None).is_err() {
            return Err(SpecError::MissingCwd { path: self.cwd.clone() });
        }
        // Safety net behind validation: a structurally broken world must
        // never leave this function.
        os.fs.check_invariants().map_err(|e| SpecError::Build {
            what: "file system".to_string(),
            error: e,
        })?;
        let mut setup = TestSetup::new(os);
        if let Some(p) = &self.program {
            setup = setup.program(p.clone());
        }
        if let Some(uid) = self.invoker {
            setup = setup.invoker(uid);
        }
        setup = setup.args(&self.args).cwd(self.cwd.clone());
        for (k, v) in &self.env {
            setup = setup.env(k.clone(), v);
        }
        for inv in &self.invariants {
            setup = setup.invariant(inv.clone());
        }
        Ok(setup)
    }
}

/// Chainable builder for [`WorldSpec`]s. Every method is `#[must_use]`;
/// finish with [`ScenarioBuilder::build`].
#[derive(Debug, Clone, Default)]
pub struct ScenarioBuilder {
    spec: WorldSpec,
}

impl ScenarioBuilder {
    /// A builder over the default scenario.
    pub fn new() -> Self {
        ScenarioBuilder::default()
    }

    /// A builder over explicit scenario metadata.
    pub fn with_scenario(scenario: ScenarioMeta) -> Self {
        ScenarioBuilder {
            spec: WorldSpec {
                scenario,
                ..WorldSpec::default()
            },
        }
    }

    /// Replaces the scenario metadata (attack targets, identities) without
    /// touching the declared world entries.
    #[must_use]
    pub fn scenario(mut self, scenario: ScenarioMeta) -> Self {
        self.spec.scenario = scenario;
        self
    }

    /// Declares an account.
    #[must_use]
    pub fn user(mut self, name: impl Into<String>, uid: Uid, gid: Gid, home: impl Into<String>) -> Self {
        self.spec.users.push(UserSpec {
            name: name.into(),
            uid,
            gid,
            home: home.into(),
        });
        self
    }

    /// Declares a directory (with all missing ancestors).
    #[must_use]
    pub fn dir(mut self, path: impl Into<String>, owner: Uid, group: Gid, mode: u16) -> Self {
        self.spec.dirs.push(DirSpec {
            path: path.into(),
            owner,
            group,
            mode,
        });
        self
    }

    /// Declares a regular file.
    #[must_use]
    pub fn file(
        mut self,
        path: impl Into<String>,
        content: impl Into<String>,
        owner: Uid,
        group: Gid,
        mode: u16,
    ) -> Self {
        self.spec.files.push(FileSpec {
            path: path.into(),
            content: content.into(),
            owner,
            group,
            mode,
        });
        self
    }

    /// Declares a root-owned file (the common case for system objects).
    #[must_use]
    pub fn root_file(self, path: impl Into<String>, content: impl Into<String>, mode: u16) -> Self {
        self.file(path, content, Uid::ROOT, Gid::ROOT, mode)
    }

    /// Declares an empty root-owned SUID-root program file *and* selects it
    /// as the program under test.
    #[must_use]
    pub fn suid_root_program(self, path: impl Into<String>) -> Self {
        let path = path.into();
        self.root_file(path.clone(), "", 0o4755).program(path)
    }

    /// Declares an empty root-owned `0755` program file *and* selects it as
    /// the program under test (no SUID bit).
    #[must_use]
    pub fn root_program(self, path: impl Into<String>) -> Self {
        let path = path.into();
        self.root_file(path.clone(), "", 0o755).program(path)
    }

    /// Declares a symbolic link.
    #[must_use]
    pub fn symlink(mut self, link: impl Into<String>, target: impl Into<String>) -> Self {
        self.spec.symlinks.push(SymlinkSpec {
            link: link.into(),
            target: target.into(),
        });
        self
    }

    /// Attaches an oracle tag to a declared path.
    #[must_use]
    pub fn tag(mut self, path: impl Into<String>, tag: FileTag) -> Self {
        self.spec.tags.push((path.into(), tag));
        self
    }

    /// Declares a registry key.
    #[must_use]
    pub fn registry_key(mut self, key: impl Into<String>, world_writable: bool) -> Self {
        self.spec.reg_keys.push(RegKeySpec {
            key: key.into(),
            world_writable,
            values: Vec::new(),
        });
        self
    }

    /// Sets a value on the most recently declared registry key (declares the
    /// key protected if none was declared yet).
    #[must_use]
    pub fn registry_value(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        if self.spec.reg_keys.is_empty() {
            self.spec.reg_keys.push(RegKeySpec {
                key: String::new(),
                world_writable: false,
                values: Vec::new(),
            });
        }
        let last = self.spec.reg_keys.last_mut().expect("just ensured non-empty");
        last.values.push((name.into(), value.into()));
        self
    }

    /// Installs a DNS entry.
    #[must_use]
    pub fn dns(mut self, name: impl Into<String>, addr: impl Into<String>) -> Self {
        self.spec.dns.push((name.into(), addr.into()));
        self
    }

    /// Declares a remote service.
    #[must_use]
    pub fn service(mut self, host: impl Into<String>, port: u16, trusted: bool) -> Self {
        self.spec.services.push(ServiceSpec {
            host: host.into(),
            port,
            trusted,
        });
        self
    }

    /// Queues a genuine inbound message.
    #[must_use]
    pub fn inbound_message(mut self, port: u16, from: impl Into<String>, data: impl Into<String>) -> Self {
        self.spec.inbound.push(InboundSpec {
            port,
            from: from.into(),
            data: data.into(),
        });
        self
    }

    /// Queues a genuine IPC message.
    #[must_use]
    pub fn ipc_message(mut self, channel: impl Into<String>, from: impl Into<String>, data: impl Into<String>) -> Self {
        self.spec.ipc.push(IpcSpec {
            channel: channel.into(),
            from: from.into(),
            data: data.into(),
        });
        self
    }

    /// Selects the program under test.
    #[must_use]
    pub fn program(mut self, path: impl Into<String>) -> Self {
        self.spec.program = Some(path.into());
        self
    }

    /// Overrides the invoking user.
    #[must_use]
    pub fn invoker(mut self, uid: Uid) -> Self {
        self.spec.invoker = Some(uid);
        self
    }

    /// Sets the argument vector.
    #[must_use]
    pub fn args<I, S>(mut self, args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.spec.args = args.into_iter().map(Into::into).collect();
        self
    }

    /// Sets one environment variable.
    #[must_use]
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.spec.env.insert(key.into(), value.into());
        self
    }

    /// Sets the initial working directory.
    #[must_use]
    pub fn cwd(mut self, dir: impl Into<String>) -> Self {
        self.spec.cwd = dir.into();
        self
    }

    /// Declares a custom invariant the oracle enforces on every run (e.g.
    /// [`InvariantSpec::file_pristine`]); verdicts surface as
    /// `custom`-family violations with rule `invariant:<label>`.
    #[must_use]
    pub fn invariant(mut self, spec: InvariantSpec) -> Self {
        self.spec.invariants.push(spec);
        self
    }

    /// Finishes the spec (no validation; see [`WorldSpec::validate`]).
    pub fn build(self) -> WorldSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> ScenarioBuilder {
        let scenario = ScenarioMeta::default();
        ScenarioBuilder::new()
            .user("root", Uid::ROOT, Gid::ROOT, "/root")
            .user("student", scenario.invoker, scenario.invoker_gid, "/home/student")
            .dir("/var/spool/lpd", Uid::ROOT, Gid::ROOT, 0o755)
            .root_file("/etc/passwd", "root:0:0:", 0o644)
            .root_file("/etc/shadow", "root:HASH", 0o600)
            .suid_root_program("/usr/bin/lpr")
    }

    #[test]
    fn minimal_spec_validates_and_materializes() {
        let spec = minimal().build();
        spec.validate().unwrap();
        let setup = spec.materialize().unwrap();
        assert_eq!(setup.program.as_deref(), Some("/usr/bin/lpr"));
        assert!(setup.world.fs.exists("/etc/shadow"));
        // Standard targets were tagged.
        let st = setup.world.fs.stat("/etc/shadow", None).unwrap();
        assert!(st.tags.contains(&FileTag::Secret));
        setup.world.fs.check_invariants().unwrap();
    }

    #[test]
    fn relative_paths_are_rejected() {
        let spec = minimal().file("oops.txt", "", Uid::ROOT, Gid::ROOT, 0o644).build();
        assert!(matches!(
            spec.validate(),
            Err(SpecError::RelativePath { what: "file", .. })
        ));
    }

    #[test]
    fn duplicate_paths_are_rejected() {
        let spec = minimal().root_file("/etc/passwd", "second", 0o644).build();
        assert_eq!(
            spec.validate(),
            Err(SpecError::DuplicatePath {
                path: "/etc/passwd".into()
            })
        );
    }

    #[test]
    fn file_shadowing_a_declared_directory_is_rejected() {
        // `/var/spool/lpd` is declared as a directory; a file at
        // `/var/spool` would replace that directory's parent inode and
        // orphan the subtree. Validation must refuse up front.
        let spec = minimal().root_file("/var/spool", "not a dir", 0o644).build();
        assert_eq!(
            spec.validate(),
            Err(SpecError::NotADirectory {
                path: "/var/spool".into()
            })
        );
    }

    #[test]
    fn file_shadowing_another_files_parent_is_rejected() {
        let spec = minimal()
            .root_file("/srv/app", "leaf", 0o644)
            .root_file("/srv/app/conf", "nested", 0o644)
            .build();
        assert_eq!(
            spec.validate(),
            Err(SpecError::NotADirectory {
                path: "/srv/app".into()
            })
        );
    }

    #[test]
    fn registry_value_without_a_key_is_rejected() {
        let spec = ScenarioBuilder::new().registry_value("Path", "/x").build();
        assert_eq!(
            spec.validate(),
            Err(SpecError::EmptyRegistryKey {
                value: Some("Path".into())
            })
        );
    }

    #[test]
    fn undeclared_program_is_rejected() {
        let spec = minimal().program("/usr/bin/other").build();
        assert_eq!(
            spec.validate(),
            Err(SpecError::UndeclaredProgram {
                path: "/usr/bin/other".into()
            })
        );
    }

    #[test]
    fn undeclared_invoker_is_rejected() {
        let spec = minimal().invoker(Uid(4242)).build();
        assert_eq!(spec.validate(), Err(SpecError::UndeclaredInvoker { uid: Uid(4242) }));
    }

    #[test]
    fn bad_mode_is_rejected() {
        let spec = minimal().root_file("/etc/odd", "", 0o10000).build();
        assert!(matches!(spec.validate(), Err(SpecError::BadMode { .. })));
    }

    #[test]
    fn missing_tag_target_fails_materialization() {
        let spec = minimal().tag("/no/such/file", FileTag::Secret).build();
        assert_eq!(
            spec.materialize().unwrap_err(),
            SpecError::MissingTagTarget {
                path: "/no/such/file".into()
            }
        );
    }

    #[test]
    fn missing_cwd_fails_materialization() {
        let spec = minimal().cwd("/nowhere").build();
        assert_eq!(
            spec.materialize().unwrap_err(),
            SpecError::MissingCwd {
                path: "/nowhere".into()
            }
        );
    }

    #[test]
    fn registry_and_network_entries_materialize() {
        let spec = minimal()
            .registry_key("HKLM/Software/Fonts/Cache0", true)
            .registry_value("Path", "/winnt/fonts/cache0.fon")
            .dns("trusted.cs.example.edu", "10.0.5.1")
            .service("trusted.cs.example.edu", 1023, true)
            .inbound_message(79, "trusted.cs.example.edu", "user1001")
            .ipc_message("maild", "maild", "From: alice")
            .build();
        let setup = spec.materialize().unwrap();
        let os = &setup.world;
        assert_eq!(os.registry.unprotected_keys().len(), 1);
        assert_eq!(&*os.net.resolve("trusted.cs.example.edu").unwrap(), "10.0.5.1");
        assert!(os.net.service("trusted.cs.example.edu", 1023).is_some());
        assert_eq!(os.net.queue_len(79), 1);
    }

    #[test]
    fn specs_serialize_round_trip() {
        let spec = minimal()
            .invariant(InvariantSpec::file_pristine("/etc/shadow"))
            .invariant(InvariantSpec::require_rule("auth"))
            .build();
        let json = serde_json::to_string(&spec).unwrap();
        let back: WorldSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.invariants.len(), 2);
    }

    #[test]
    fn relative_invariant_paths_are_rejected() {
        let spec = minimal().invariant(InvariantSpec::file_pristine("etc/motd")).build();
        assert!(matches!(
            spec.validate(),
            Err(SpecError::RelativePath { what: "invariant", .. })
        ));
    }

    #[test]
    fn invariants_reach_the_materialized_setup_and_its_oracle() {
        let spec = minimal().invariant(InvariantSpec::forbid_exec("/tmp")).build();
        let setup = spec.materialize().unwrap();
        assert_eq!(setup.invariants.len(), 1);
        // Standard eight families plus the compiled invariant.
        assert_eq!(setup.oracle().len(), 9);
        assert!(setup.oracle().names().contains(&"invariant"));
    }
}
