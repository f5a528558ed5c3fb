//! Scripted application behaviors: programs as *data*.
//!
//! A [`BehaviorScript`] is a serializable list of [`BehaviorStep`]s, each
//! compiling to one (or a few) syscalls against the sandbox [`Os`]. The
//! corpus generator synthesizes scripts alongside their [`super::Scenario`]
//! worlds; [`BehaviorScript::run`] interprets one deterministically, which
//! is what the `epa-apps` scripted adapter drives from inside an
//! [`epa_sandbox::app::Application`] impl.
//!
//! Steps are written the way the paper's model applications are: every
//! syscall error is tolerated (counted, never panicking), so a script stays
//! runnable under any injected environment fault.

use serde::{Deserialize, Serialize};

use epa_sandbox::os::Os;
use epa_sandbox::process::Pid;
use epa_sandbox::trace::{InputSemantic, SiteId};

/// One scripted interaction with the environment.
///
/// Site ids are derived from the step's position (`gen{index}:{kind}`), so
/// a step that re-issues a syscall — [`BehaviorStep::ReadFile`] with
/// `times > 1` — hits the *same* interaction point repeatedly and produces
/// the occurrence-heavy (TOCTTOU-shaped) traces the corpus is biased
/// toward.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum BehaviorStep {
    /// Read one argv entry as a user-supplied file name.
    ReadArg {
        /// Argument index.
        index: usize,
    },
    /// Read one environment variable.
    ReadEnv {
        /// Variable name.
        name: String,
    },
    /// Read a file `times` times through one site (re-reads model the
    /// re-accessed-object shape of the lpr TOCTTOU class).
    ReadFile {
        /// Absolute path.
        path: String,
        /// How often the site re-reads it (≥ 1).
        times: usize,
    },
    /// `stat` a path, then write it — the classic check-then-use pair.
    StatThenWrite {
        /// Absolute path.
        path: String,
        /// Content written on success.
        content: String,
        /// Mode of a newly created file.
        mode: u16,
    },
    /// Plain (non-exclusive) file write.
    WriteFile {
        /// Absolute path.
        path: String,
        /// Content.
        content: String,
        /// Mode of a newly created file.
        mode: u16,
    },
    /// `O_CREAT|O_EXCL`-style exclusive creation.
    CreateExclusive {
        /// Absolute path.
        path: String,
        /// Mode of the created file.
        mode: u16,
    },
    /// Append to a file.
    Append {
        /// Absolute path.
        path: String,
        /// Appended content.
        content: String,
    },
    /// Unlink a path.
    Unlink {
        /// Absolute path.
        path: String,
    },
    /// `stat` a path.
    Stat {
        /// Absolute path.
        path: String,
    },
    /// Read a symlink's target.
    ReadLink {
        /// Absolute path of the link.
        path: String,
    },
    /// List a directory.
    ListDir {
        /// Absolute path.
        path: String,
    },
    /// Execute a program (privileged-spawn interaction).
    Exec {
        /// Absolute program path.
        path: String,
    },
    /// Read a registry value.
    RegRead {
        /// `/`-separated key path.
        key: String,
        /// Value name.
        value: String,
    },
    /// Write a registry value.
    RegWrite {
        /// `/`-separated key path.
        key: String,
        /// Value name.
        value: String,
        /// Written data.
        data: String,
    },
    /// Resolve a host name.
    DnsLookup {
        /// Host name.
        host: String,
    },
    /// Connect to a service and send one payload.
    NetExchange {
        /// Remote host.
        host: String,
        /// Remote port.
        port: u16,
        /// Sent payload.
        payload: String,
    },
    /// Receive one inbound network message.
    NetReceive {
        /// Local port.
        port: u16,
    },
    /// Receive one IPC message.
    IpcReceive {
        /// Channel name.
        channel: String,
    },
    /// Print to stdout (pure output; no applicable faults).
    Print {
        /// Printed text.
        text: String,
    },
}

impl BehaviorStep {
    /// The short site tag of this step kind (second half of the site id).
    fn tag(&self) -> &'static str {
        match self {
            BehaviorStep::ReadArg { .. } => "arg",
            BehaviorStep::ReadEnv { .. } => "env",
            BehaviorStep::ReadFile { .. } => "read",
            BehaviorStep::StatThenWrite { .. } => "checkuse",
            BehaviorStep::WriteFile { .. } => "write",
            BehaviorStep::CreateExclusive { .. } => "excl",
            BehaviorStep::Append { .. } => "append",
            BehaviorStep::Unlink { .. } => "unlink",
            BehaviorStep::Stat { .. } => "stat",
            BehaviorStep::ReadLink { .. } => "readlink",
            BehaviorStep::ListDir { .. } => "list",
            BehaviorStep::Exec { .. } => "exec",
            BehaviorStep::RegRead { .. } => "regread",
            BehaviorStep::RegWrite { .. } => "regwrite",
            BehaviorStep::DnsLookup { .. } => "dns",
            BehaviorStep::NetExchange { .. } => "net",
            BehaviorStep::NetReceive { .. } => "recv",
            BehaviorStep::IpcReceive { .. } => "ipc",
            BehaviorStep::Print { .. } => "print",
        }
    }

    /// Runs the step at `site`; `false` means the underlying syscall(s)
    /// failed (the script tolerates it and moves on).
    fn run(&self, site: SiteId, os: &mut Os, pid: Pid) -> bool {
        match self {
            BehaviorStep::ReadArg { index } => os.sys_arg(pid, site, *index, InputSemantic::UserFileName).is_ok(),
            BehaviorStep::ReadEnv { name } => os.sys_getenv(pid, site, name, InputSemantic::EnvValue).is_ok(),
            BehaviorStep::ReadFile { path, times } => {
                let mut ok = true;
                for _ in 0..(*times).max(1) {
                    ok &= os.sys_read_file(pid, site, path.as_str()).is_ok();
                }
                ok
            }
            BehaviorStep::StatThenWrite { path, content, mode } => {
                // Check-then-use: the stat verdict gates nothing — exactly
                // the naive pattern environment perturbation exists to
                // expose.
                let _ = os.sys_stat(pid, site, path.as_str());
                os.sys_write_file(pid, site, path.as_str(), content.as_str(), *mode)
                    .is_ok()
            }
            BehaviorStep::WriteFile { path, content, mode } => os
                .sys_write_file(pid, site, path.as_str(), content.as_str(), *mode)
                .is_ok(),
            BehaviorStep::CreateExclusive { path, mode } => os.sys_create_excl(pid, site, path.as_str(), *mode).is_ok(),
            BehaviorStep::Append { path, content } => {
                os.sys_append(pid, site, path.as_str(), content.as_str(), 0o644).is_ok()
            }
            BehaviorStep::Unlink { path } => os.sys_unlink(pid, site, path.as_str()).is_ok(),
            BehaviorStep::Stat { path } => os.sys_stat(pid, site, path.as_str()).is_ok(),
            BehaviorStep::ReadLink { path } => os.sys_readlink(pid, site, path.as_str()).is_ok(),
            BehaviorStep::ListDir { path } => os.sys_list_dir(pid, site, path.as_str()).is_ok(),
            BehaviorStep::Exec { path } => os.sys_exec(pid, site, path.as_str(), Vec::new(), None).is_ok(),
            BehaviorStep::RegRead { key, value } => {
                os.sys_reg_read(pid, site, key, value, InputSemantic::EnvValue).is_ok()
            }
            BehaviorStep::RegWrite { key, value, data } => os.sys_reg_write(pid, site, key, value, data).is_ok(),
            BehaviorStep::DnsLookup { host } => os.sys_dns(pid, site, host, InputSemantic::NetDnsReply).is_ok(),
            BehaviorStep::NetExchange { host, port, payload } => {
                let connected = os.sys_net_connect(pid, site, host, *port).is_ok();
                connected && os.sys_net_send(pid, site, host, *port, payload.as_str()).is_ok()
            }
            BehaviorStep::NetReceive { port } => os.sys_net_recv(pid, site, *port, InputSemantic::NetPacket).is_ok(),
            BehaviorStep::IpcReceive { channel } => {
                os.sys_proc_recv(pid, site, channel, InputSemantic::ProcMessage).is_ok()
            }
            BehaviorStep::Print { text } => os.sys_print(pid, site, text.as_str()).is_ok(),
        }
    }
}

/// A deterministic scripted application behavior: steps executed in order,
/// syscall failures tolerated and counted.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BehaviorScript {
    /// The steps, executed in order.
    pub steps: Vec<BehaviorStep>,
}

impl BehaviorScript {
    /// A script over `steps`.
    pub fn new(steps: Vec<BehaviorStep>) -> BehaviorScript {
        BehaviorScript { steps }
    }

    /// Interprets the script against a sandbox world, returning the exit
    /// status an equivalent hand-written program would: `0` when every step
    /// succeeded, else the number of failed steps (capped at `100`).
    ///
    /// This is the single interpreter behind the `epa-apps` scripted
    /// adapter; it issues only `sys_*` calls and never consults oracle
    /// metadata, exactly like a hand-written [`epa_sandbox::app::Application`].
    /// `sites` is [`BehaviorScript::sites`], built once per script.
    ///
    /// # Panics
    ///
    /// If `sites` does not hold one id per step.
    pub fn run(&self, sites: &[SiteId], os: &mut Os, pid: Pid) -> i32 {
        assert_eq!(sites.len(), self.steps.len(), "one site id per script step");
        let mut failures = 0i32;
        for (step, &site) in self.steps.iter().zip(sites) {
            if !step.run(site, os, pid) {
                failures += 1;
            }
        }
        failures.min(100)
    }

    /// Each step's interaction site, in step order: step `i` of kind `tag`
    /// is `gen<i>:<tag>`. The only site labels in the engine made at run
    /// time, so they are interned here once per script rather than on
    /// every syscall of every run.
    pub fn sites(&self) -> Vec<SiteId> {
        self.steps
            .iter()
            .enumerate()
            .map(|(i, step)| SiteId::new(format!("gen{i}:{}", step.tag())))
            .collect()
    }

    /// A stable content fingerprint of the script (FNV-1a over its
    /// serialized form).
    pub fn fingerprint(&self) -> u64 {
        let json = serde_json::to_string(self).expect("behavior scripts serialize");
        crate::engine::planner::fnv1a(json.as_bytes())
    }
}
