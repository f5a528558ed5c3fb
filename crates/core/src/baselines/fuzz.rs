//! Fuzz baseline: random black-box input (Miller et al., CACM 1990).
//!
//! The fuzzer perturbs nothing but the program's *inputs*, replacing each
//! argument (or queueing random network packets) with random bytes. It has
//! no notion of file attributes, `PATH` semantics, or symlinks — which is
//! exactly why the paper argues environment-fault injection complements it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use epa_sandbox::app::Application;
use epa_sandbox::net::Message;

use super::{BaselineRecord, BaselineReport};
use crate::campaign::{run_once, TestSetup};

/// Where the fuzzer aims its random bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuzzTarget {
    /// Replace every command-line argument with random text.
    Args,
    /// Queue one random packet on a local port before the run.
    Net {
        /// The port fuzzed messages are queued on.
        port: u16,
        /// The claimed sender for fuzzed messages.
        from: String,
    },
    /// Queue one random message on an IPC channel before the run.
    Ipc {
        /// The channel fuzzed messages are queued on.
        channel: String,
        /// The claimed sender for fuzzed messages.
        from: String,
    },
}

/// Fuzzer configuration.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Number of random runs.
    pub runs: usize,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Maximum generated input length.
    pub max_len: usize,
    /// Target.
    pub target: FuzzTarget,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            runs: 100,
            seed: 42,
            max_len: 6000,
            target: FuzzTarget::Args,
        }
    }
}

fn random_text(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| {
            // Printable ASCII plus a sprinkling of the bytes fuzz papers
            // found effective (NUL-adjacent controls, separators).
            let roll: u8 = rng.gen_range(0..=99);
            if roll < 90 {
                rng.gen_range(0x20u8..=0x7e) as char
            } else {
                *['\n', '\t', ';', '/', '%', '\u{1}']
                    .get(rng.gen_range(0..6usize))
                    .unwrap_or(&'?')
            }
        })
        .collect()
}

/// Runs the fuzz baseline.
pub fn run_fuzz(setup: &TestSetup, app: &dyn Application, options: &FuzzOptions) -> BaselineReport {
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut records = Vec::with_capacity(options.runs);
    for _ in 0..options.runs {
        let mut run_setup = setup.clone();
        let input_desc;
        match &options.target {
            FuzzTarget::Args => {
                let count = run_setup.args.len().max(1);
                let fuzzed: Vec<String> = (0..count).map(|_| random_text(&mut rng, options.max_len)).collect();
                input_desc = format!(
                    "args[{}] lens {:?}",
                    count,
                    fuzzed.iter().map(String::len).collect::<Vec<_>>()
                );
                run_setup.args = fuzzed.iter().map(|a| a.as_str().into()).collect();
            }
            FuzzTarget::Net { port, from } => {
                // The fuzzed packet replaces the scripted traffic.
                while run_setup.world.net.pop_message(*port).is_some() {}
                let payload = random_text(&mut rng, options.max_len);
                input_desc = format!("packet len {} on :{port}", payload.len());
                run_setup
                    .world
                    .net
                    .push_message(*port, Message::genuine(from.clone(), payload));
            }
            FuzzTarget::Ipc { channel, from } => {
                while run_setup.world.net.pop_ipc(channel).is_ok() {}
                let payload = random_text(&mut rng, options.max_len);
                input_desc = format!("ipc message len {} on {channel}", payload.len());
                run_setup
                    .world
                    .net
                    .push_ipc(channel.clone(), Message::genuine(from.clone(), payload));
            }
        }
        let outcome = run_once(&run_setup, app, None);
        records.push(BaselineRecord {
            input: input_desc,
            exit: outcome.exit,
            crashed: outcome.has_crashed(),
            violations: outcome.violations,
        });
    }
    BaselineReport {
        technique: "fuzz".into(),
        app: app.name().to_string(),
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_sandbox::buffer::{CopyDiscipline, FixedBuf};
    use epa_sandbox::cred::{Gid, Uid};
    use epa_sandbox::mode::Mode;
    use epa_sandbox::os::Os;
    use epa_sandbox::process::Pid;
    use epa_sandbox::trace::InputSemantic;

    /// An app with a classic gets()-style overflow on its first argument.
    struct Overflowing;
    impl Application for Overflowing {
        fn name(&self) -> &'static str {
            "overflowing"
        }
        fn run(&self, os: &mut Os, pid: Pid) -> i32 {
            let Ok(arg) = os.sys_arg(pid, "ovf:arg", 0, InputSemantic::UserFileName) else {
                return 2;
            };
            let mut buf = FixedBuf::new("argbuf", 512);
            os.mem_copy(pid, &mut buf, &arg, CopyDiscipline::Unchecked);
            0
        }
    }

    fn setup() -> TestSetup {
        let mut os = Os::new();
        os.users
            .add("u", os.scenario.invoker, os.scenario.invoker_gid, "/home/u");
        os.fs
            .mkdir_p(
                "/home/u",
                os.scenario.invoker,
                os.scenario.invoker_gid,
                Mode::new(0o755),
            )
            .unwrap();
        os.fs
            .put_file("/bin/ovf", "", Uid::ROOT, Gid::ROOT, Mode::new(0o755))
            .unwrap();
        TestSetup::new(os).args(["hello"])
    }

    #[test]
    fn fuzz_finds_the_overflow() {
        let s = setup();
        let rep = run_fuzz(
            &s,
            &Overflowing,
            &FuzzOptions {
                runs: 40,
                seed: 7,
                max_len: 4096,
                target: FuzzTarget::Args,
            },
        );
        assert_eq!(rep.runs(), 40);
        assert!(rep.detections() > 0, "long random args must trip the unchecked copy");
        assert!(rep.distinct_rules().contains("R4-memory-safety"));
    }

    #[test]
    fn fuzz_is_deterministic_per_seed() {
        let s = setup();
        let o = FuzzOptions {
            runs: 10,
            seed: 99,
            max_len: 1024,
            target: FuzzTarget::Args,
        };
        let a = run_fuzz(&s, &Overflowing, &o);
        let b = run_fuzz(&s, &Overflowing, &o);
        assert_eq!(a, b);
    }
}
