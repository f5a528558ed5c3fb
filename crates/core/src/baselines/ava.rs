//! AVA baseline: internal-state perturbation (Ghosh et al., S&P 1998).
//!
//! AVA corrupts the *internal states assigned to application variables*
//! rather than the environment. The closest faithful analogue in this
//! sandbox: randomly corrupt the values the application's internal entities
//! receive at every input interaction — with no environment-attribute
//! perturbation and no semantic patterns. Per the paper's §5 analysis, this
//! surfaces input-propagation flaws but is structurally blind to direct
//! environment faults (file attributes, symlinks, trust, availability).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use epa_sandbox::app::Application;
use epa_sandbox::data::Data;
use epa_sandbox::error::SysResult;
use epa_sandbox::os::Os;
use epa_sandbox::syscall::{InteractionRef, Interceptor, SysReturn, Syscall};

use super::{BaselineRecord, BaselineReport};
use crate::campaign::{run_once, TestSetup};

/// AVA configuration.
#[derive(Debug, Clone)]
pub struct AvaOptions {
    /// Number of randomized runs.
    pub runs: usize,
    /// RNG seed.
    pub seed: u64,
    /// Probability that any given input value is corrupted.
    pub intensity: f64,
}

impl Default for AvaOptions {
    fn default() -> Self {
        AvaOptions {
            runs: 100,
            seed: 42,
            intensity: 0.5,
        }
    }
}

/// The AVA hook: corrupts input-derived values as they enter internal state.
struct AvaHook {
    rng: StdRng,
    intensity: f64,
    corruptions: u32,
}

impl AvaHook {
    fn corrupt(&mut self, data: &mut Data) {
        let choice = self.rng.gen_range(0..4u8);
        let text = data.text();
        let mutated = match choice {
            0 => {
                // Bit-flip a random byte.
                let mut bytes = data.as_bytes().to_vec();
                if bytes.is_empty() {
                    vec![0xff]
                } else {
                    let i = self.rng.gen_range(0..bytes.len());
                    bytes[i] ^= 1u8 << self.rng.gen_range(0..8u8);
                    bytes
                }
            }
            1 => text.as_bytes()[..text.len() / 2].to_vec(),
            2 => {
                let mut t = text.into_bytes();
                t.extend(std::iter::repeat_n(b'Z', self.rng.gen_range(1..2048)));
                t
            }
            _ => {
                let len = self.rng.gen_range(0..64);
                (0..len).map(|_| self.rng.gen_range(0x20u8..=0x7e)).collect()
            }
        };
        data.set_bytes(mutated);
        self.corruptions += 1;
    }
}

impl Interceptor for AvaHook {
    fn before(&mut self, _os: &mut Os, _point: &InteractionRef, _call: &Syscall<'_>) {}

    fn after(&mut self, _os: &mut Os, point: &InteractionRef, result: &mut SysResult<SysReturn>) {
        if !point.op.is_input() {
            return;
        }
        if self.rng.gen_bool(self.intensity) {
            if let Ok(ret) = result {
                match ret {
                    SysReturn::Payload(d) => self.corrupt(d),
                    SysReturn::Delivery(m) => self.corrupt(&mut m.data),
                    _ => {}
                }
            }
        }
    }
}

/// Runs the AVA baseline.
pub fn run_ava(setup: &TestSetup, app: &dyn Application, options: &AvaOptions) -> BaselineReport {
    let mut seeder = StdRng::seed_from_u64(options.seed);
    let mut records = Vec::with_capacity(options.runs);
    for i in 0..options.runs {
        let run_seed: u64 = seeder.gen();
        let hook = AvaHook {
            rng: StdRng::seed_from_u64(run_seed),
            intensity: options.intensity,
            corruptions: 0,
        };
        let outcome = run_once(setup, app, Some(Box::new(hook)));
        records.push(BaselineRecord {
            input: format!("ava run {i} (seed {run_seed:#x})"),
            exit: outcome.exit,
            crashed: outcome.has_crashed(),
            violations: outcome.violations,
        });
    }
    BaselineReport {
        technique: "ava".into(),
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
    use epa_sandbox::process::Pid;
    use epa_sandbox::trace::InputSemantic;

    struct Overflowing;
    impl Application for Overflowing {
        fn name(&self) -> &'static str {
            "overflowing"
        }
        fn run(&self, os: &mut Os, pid: Pid) -> i32 {
            let Ok(arg) = os.sys_arg(pid, "ovf:arg", 0, InputSemantic::UserFileName) else {
                return 2;
            };
            let mut buf = FixedBuf::new("argbuf", 256);
            os.mem_copy(pid, &mut buf, &arg, CopyDiscipline::Unchecked);
            0
        }
    }

    /// Vulnerable only to a *direct* fault (symlink swap) — AVA cannot see it.
    struct DirectOnly;
    impl Application for DirectOnly {
        fn name(&self) -> &'static str {
            "direct-only"
        }
        fn run(&self, os: &mut Os, pid: Pid) -> i32 {
            let _ = os.sys_write_file(pid, "do:create", "/var/spool/x", "job", 0o660);
            0
        }
    }

    fn setup() -> TestSetup {
        let mut os = Os::new();
        os.users
            .add("u", os.scenario.invoker, os.scenario.invoker_gid, "/home/u");
        os.fs
            .mkdir_p("/var/spool", Uid::ROOT, Gid::ROOT, Mode::new(0o755))
            .unwrap();
        os.fs
            .put_file("/usr/bin/app", "", Uid::ROOT, Gid::ROOT, Mode::new(0o4755))
            .unwrap();
        TestSetup::new(os).program("/usr/bin/app").args(["input"])
    }

    #[test]
    fn ava_finds_input_propagation_flaws() {
        let s = setup();
        let rep = run_ava(
            &s,
            &Overflowing,
            &AvaOptions {
                runs: 60,
                seed: 3,
                intensity: 0.9,
            },
        );
        assert!(rep.detections() > 0, "length corruption must trip the overflow");
    }

    #[test]
    fn ava_misses_direct_environment_flaws() {
        let s = setup();
        let rep = run_ava(
            &s,
            &DirectOnly,
            &AvaOptions {
                runs: 40,
                seed: 3,
                intensity: 0.9,
            },
        );
        assert_eq!(
            rep.detections(),
            0,
            "no internal-state corruption can surface the symlink flaw"
        );
    }

    #[test]
    fn ava_is_deterministic_per_seed() {
        let s = setup();
        let o = AvaOptions {
            runs: 10,
            seed: 11,
            intensity: 0.7,
        };
        assert_eq!(run_ava(&s, &Overflowing, &o), run_ava(&s, &Overflowing, &o));
    }
}
