//! The strict flag walker shared by the command-line binaries.
//!
//! Every token must be a known boolean flag, a known value flag, or the
//! token right after a value flag (its value). Anything else — a
//! misspelled flag, a `--flag=value` token, a value flag at the end of
//! the line — is a usage error, which [`usage_exit`] turns into exit
//! status 2. A typo therefore fails loudly instead of silently running
//! with defaults.

use std::fmt::Display;
use std::str::FromStr;
use std::sync::Arc;

use dynpar::{LaunchLatency, LaunchModelKind};
use gpu_sim::config::GpuConfig;
use gpu_sim::engine::Simulator;
use gpu_sim::trace::TraceSink;
use sim_metrics::harness::{scheduler_by_name, scheduler_names};
use workloads::{suite_names, workload_seeded, Scale, SharedSource, Workload};

/// A command line that passed the strict walk.
#[derive(Debug, PartialEq, Eq)]
pub struct Flags {
    /// `(flag, value)` in command-line order; `None` for boolean flags.
    given: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Walks `args` against the known `value_flags` (each consumes the
    /// next token as its value) and `bool_flags`.
    ///
    /// # Errors
    ///
    /// Returns the usage message for the first unknown token or value
    /// flag without a value.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        value_flags: &[&str],
        bool_flags: &[&str],
    ) -> Result<Flags, String> {
        let mut args = args.into_iter();
        let mut given = Vec::new();
        while let Some(arg) = args.next() {
            if bool_flags.contains(&arg.as_str()) {
                given.push((arg, None));
            } else if value_flags.contains(&arg.as_str()) {
                let Some(value) = args.next() else {
                    return Err(format!("{arg} expects a value"));
                };
                given.push((arg, Some(value)));
            } else {
                return Err(format!(
                    "unknown argument {arg}\n\
                     value flags: {} (each takes the next token)\n\
                     boolean flags: {}",
                    value_flags.join(" "),
                    if bool_flags.is_empty() { "none".to_string() } else { bool_flags.join(" ") },
                ));
            }
        }
        Ok(Flags { given })
    }

    /// [`parse`](Self::parse) over the process arguments (program name
    /// skipped), exiting with status 2 on a usage error.
    pub fn from_env(value_flags: &[&str], bool_flags: &[&str]) -> Flags {
        Flags::parse(std::env::args().skip(1), value_flags, bool_flags)
            .unwrap_or_else(|e| usage_exit(e))
    }

    /// `true` if boolean flag `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| f == flag)
    }

    /// The value of the first occurrence of value flag `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.given.iter().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }

    /// The value of `flag` parsed as a number, exiting with status 2
    /// when it does not parse.
    pub fn number<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|v| {
            v.parse().unwrap_or_else(|_| usage_exit(format!("{flag} expects a number, got {v}")))
        })
    }
}

/// Value flags naming the one simulation `laperm-sim` and
/// `laperm-trace` run: `--workload` (default bfs-citation; `list`
/// prints the suite's names), `--scheduler` (default adaptive-bind),
/// `--model` (default dtbl), `--scale` (default small), `--seed`
/// (default 0) and `--smxs` (SMX-count override).
pub const RUN_FLAGS: [&str; 6] =
    ["--workload", "--scheduler", "--model", "--scale", "--seed", "--smxs"];

/// The simulation named by [`RUN_FLAGS`].
pub struct RunFlags {
    /// The chosen suite workload.
    pub workload: Arc<dyn Workload>,
    /// The dynamic launch model.
    pub model: LaunchModelKind,
    /// The workload's input seed.
    pub seed: u64,
    scheduler: String,
    smxs: Option<u16>,
}

impl RunFlags {
    /// Parses the process arguments against [`RUN_FLAGS`] plus the
    /// binary's own `value_flags` and `bool_flags`, and builds only the
    /// named workload. Exits 2 on a usage error or an unknown name; on
    /// `--workload list` prints the suite's names in order, generating
    /// no input, and exits 0.
    pub fn from_env(value_flags: &[&str], bool_flags: &[&str]) -> (RunFlags, Flags) {
        let all_value_flags = [&RUN_FLAGS[..], value_flags].concat();
        let flags = Flags::parse(std::env::args().skip(1), &all_value_flags, bool_flags)
            .unwrap_or_else(|e| {
                let names = scheduler_names();
                usage_exit(format!("{e}\nschedulers: {names}; launch models: cdp, dtbl"))
            });
        let model = flags.value("--model").map_or(LaunchModelKind::Dtbl, |v| {
            LaunchModelKind::from_name(v)
                .unwrap_or_else(|| usage_exit(format!("unknown launch model {v} (cdp, dtbl)")))
        });
        let scale = flags.value("--scale").map_or(Scale::Small, |v| {
            Scale::from_name(v).unwrap_or_else(|| {
                usage_exit(format!("unknown scale {v} (tiny, ci, small, paper)"))
            })
        });
        let seed = flags.number("--seed").unwrap_or(0);
        let name = flags.value("--workload").unwrap_or("bfs-citation");
        if name == "list" {
            for name in suite_names() {
                println!("{name}");
            }
            std::process::exit(0);
        }
        let Some(workload) = workload_seeded(name, scale, seed) else {
            usage_exit(format!("unknown workload {name}; try --workload list"));
        };
        let run = RunFlags {
            workload,
            model,
            seed,
            scheduler: flags.value("--scheduler").unwrap_or("adaptive-bind").to_string(),
            smxs: flags.number("--smxs"),
        };
        (run, flags)
    }

    /// Applies `--smxs` to `cfg` and builds the simulator with the
    /// `--scheduler`, the launch model under `latency`, and `trace`
    /// attached, with the workload's host kernels launched. Exits 2 on
    /// an invalid configuration or unknown scheduler, 1 on a failed
    /// launch.
    pub fn simulator(
        &self,
        mut cfg: GpuConfig,
        latency: LaunchLatency,
        trace: Option<Box<dyn TraceSink>>,
    ) -> Simulator {
        if let Some(n) = self.smxs {
            cfg.num_smxs = n;
        }
        if let Err(e) = cfg.validate() {
            usage_exit(format!("invalid configuration: {e}"));
        }
        let Some(scheduler) = scheduler_by_name(&self.scheduler, &cfg) else {
            usage_exit(format!("unknown scheduler {} ({})", self.scheduler, scheduler_names()));
        };
        let mut sim = Simulator::new(cfg, Box::new(SharedSource(self.workload.clone())))
            .with_scheduler(scheduler)
            .with_launch_model(self.model.build(latency));
        if let Some(sink) = trace {
            sim = sim.with_trace(sink);
        }
        for hk in self.workload.host_kernels() {
            if let Err(e) = sim.launch_host_kernel(hk.kind, hk.param, hk.num_tbs, hk.req) {
                eprintln!("launch failed: {e}");
                std::process::exit(1);
            }
        }
        sim
    }
}

/// Prints `msg` to stderr and exits with status 2, the bad-command-line
/// status every binary shares.
pub fn usage_exit(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        Flags::parse(args.iter().map(|a| a.to_string()), &["--out", "--seed"], &["--check"])
    }

    #[test]
    fn known_flags_and_values_parse() {
        let f = parse(&["--check", "--out", "x.json", "--seed", "7"]).expect("valid line");
        assert!(f.has("--check"));
        assert_eq!(f.value("--out"), Some("x.json"));
        assert_eq!(f.number::<u64>("--seed"), Some(7));
        assert_eq!(f.value("--seed-missing"), None);
        assert!(!f.has("--out-missing"));
    }

    #[test]
    fn first_occurrence_wins() {
        let f = parse(&["--out", "a", "--out", "b"]).expect("valid line");
        assert_eq!(f.value("--out"), Some("a"));
    }

    #[test]
    fn unknown_tokens_are_rejected() {
        for bad in [&["--chek"][..], &["--out=x"], &["stray"], &["--check", "--seed", "1", "-x"]] {
            let err = parse(bad).expect_err("must reject");
            assert!(err.starts_with("unknown argument"), "{err}");
        }
    }

    #[test]
    fn value_flag_without_value_is_rejected() {
        assert_eq!(parse(&["--out"]), Err("--out expects a value".to_string()));
    }

    #[test]
    fn value_tokens_are_not_flags() {
        // The token after a value flag is its value, whatever it looks like.
        let f = parse(&["--out", "--check"]).expect("valid line");
        assert_eq!(f.value("--out"), Some("--check"));
        assert!(!f.has("--check"));
    }
}
