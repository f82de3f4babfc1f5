//! Tiny argument parsing shared by the figure binaries (dependency-free).
//!
//! Supported flags:
//!
//! * `--quick` — short simulations (CI/test runs);
//! * `--points <n>` — sweep points per panel;
//! * `--threads <n>` — parallel workers (0 = all cores);
//! * `--seed <n>` — master seed;
//! * `--engine <event|cycle>` — simulation engine (default `event`;
//!   `cycle` selects the cycle-stepped reference oracle);
//! * `--json` — also write the full structured JSON sink (scenario spec +
//!   curve + per-replicate simulator detail) next to each CSV;
//! * `--out <dir>` — directory for CSV output (default `results/`);
//! * `--no-cache` — disable the content-addressed result cache (by
//!   default, already-simulated points under `<out>/cache/` are reused).

use noc_sim::{EngineKind, SimConfig};
use std::path::PathBuf;

/// Parsed common options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Use short simulation runs.
    pub quick: bool,
    /// Run the full evaluation cross product instead of the default
    /// representative panels.
    pub full: bool,
    /// Sweep points per panel.
    pub points: usize,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Simulation engine.
    pub engine: EngineKind,
    /// Also write the structured JSON sink next to each CSV.
    pub json: bool,
    /// CSV output directory.
    pub out: PathBuf,
    /// Reuse content-addressed cached simulation points (`--no-cache`
    /// disables).
    pub cache: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            quick: false,
            full: false,
            points: 8,
            threads: 0,
            seed: 42,
            engine: EngineKind::default(),
            json: false,
            out: PathBuf::from("results"),
            cache: true,
        }
    }
}

impl Options {
    /// Parse from an iterator of arguments (without the program name).
    ///
    /// Unknown flags abort with a message naming the flag — typos in an
    /// experiment invocation should fail loudly, not run the default.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
        let mut o = Options::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => o.quick = true,
                "--full" => o.full = true,
                "--json" => o.json = true,
                "--no-cache" => o.cache = false,
                "--points" => o.points = next_num(&mut it, "--points")? as usize,
                "--threads" => o.threads = next_num(&mut it, "--threads")? as usize,
                "--seed" => o.seed = next_num(&mut it, "--seed")?,
                "--engine" => {
                    let v = it
                        .next()
                        .ok_or_else(|| "--engine needs a value".to_string())?;
                    o.engine = match v.as_str() {
                        "event" | "event-driven" => EngineKind::EventDriven,
                        "cycle" => EngineKind::Cycle,
                        other => return Err(format!("--engine: unknown engine '{other}'")),
                    };
                }
                "--out" => {
                    o.out = PathBuf::from(
                        it.next()
                            .ok_or_else(|| "--out needs a directory".to_string())?,
                    )
                }
                "--help" | "-h" => {
                    return Err("usage: [--quick] [--full] [--points N] [--threads N] \
                         [--seed N] [--engine event|cycle] [--json] [--out DIR] \
                         [--no-cache]"
                        .to_string())
                }
                other => return Err(format!("unknown flag: {other}")),
            }
        }
        if o.points < 2 {
            return Err("--points must be >= 2".into());
        }
        Ok(o)
    }

    /// Parse from the process arguments, exiting on error.
    pub fn from_env() -> Options {
        match Options::parse(std::env::args().skip(1)) {
            Ok(o) => o,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The simulator configuration implied by `--quick` and `--engine`.
    pub fn sim_config(&self) -> SimConfig {
        let base = if self.quick {
            SimConfig::quick(self.seed)
        } else {
            SimConfig::standard(self.seed)
        };
        base.with_engine(self.engine)
    }

    /// The content-addressed result-cache directory (under the output
    /// directory), or `None` with `--no-cache`.
    pub fn cache_dir(&self) -> Option<PathBuf> {
        self.cache.then(|| self.out.join("cache"))
    }

    /// Write a CSV file under the output directory, creating it if needed.
    pub fn write_csv(&self, name: &str, contents: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.out)?;
        let path = self.out.join(name);
        std::fs::write(&path, contents)?;
        Ok(path)
    }

    /// [`Options::write_csv`], reporting the outcome on stderr: `wrote
    /// <path>` or `csv write failed: <err>`. A failed write does not stop
    /// the figure, but it is never silent.
    pub fn save_csv(&self, name: &str, contents: &str) {
        match self.write_csv(name, contents) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("csv write failed: {e}"),
        }
    }
}

fn next_num<I: Iterator<Item = String>>(it: &mut I, flag: &str) -> Result<u64, String> {
    it.next()
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse::<u64>()
        .map_err(|e| format!("{flag}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert!(!o.quick);
        assert!(!o.full);
        assert_eq!(o.points, 8);
        assert_eq!(o.seed, 42);
        assert_eq!(o.out, PathBuf::from("results"));
    }

    #[test]
    fn flags_parse() {
        let o = parse(&[
            "--quick",
            "--full",
            "--points",
            "5",
            "--threads",
            "4",
            "--seed",
            "7",
            "--out",
            "x",
        ])
        .unwrap();
        assert!(o.quick);
        assert!(o.full);
        assert_eq!(o.points, 5);
        assert_eq!(o.threads, 4);
        assert_eq!(o.seed, 7);
        assert_eq!(o.out, PathBuf::from("x"));
        assert_eq!(o.sim_config(), SimConfig::quick(7));
    }

    #[test]
    fn engine_flag_selects_the_oracle_or_the_default() {
        assert_eq!(parse(&[]).unwrap().engine, EngineKind::EventDriven);
        let o = parse(&["--engine", "cycle"]).unwrap();
        assert_eq!(o.engine, EngineKind::Cycle);
        assert_eq!(o.sim_config().engine, EngineKind::Cycle);
        assert_eq!(
            parse(&["--engine", "event"]).unwrap().engine,
            EngineKind::EventDriven
        );
        assert!(parse(&["--engine", "warp"]).is_err());
        assert!(parse(&["--engine"]).is_err());
    }

    #[test]
    fn json_flag_parses() {
        assert!(!parse(&[]).unwrap().json);
        assert!(parse(&["--json"]).unwrap().json);
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--points"]).is_err());
        assert!(parse(&["--points", "1"]).is_err());
    }
}
