//! Shared plumbing for the `repro-*` binaries: CLI parsing, output-file
//! handling, and the standard experiment context.
//!
//! Every binary accepts the same flags:
//!
//! ```text
//! repro-<exp> [--preset paper|medium|tiny] [--seed N] [--out DIR] [--quick]
//! ```
//!
//! `--quick` switches to the medium preset with a reduced-epoch BPR so a
//! full repro pass stays in CI-friendly time; `--out` (default
//! `experiments/out`) receives one CSV per artefact next to the printed
//! table.
//!
//! The gated `ann-bench` and `quant-bench` binaries share the
//! hash-seeded data helper [`hashed_unit`] and the report reader
//! [`extract`] from here.

use rm_core::bpr::BprConfig;
use rm_datagen::Preset;
use rm_dataset::summary::SummaryFields;
use rm_eval::harness::{Harness, TrainedSuite};
use rm_util::rng::derive_seed;
use std::path::{Path, PathBuf};

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Corpus scale.
    pub preset: Preset,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSV artefacts.
    pub out: PathBuf,
}

impl Options {
    /// Parses `std::env::args`, exiting with usage on error.
    #[must_use]
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse(&args) {
            Ok(Some(opts)) => opts,
            Ok(None) => usage(""),
            Err(e) => usage(&e),
        }
    }

    /// Parses an argument list. `Ok(None)` means help was requested.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid flag or value.
    pub fn parse(args: &[String]) -> Result<Option<Self>, String> {
        let mut preset = Preset::Paper;
        let mut seed = 42u64;
        let mut out = PathBuf::from("experiments/out");
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--preset" => {
                    preset = match it.next().map(String::as_str) {
                        Some("paper") => Preset::Paper,
                        Some("medium") => Preset::Medium,
                        Some("tiny") => Preset::Tiny,
                        other => return Err(format!("bad --preset {other:?}")),
                    }
                }
                "--quick" => preset = Preset::Medium,
                "--seed" => {
                    seed = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| "bad --seed".to_owned())?;
                }
                "--out" => {
                    out = it
                        .next()
                        .map(PathBuf::from)
                        .ok_or_else(|| "bad --out".to_owned())?;
                }
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Some(Self { preset, seed, out }))
    }

    /// The paper's operating point for BPR, scaled to the preset (fewer
    /// epochs below paper scale keep quick runs quick).
    #[must_use]
    pub fn bpr_config(&self) -> BprConfig {
        let epochs = match self.preset {
            Preset::PaperX100 | Preset::Paper => 15,
            Preset::Medium => 12,
            Preset::Tiny => 8,
        };
        BprConfig {
            epochs,
            seed: rm_util::rng::derive_seed_str(self.seed, "bpr"),
            ..BprConfig::default()
        }
    }

    /// Builds the experiment context (generates the corpus and the split).
    #[must_use]
    pub fn harness(&self) -> Harness {
        Harness::generate(self.seed, self.preset)
    }

    /// Trains the standard suite on the harness.
    #[must_use]
    pub fn suite(&self, harness: &Harness) -> TrainedSuite {
        TrainedSuite::train(harness, self.bpr_config(), SummaryFields::BEST, self.seed)
    }

    /// Writes a CSV artefact into the output directory.
    pub fn write_csv(&self, name: &str, contents: &str) {
        write_artifact(&self.out, name, contents);
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: repro-<exp> [--preset paper|medium|tiny] [--quick] [--seed N] [--out DIR]");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Writes `contents` to `dir/name`, creating the directory.
pub fn write_artifact(dir: &Path, name: &str, contents: &str) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(name);
    match std::fs::write(&path, contents) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Prints a titled section.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Hash-derived f32 in [-0.5, 0.5): deterministic across platforms, no
/// RNG state to thread through the generators.
#[must_use]
pub fn hashed_unit(seed: u64, label: u64) -> f32 {
    (derive_seed(seed, label) >> 40) as f32 / (1u64 << 24) as f32 - 0.5
}

/// Extracts `"key": <number>` from the named JSON section. Hand-rolled on
/// purpose: the report is machine-written with a fixed shape and the
/// workspace carries no JSON dependency.
#[must_use]
pub fn extract(report: &str, section: &str, key: &str) -> Option<f64> {
    let sec = report.find(&format!("\"{section}\""))?;
    let tail = &report[sec..];
    let at = tail.find(&format!("\"{key}\""))?;
    let after = tail[at..].find(':')? + at + 1;
    let rest = tail[after..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn defaults_apply() {
        let o = Options::parse(&[]).unwrap().unwrap();
        assert_eq!(o.preset, Preset::Paper);
        assert_eq!(o.seed, 42);
        assert_eq!(o.out, PathBuf::from("experiments/out"));
    }

    #[test]
    fn flags_parse() {
        let o = Options::parse(&args(&[
            "--preset", "tiny", "--seed", "7", "--out", "/tmp/x",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(o.preset, Preset::Tiny);
        assert_eq!(o.seed, 7);
        assert_eq!(o.out, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn quick_is_medium() {
        let o = Options::parse(&args(&["--quick"])).unwrap().unwrap();
        assert_eq!(o.preset, Preset::Medium);
    }

    #[test]
    fn help_returns_none() {
        assert!(Options::parse(&args(&["--help"])).unwrap().is_none());
    }

    #[test]
    fn errors_are_specific() {
        assert!(Options::parse(&args(&["--preset", "huge"]))
            .unwrap_err()
            .contains("preset"));
        assert!(Options::parse(&args(&["--seed", "abc"]))
            .unwrap_err()
            .contains("seed"));
        assert!(Options::parse(&args(&["--wat"]))
            .unwrap_err()
            .contains("--wat"));
        assert!(Options::parse(&args(&["--seed"]))
            .unwrap_err()
            .contains("seed"));
    }

    #[test]
    fn bpr_config_scales_epochs_with_preset() {
        let paper = Options::parse(&[]).unwrap().unwrap().bpr_config();
        let tiny = Options::parse(&args(&["--preset", "tiny"]))
            .unwrap()
            .unwrap()
            .bpr_config();
        assert!(paper.epochs > tiny.epochs);
        assert_eq!(paper.factors, 20);
    }
}
