//! Output digests: the deterministic numbers a run must reproduce, and
//! the copies pinned for the default and the held-out seed.

use std::fmt::Write as _;

/// The workload seed used when none is given.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// A seed never used while the benchmark was written; its pinned digests
/// check that the output checks hold beyond the default seed.
pub const HELD_OUT_SEED: u64 = 2006;

/// Named counters in a fixed order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Digest(pub Vec<(String, u64)>);

impl Digest {
    /// Appends one counter.
    pub fn push(&mut self, name: impl Into<String>, value: u64) {
        self.0.push((name.into(), value));
    }

    /// One `name=value` line per counter.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.0 {
            let _ = writeln!(out, "{name}={value}");
        }
        out
    }

    /// Parses [`Digest::render`] output; blank lines and `#` comments are
    /// skipped.
    pub fn parse(text: &str) -> Result<Digest, String> {
        let mut d = Digest::default();
        for line in text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let (name, value) = line
                .split_once('=')
                .ok_or_else(|| format!("digest line without '=': {line}"))?;
            let value = value
                .parse()
                .map_err(|_| format!("digest value is not a count: {line}"))?;
            d.push(name, value);
        }
        Ok(d)
    }

    /// Every difference from `expected`, one line each; empty when equal.
    pub fn diff(&self, expected: &Digest) -> Vec<String> {
        let mut out = Vec::new();
        for (name, want) in &expected.0 {
            match self.0.iter().find(|(n, _)| n == name) {
                Some((_, got)) if got == want => {}
                Some((_, got)) => out.push(format!("{name}: expected {want}, got {got}")),
                None => out.push(format!("{name}: expected {want}, missing")),
            }
        }
        for (name, got) in &self.0 {
            if !expected.0.iter().any(|(n, _)| n == name) {
                out.push(format!("{name}: unexpected counter ({got})"));
            }
        }
        out
    }
}

/// The pinned digests, by workload and seed.
const PINNED: [(&str, u64, &str); 6] = [
    (
        "shadow-replay",
        DEFAULT_SEED,
        include_str!("../digests/shadow-replay-24301.txt"),
    ),
    (
        "shadow-replay",
        HELD_OUT_SEED,
        include_str!("../digests/shadow-replay-2006.txt"),
    ),
    (
        "crowd-trace-mt",
        DEFAULT_SEED,
        include_str!("../digests/crowd-trace-mt-24301.txt"),
    ),
    (
        "crowd-trace-mt",
        HELD_OUT_SEED,
        include_str!("../digests/crowd-trace-mt-2006.txt"),
    ),
    (
        "serve-study",
        DEFAULT_SEED,
        include_str!("../digests/serve-study-24301.txt"),
    ),
    (
        "serve-study",
        HELD_OUT_SEED,
        include_str!("../digests/serve-study-2006.txt"),
    ),
];

/// The pinned digest for `workload` at `seed`, if that seed is pinned.
pub fn pinned(workload: &str, seed: u64) -> Option<Result<Digest, String>> {
    PINNED
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|(_, _, text)| Digest::parse(text))
}

/// Where `--pin` writes the digest for `workload` at `seed`.
pub fn pin_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("digests")
        .join(format!("{workload}-{seed}.txt"))
}

/// The outcome of checking a run's digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Check {
    /// Equal to the pinned digest.
    Pinned,
    /// No digest is pinned for this seed; only self-consistency was
    /// checked.
    Unpinned,
    /// Differs from the pinned digest (or the pinned file is unreadable).
    Mismatch(Vec<String>),
}

/// Checks `got` against the digest pinned for `workload` at `seed`.
pub fn check(workload: &str, seed: u64, got: &Digest) -> Check {
    match pinned(workload, seed) {
        None => Check::Unpinned,
        Some(Err(e)) => Check::Mismatch(vec![e]),
        Some(Ok(want)) if want.0.is_empty() => {
            Check::Mismatch(vec!["pinned digest is empty; re-pin with --pin".into()])
        }
        Some(Ok(want)) => match got.diff(&want) {
            d if d.is_empty() => Check::Pinned,
            d => Check::Mismatch(d),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pinned_digest_parses_and_is_nonempty() {
        for (workload, seed, _) in PINNED {
            let d = pinned(workload, seed).expect("listed").expect("parses");
            assert!(!d.0.is_empty(), "{workload} seed {seed}");
        }
    }

    #[test]
    fn a_flipped_counter_fails_the_check() {
        for (workload, seed, _) in PINNED {
            let want = pinned(workload, seed).expect("listed").expect("parses");
            assert_eq!(check(workload, seed, &want), Check::Pinned);
            for i in 0..want.0.len() {
                let mut got = want.clone();
                got.0[i].1 ^= 1;
                match check(workload, seed, &got) {
                    Check::Mismatch(d) => assert_eq!(d.len(), 1, "{d:?}"),
                    other => panic!("{workload}: flipped {} passed: {other:?}", want.0[i].0),
                }
            }
            let mut short = want.clone();
            short.0.pop();
            assert!(matches!(check(workload, seed, &short), Check::Mismatch(_)));
        }
        assert_eq!(
            check("shadow-replay", 1, &Digest::default()),
            Check::Unpinned
        );
    }

    #[test]
    fn render_and_parse_round_trip() {
        let mut d = Digest::default();
        d.push("work_ticks", 12);
        d.push("fb_crc", 0xdead_beef);
        assert_eq!(Digest::parse(&d.render()), Ok(d));
        assert!(Digest::parse("no equals sign").is_err());
    }
}
