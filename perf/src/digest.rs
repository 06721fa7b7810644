//! The answer check: a digest of each query's top-k that depends only on
//! *what* was answered, never on how the plan computed it, and the
//! committed goldens it is compared with.
//!
//! A top-k answer is digested as (count, sorted score bit patterns). Two
//! physical configurations may break a tie at the k-th score differently
//! and return different tuples; they may not return a different score
//! multiset. The goldens come from the sharing-free ATC-CQ arm
//! (`perf golden --write`), so every run of every workload is checked
//! against an evaluation that shares nothing.

use std::collections::BTreeMap;

/// (count, FNV-1a over the sorted score bit patterns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub count: usize,
    pub hash: u64,
}

pub fn digest(scores: impl IntoIterator<Item = f64>) -> Digest {
    let mut bits: Vec<u64> = scores.into_iter().map(f64::to_bits).collect();
    bits.sort_unstable();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bits.iter().flat_map(|b| b.to_le_bytes()) {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    Digest {
        count: bits.len(),
        hash,
    }
}

/// Golden digests keyed by (instance seed, index of the query in the
/// generated script).
#[derive(Debug, Default, PartialEq)]
pub struct Golden {
    entries: BTreeMap<(u64, usize), Digest>,
}

impl Golden {
    /// The goldens committed in `perf/golden/suite.txt`, compiled in so a
    /// run needs no path and a corrupted file fails the next run.
    pub fn committed() -> Result<Golden, String> {
        Golden::parse(include_str!("../golden/suite.txt"))
    }

    pub fn insert(&mut self, seed: u64, script_idx: usize, digest: Digest) {
        self.entries.insert((seed, script_idx), digest);
    }

    pub fn get(&self, seed: u64, script_idx: usize) -> Option<Digest> {
        self.entries.get(&(seed, script_idx)).copied()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// One `seed index count hash` line per query; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut golden = Golden::default();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("golden line {}: expected `seed index count hash`", no + 1);
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [seed, idx, count, hash] = fields[..] else {
                return Err(bad());
            };
            let entry = (
                seed.parse::<u64>().map_err(|_| bad())?,
                idx.parse::<usize>().map_err(|_| bad())?,
            );
            let digest = Digest {
                count: count.parse().map_err(|_| bad())?,
                hash: u64::from_str_radix(hash, 16).map_err(|_| bad())?,
            };
            if golden.entries.insert(entry, digest).is_some() {
                return Err(format!("golden line {}: duplicate entry", no + 1));
            }
        }
        Ok(golden)
    }

    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Top-k answer digests of the benchmark suite, from the sharing-free ATC-CQ arm.\n\
             # Written by `perf/run.sh golden --write`; do not edit.\n\
             # instance-seed script-index result-count fnv1a64(sorted score bits)\n",
        );
        for ((seed, idx), d) in &self.entries {
            out.push_str(&format!("{seed} {idx} {} {:016x}\n", d.count, d.hash));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_and_boundary_ties() {
        // Two plans that break the tie at the k-th score differently return
        // different tuples in a different order, but the same scores.
        let plan_a = [0.9, 0.7, 0.7, 0.5];
        let plan_b = [0.7, 0.9, 0.5, 0.7];
        assert_eq!(digest(plan_a), digest(plan_b));
        assert_eq!(digest(plan_a).count, 4);
    }

    #[test]
    fn digest_sees_count_and_last_bit() {
        let base = digest([0.9, 0.7, 0.5]);
        assert_ne!(base, digest([0.9, 0.7]));
        assert_ne!(base, digest([0.9, 0.7, 0.5, 0.5]));
        let next_up = f64::from_bits(0.5f64.to_bits() + 1);
        assert_ne!(base, digest([0.9, 0.7, next_up]));
        assert_ne!(digest([0.0]), digest([-0.0]));
        assert_eq!(digest([]).count, 0);
    }

    #[test]
    fn golden_file_round_trips_and_rejects_damage() {
        let mut g = Golden::default();
        g.insert(41, 0, digest([0.5, 0.25]));
        g.insert(41, 1, digest([]));
        g.insert(48, 0, digest([1.0]));
        let text = g.render();
        assert_eq!(Golden::parse(&text), Ok(g));
        assert!(Golden::parse("41 0 2").is_err());
        assert!(Golden::parse("41 0 2 xyz").is_err());
        assert!(Golden::parse("41 0 2 ff\n41 0 2 ff").is_err());
        assert_eq!(Golden::parse("# only a comment\n\n").unwrap().len(), 0);
    }

    #[test]
    fn committed_golden_parses() {
        Golden::committed().expect("perf/golden/suite.txt is well-formed");
    }
}
