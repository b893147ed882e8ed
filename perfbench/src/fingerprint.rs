//! The work fingerprint: deterministic counts of a fixed prefix of each
//! workload's work, pinned per seed in `fingerprint.tsv`.
//!
//! A run whose prefix does not reproduce the pinned counts fails, so
//! doing less work cannot pass for a speed-up. The prefix is fixed
//! (the first batch of each sweep family, the first 1000 service
//! instances, the first scale run) because the rest of a run is bounded
//! by time, not by work.

use std::fmt;

/// Pinned counts, one line per workload and seed:
/// `workload seed ops rounds decisions links fallbacks`.
const PINNED: &str = include_str!("../fingerprint.tsv");

/// The counts of one workload's prefix.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Trials, instances or runs in the prefix.
    pub ops: u64,
    /// Rounds those executed.
    pub rounds: u64,
    /// How many of them decided.
    pub decisions: u64,
    /// Links delivered (for `service`, which exposes no per-instance
    /// traffic, the sum of each instance's minimum windowed dynaDegree).
    pub links: u64,
    /// Batches the lane gate sent to scalar runs.
    pub fallbacks: u64,
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {}",
            self.ops, self.rounds, self.decisions, self.links, self.fallbacks
        )
    }
}

/// The pinned fingerprint of `workload` at `seed`, if any.
///
/// # Panics
///
/// Panics on a malformed line of the pinned table.
pub fn pinned(workload: &str, seed: u64) -> Option<Fingerprint> {
    parse(PINNED, workload, seed)
}

fn parse(table: &str, workload: &str, seed: u64) -> Option<Fingerprint> {
    for line in table.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(fields.len(), 7, "fingerprint line `{line}` needs 7 fields");
        let num = |i: usize| -> u64 {
            fields[i]
                .parse()
                .unwrap_or_else(|_| panic!("fingerprint line `{line}`: bad number"))
        };
        if fields[0] == workload && num(1) == seed {
            return Some(Fingerprint {
                ops: num(2),
                rounds: num(3),
                decisions: num(4),
                links: num(5),
                fallbacks: num(6),
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pinned_lines_and_skips_comments() {
        let table = "# workload seed ops rounds decisions links fallbacks\n\
                     sweep 1 192 100 192 5000 1\n\
                     service 1 1000 7000 1000 300000 0\n";
        let fp = parse(table, "service", 1).unwrap();
        assert_eq!(fp.rounds, 7000);
        assert_eq!(fp.to_string(), "1000 7000 1000 300000 0");
        assert_eq!(parse(table, "service", 2), None);
        assert_eq!(parse(table, "scale_runs", 1), None);
    }

    #[test]
    fn the_pinned_table_parses() {
        for w in crate::WORKLOADS {
            for seed in 0..32 {
                let _ = pinned(w, seed);
            }
        }
    }
}
