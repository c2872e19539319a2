//! The folded map's readers: collapsed-stack text, the self/total table
//! and the hottest zones.

use std::collections::BTreeMap;

/// One zone's row in the self/total table. The weights are nanoseconds of
/// wall time (BENCH documents before exact stacks, BENCH_4 and BENCH_5,
/// hold sampler tick counts here instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hotspot {
    /// Zone name (a `span`/`trace_zone` name, e.g. `compress.range_scan`).
    pub name: String,
    /// Weight with this zone innermost.
    pub self_weight: u64,
    /// Weight with this zone anywhere on the stack.
    pub total_weight: u64,
}

/// Folded stacks: each stack path (rootmost frame first) with the self
/// time of its innermost frame, in nanoseconds. A `BTreeMap`, so every
/// export iterates in one deterministic order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    pub stacks: BTreeMap<Vec<String>, u64>,
}

impl Profile {
    /// Sum of all weights.
    pub fn total(&self) -> u64 {
        self.stacks.values().sum()
    }

    /// Collapsed-stack text: one `frame;frame;frame weight` line per stack,
    /// the format inferno, speedscope and `flamegraph.pl` read.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (stack, weight) in &self.stacks {
            out.push_str(&stack.join(";"));
            out.push(' ');
            out.push_str(&weight.to_string());
            out.push('\n');
        }
        out
    }

    /// Parse [`Profile::folded`] text back, e.g. to render a flamegraph
    /// from a saved `.folded` file.
    pub fn from_folded(text: &str) -> Result<Profile, String> {
        let mut p = Profile::default();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (stack, weight) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {}: no weight field", lineno + 1))?;
            let weight: u64 = weight
                .parse()
                .map_err(|e| format!("line {}: bad weight: {e}", lineno + 1))?;
            let frames: Vec<String> = stack.split(';').map(str::to_string).collect();
            if frames.iter().any(String::is_empty) {
                return Err(format!("line {}: empty frame name", lineno + 1));
            }
            *p.stacks.entry(frames).or_insert(0) += weight;
        }
        Ok(p)
    }

    /// `(self, total)` weight per zone name: self where the zone is the
    /// innermost frame, total wherever it is on the stack (once per stack,
    /// so a zone nested in itself is not counted twice).
    pub fn self_total(&self) -> BTreeMap<String, (u64, u64)> {
        let mut table: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (stack, &weight) in &self.stacks {
            if let Some(leaf) = stack.last() {
                table.entry(leaf.clone()).or_default().0 += weight;
            }
            for (i, frame) in stack.iter().enumerate() {
                if !stack[..i].contains(frame) {
                    table.entry(frame.clone()).or_default().1 += weight;
                }
            }
        }
        table
    }

    /// The `n` zones with the most self weight (ties broken by name).
    pub fn hotspots(&self, n: usize) -> Vec<Hotspot> {
        let mut all: Vec<Hotspot> = self
            .self_total()
            .into_iter()
            .map(|(name, (s, t))| Hotspot {
                name,
                self_weight: s,
                total_weight: t,
            })
            .collect();
        all.sort_by(|a, b| {
            b.self_weight
                .cmp(&a.self_weight)
                .then_with(|| a.name.cmp(&b.name))
        });
        all.truncate(n);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> Profile {
        Profile::from_folded(
            "compress.total 5\n\
             compress.total;compress.range_scan 40\n\
             compress.total;compress.encode_blocks 50\n\
             compress.total;compress.encode_blocks;io.write 5\n",
        )
        .unwrap()
    }

    #[test]
    fn folded_roundtrip_is_lossless() {
        let p = sample_profile();
        let text = p.folded();
        assert!(text.contains("compress.total;compress.range_scan 40\n"));
        let back = Profile::from_folded(&text).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.total(), 100);
        // A second round trip is byte-identical (deterministic order).
        assert_eq!(back.folded(), text);
    }

    #[test]
    fn from_folded_rejects_malformed_lines() {
        assert!(Profile::from_folded("no-weight-here").is_err());
        assert!(Profile::from_folded("a;b notanumber").is_err());
        assert!(Profile::from_folded("a;;b 3").is_err());
        assert_eq!(Profile::from_folded("\n  \n").unwrap().total(), 0);
    }

    #[test]
    fn self_total_attribution() {
        let table = sample_profile().self_total();
        // encode_blocks: self excludes its io.write child, total includes it.
        assert_eq!(table["compress.encode_blocks"], (50, 55));
        assert_eq!(table["compress.range_scan"], (40, 40));
        assert_eq!(table["compress.total"], (5, 100));
        assert_eq!(table["io.write"], (5, 5));
    }

    #[test]
    fn recursive_frames_count_once_in_total() {
        let p = Profile::from_folded("a;b;a 7\n").unwrap();
        let table = p.self_total();
        assert_eq!(table["a"], (7, 7), "recursion must not double-count");
        assert_eq!(table["b"], (0, 7));
    }

    #[test]
    fn hotspots_rank_by_self_weight() {
        let top = sample_profile().hotspots(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].name, "compress.encode_blocks");
        assert_eq!(top[0].self_weight, 50);
        assert_eq!(top[1].name, "compress.range_scan");
    }
}
