//! Differential tests of the topology level index: validation, locality
//! scoring, block splitting and the fragmentation fold are checked
//! against the straightforward scans over every block of a level, kept
//! here as the reference.
//!
//! Topologies are random explicit hierarchies — one to three levels,
//! `m ≤ 32`, blocks made of several non-adjacent ranges — plus
//! deliberately corrupted ones (overlapping, gapped, straddling,
//! unsorted or empty blocks, a wrong `m`), so both the `Ok` and every
//! `Err` path of `Topology::from_levels` are compared.

use moldable::core::hierarchy::{
    FragmentationReport, Level, LevelFragmentation, Topology, TopologyError,
};
use moldable::core::placement::Placement;
use moldable::core::procset::ProcSet;
use moldable::core::ratio::Ratio;
use proptest::prelude::*;

const NAMES: [&str; 3] = ["node", "socket", "core"];

/// SplitMix64: the topology builder draws from one seeded stream, so
/// a failing case reproduces from the printed inputs.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Group processors by label into blocks sorted by lowest member; a
/// label's processors need not be adjacent, so blocks get several ranges.
fn blocks_of(labels: &[u64]) -> Vec<ProcSet> {
    let mut groups: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
    for (p, &label) in labels.iter().enumerate() {
        groups.entry(label).or_default().push((p as u64, p as u64));
    }
    let mut blocks: Vec<ProcSet> = groups.into_values().map(ProcSet::from_ranges).collect();
    blocks.sort_by_key(ProcSet::min);
    blocks
}

/// A valid random hierarchy: each level labels runs of processors, and
/// a child label extends its parent's, so children nest by construction.
fn valid_levels(rng: &mut Mix, m: u64, depth: usize) -> Vec<Level> {
    let mut labels = vec![0u64; m as usize];
    let mut levels = Vec::with_capacity(depth);
    for name in NAMES.iter().take(depth) {
        let arity = 1 + rng.below(4);
        let mut p = 0usize;
        while p < labels.len() {
            let run = 1 + rng.below(4) as usize;
            let sub = rng.below(arity);
            for label in labels.iter_mut().skip(p).take(run) {
                *label = *label * 8 + sub;
            }
            p += run;
        }
        levels.push(Level {
            name: name.to_string(),
            blocks: blocks_of(&labels),
        });
    }
    levels
}

/// Break one level of a valid hierarchy in the way `kind` names (kinds
/// past the last one leave it valid); returns the `m` to validate with.
fn corrupt(rng: &mut Mix, m: u64, levels: &mut [Level], kind: u64) -> u64 {
    let at = rng.below(levels.len() as u64) as usize;
    let blocks = &mut levels[at].blocks;
    let pick = |rng: &mut Mix, blocks: &[ProcSet]| rng.below(blocks.len() as u64) as usize;
    match kind {
        // Overlap (or a processor at or past m): add a foreign member.
        0 => {
            let b = pick(rng, blocks);
            let p = rng.below(m + 2);
            blocks[b] = blocks[b].union(&ProcSet::range(p, p));
        }
        // Gap: drop one member, or a whole block when all are singletons.
        1 => {
            let b = pick(rng, blocks);
            if blocks[b].size() > 1 {
                let members: Vec<u64> = blocks[b]
                    .ranges()
                    .iter()
                    .flat_map(|&(lo, hi)| lo..=hi)
                    .collect();
                let p = members[rng.below(members.len() as u64) as usize];
                blocks[b] = blocks[b].subtract(&ProcSet::range(p, p));
            } else if blocks.len() > 1 {
                blocks.remove(b);
            }
        }
        // Straddle: merge two blocks of a child level (they may or may
        // not share a parent), keeping the level a sorted partition.
        2 if blocks.len() > 1 => {
            let a = pick(rng, blocks);
            let b = pick(rng, blocks);
            if a != b {
                let merged = blocks[a].union(&blocks[b]);
                blocks[a.min(b)] = merged;
                blocks.remove(a.max(b));
            }
        }
        // Unsorted: swap two blocks.
        3 if blocks.len() > 1 => {
            let (a, b) = (pick(rng, blocks), pick(rng, blocks));
            blocks.swap(a, b);
        }
        // An empty block.
        4 => {
            let at = rng.below(blocks.len() as u64 + 1) as usize;
            blocks.insert(at, ProcSet::new());
        }
        // A machine size the blocks do not cover.
        5 => return if rng.below(2) == 0 { m + 1 } else { m - 1 },
        _ => {}
    }
    m
}

/// The validation as a scan over every block: union and size sum per
/// level, then every parent block tried for every child block.
fn reference_validate(m: u64, levels: &[Level]) -> Result<(), TopologyError> {
    if m == 0 || levels.is_empty() {
        return Err(TopologyError::Empty);
    }
    let full = ProcSet::full(m);
    for level in levels {
        if level.blocks.is_empty() || level.blocks.iter().any(ProcSet::is_empty) {
            return Err(TopologyError::Empty);
        }
        let mut union = ProcSet::new();
        let mut total = 0u64;
        for block in &level.blocks {
            total = total.saturating_add(block.size());
            union = union.union(block);
        }
        let sorted = level.blocks.windows(2).all(|w| w[0].min() < w[1].min());
        if total != m || union != full || !sorted {
            return Err(TopologyError::NotAPartition {
                level: level.name.clone(),
            });
        }
    }
    for pair in levels.windows(2) {
        let (parent, child) = (&pair[0], &pair[1]);
        for block in &child.blocks {
            if !parent.blocks.iter().any(|p| p.is_superset(block)) {
                return Err(TopologyError::StraddlesParent {
                    level: child.name.clone(),
                });
            }
        }
    }
    Ok(())
}

/// Locality as a scan: the blocks of the level not disjoint from `procs`.
fn reference_span(level: &Level, procs: &ProcSet) -> u64 {
    level
        .blocks
        .iter()
        .filter(|b| !b.is_disjoint(procs))
        .count() as u64
}

/// A random set over `0..m + 4`, so processors past `m` are covered too.
fn random_set(rng: &mut Mix, m: u64) -> ProcSet {
    let pieces = rng.below(5);
    ProcSet::from_ranges((0..pieces).map(|_| {
        let lo = rng.below(m + 4);
        (lo, lo + rng.below(6))
    }))
}

/// A valid random topology: 1–3 levels, `m ≤ 32`, multi-range blocks.
fn topology(m: u64, depth: usize, seed: u64) -> Topology {
    let levels = valid_levels(&mut Mix(seed), m, depth);
    Topology::from_levels(m, levels).expect("built to nest")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `from_levels` accepts exactly what the scan accepts, and rejects
    /// with the same first error.
    #[test]
    fn validation_matches_the_scan(
        m in 1u64..=32,
        depth in 1usize..=3,
        seed in 0u64..u64::MAX,
        kind in 0u64..9,
    ) {
        let mut rng = Mix(seed);
        let mut levels = valid_levels(&mut rng, m, depth);
        let m = corrupt(&mut rng, m, &mut levels, kind);
        let expected = reference_validate(m, &levels);
        let got = Topology::from_levels(m, levels.clone());
        prop_assert_eq!(got.clone().map(|_| ()), expected, "{:?}", levels);
        if let Ok(t) = got {
            prop_assert_eq!(t.levels(), &levels[..]);
            prop_assert_eq!(t.m(), m);
        }
    }

    /// `span_blocks` counts the blocks a set is not disjoint from, and
    /// `split_by_block` cuts the set into exactly its per-block pieces.
    #[test]
    fn span_and_split_match_the_scan(
        m in 1u64..=32,
        depth in 1usize..=3,
        seed in 0u64..u64::MAX,
    ) {
        let t = topology(m, depth, seed);
        let mut rng = Mix(seed ^ 0x5E7);
        for _ in 0..8 {
            let procs = random_set(&mut rng, m);
            for (i, level) in t.levels().iter().enumerate() {
                prop_assert_eq!(
                    t.span_blocks(i, &procs),
                    reference_span(level, &procs),
                    "{} level {} set {}", i, level.name, procs
                );
                let mut pieces: Vec<Vec<(u64, u64)>> = vec![Vec::new(); level.blocks.len()];
                let mut last_lo = None;
                t.split_by_block(i, &procs, |b, lo, hi| {
                    assert!(last_lo < Some(lo), "pieces out of order");
                    last_lo = Some(lo);
                    pieces[b].push((lo, hi));
                });
                for (block, got) in level.blocks.iter().zip(pieces) {
                    prop_assert_eq!(ProcSet::from_ranges(got), block.intersect(&procs));
                }
            }
        }
    }

    /// `fragmentation` is the per-level fold of the scanned spans.
    #[test]
    fn fragmentation_matches_the_scan(
        m in 1u64..=32,
        depth in 1usize..=3,
        seed in 0u64..u64::MAX,
        jobs in 0u32..12,
    ) {
        let t = topology(m, depth, seed);
        let mut rng = Mix(seed ^ 0xF7A6);
        let mut placement = Placement::new();
        for job in 0..jobs {
            placement.push(job, Ratio::zero(), Ratio::one(), random_set(&mut rng, m));
        }
        let expected = FragmentationReport {
            levels: t
                .levels()
                .iter()
                .map(|level| {
                    let spans: Vec<u64> = placement
                        .jobs
                        .iter()
                        .map(|p| reference_span(level, &p.procs))
                        .collect();
                    LevelFragmentation {
                        level: level.name.clone(),
                        blocks: level.blocks.len() as u64,
                        total_spans: spans.iter().sum(),
                        max_span: spans.iter().copied().max().unwrap_or(0),
                        jobs: u64::from(jobs),
                    }
                })
                .collect(),
        };
        prop_assert_eq!(t.fragmentation(&placement), expected);
    }
}

/// Uniform specs take the same validation path and agree with the scan.
#[test]
fn uniform_specs_match_the_scan() {
    for arities in [&[1u64][..], &[3], &[2, 2], &[4, 1, 3], &[2, 3, 2]] {
        let t = Topology::uniform(arities).unwrap();
        assert_eq!(reference_validate(t.m(), t.levels()), Ok(()));
        for lo in 0..t.m() {
            for hi in lo..t.m() + 2 {
                let procs = ProcSet::range(lo, hi);
                for (i, level) in t.levels().iter().enumerate() {
                    assert_eq!(
                        t.span_blocks(i, &procs),
                        reference_span(level, &procs),
                        "{arities:?} level {i} {procs}"
                    );
                }
            }
        }
    }
}
