//! The machine as a tree: nodes × sockets × cores instead of a flat
//! index space.
//!
//! The paper's schedules assign *counts* of identical processors, but
//! real clusters are hierarchies where a job scattered across nodes
//! pays in latency. A [`Topology`] names the levels of that hierarchy
//! (coarsest first, e.g. `node / socket / core`) and partitions the
//! flat index space `0..m` into blocks at every level — the model OAR
//! uses for its resource hierarchy, kept as [`ProcSet`] blocks so every
//! operation stays linear in the number of *ranges*, never in `m`.
//! Construction also indexes every level once — its block ranges sorted
//! by start, tiling `0..m` — so the block holding a processor is one
//! binary search away: validation, [`Topology::span_blocks`],
//! [`Topology::split_by_block`] and fragmentation never scan a level's
//! blocks.
//!
//! Two primitives build on the tree:
//!
//! * [`Topology::span_blocks`] — locality scoring: how many blocks at a
//!   level a processor set touches (1 = perfectly packed).
//! * [`FragmentationReport`] — per-placement aggregate of spans at every
//!   level, the metric the service surfaces and the stream simulator
//!   tracks over time.

use std::fmt;

use crate::hash::StableHasher;
use crate::placement::Placement;
use crate::procset::ProcSet;

/// One level of the hierarchy: a name and the blocks partitioning the
/// machine at that granularity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Level {
    /// Level name (`"node"`, `"socket"`, `"core"`, …).
    pub name: String,
    /// The blocks at this level, sorted by lowest index; pairwise
    /// disjoint, and together they cover exactly `0..m`.
    pub blocks: Vec<ProcSet>,
}

/// A validated machine hierarchy over the flat index space `0..m`.
///
/// Invariants (checked by every constructor):
/// * each level's blocks are non-empty, pairwise disjoint, sorted by
///   minimum index, and their union is exactly `full(m)`;
/// * each block at level `k+1` lies inside exactly one block at level
///   `k` (child blocks refine their parents, never straddle them).
///
/// The one-level topology [`Topology::flat`] makes the hierarchy-free
/// world a special case: one level `"machine"` holding the single block
/// `0..m`.
///
/// The per-level lookup index is a function of the validated levels
/// (their range starts are distinct, so its sort order is fixed), so
/// derived equality is structural; [`Topology::hash_into`] reads only
/// `m` and the levels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    m: u64,
    levels: Vec<Level>,
    /// One [`LevelIndex`] per level, same order as `levels`.
    index: Vec<LevelIndex>,
}

/// One level's blocks flattened for lookup: every range of every block
/// as `(lo, hi, block)`, sorted by `lo`. Once a level validates, the
/// ranges tile `0..m`, so the range holding processor `p` is one binary
/// search away and a contiguous run of processors maps to a contiguous
/// run of ranges.
#[derive(Clone, Debug, PartialEq, Eq)]
struct LevelIndex {
    ranges: Vec<(u64, u64, usize)>,
}

impl LevelIndex {
    fn new(blocks: &[ProcSet]) -> LevelIndex {
        let mut ranges: Vec<(u64, u64, usize)> = blocks
            .iter()
            .enumerate()
            .flat_map(|(b, set)| set.ranges().iter().map(move |&(lo, hi)| (lo, hi, b)))
            .collect();
        ranges.sort_unstable_by_key(|&(lo, _, _)| lo);
        LevelIndex { ranges }
    }

    /// Do the sorted ranges tile `0..m` — no gap, no overlap, nothing at
    /// or past `m`? For non-empty blocks this is exactly "the blocks are
    /// pairwise disjoint and their union is `full(m)`".
    fn tiles(&self, m: u64) -> bool {
        let mut next = 0u64;
        for &(lo, hi, _) in &self.ranges {
            if lo != next {
                return false;
            }
            match hi.checked_add(1) {
                Some(after) => next = after,
                None => return false,
            }
        }
        next == m
    }

    /// Position of the range holding `p`; `ranges.len()` when `p ≥ m`.
    fn position(&self, p: u64) -> usize {
        self.ranges.partition_point(|&(_, hi, _)| hi < p)
    }

    /// Positions `first..=last` of the ranges the run `[lo, hi]`
    /// touches, or `None` when the run lies wholly at or past `m`.
    fn run(&self, lo: u64, hi: u64) -> Option<(usize, usize)> {
        let first = self.position(lo);
        let last = self.position(hi).min(self.ranges.len().checked_sub(1)?);
        (first <= last).then_some((first, last))
    }

    /// Number of distinct blocks `procs` touches: two binary searches
    /// per fragment of `procs`, then a sort and dedup of the touched
    /// block ids (a block with several ranges is counted once).
    /// `blocks` is scratch space, so a fold over many sets allocates once.
    fn span(&self, procs: &ProcSet, blocks: &mut Vec<usize>) -> u64 {
        blocks.clear();
        for &(lo, hi) in procs.ranges() {
            let Some((first, last)) = self.run(lo, hi) else {
                break;
            };
            blocks.extend(self.ranges[first..=last].iter().map(|&(_, _, b)| b));
        }
        blocks.sort_unstable();
        blocks.dedup();
        blocks.len() as u64
    }

    /// Call `f(block, lo, hi)` for every maximal piece of `procs` inside
    /// one block range, in increasing `lo` order. Processors at or past
    /// `m` belong to no block and are skipped.
    fn split(&self, procs: &ProcSet, mut f: impl FnMut(usize, u64, u64)) {
        for &(lo, hi) in procs.ranges() {
            let Some((first, last)) = self.run(lo, hi) else {
                break;
            };
            for &(rlo, rhi, b) in &self.ranges[first..=last] {
                f(b, lo.max(rlo), hi.min(rhi));
            }
        }
    }
}

/// Why a [`Topology`] failed to validate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// The machine is empty or a level has no blocks.
    Empty,
    /// A level's blocks overlap or fail to cover `0..m` exactly.
    NotAPartition {
        /// Name of the offending level.
        level: String,
    },
    /// A block straddles two parent blocks of the coarser level above.
    StraddlesParent {
        /// Name of the offending (child) level.
        level: String,
    },
    /// A spec string (`"64*2*32"` or a block list) failed to parse.
    BadSpec(String),
    /// An arity spec expands to more blocks, summed over its levels,
    /// than [`MAX_SPEC_BLOCKS`] — refused before any block is built.
    TooManyBlocks {
        /// Blocks the spec asks for (saturating at `u64::MAX`).
        blocks: u64,
        /// The cap, [`MAX_SPEC_BLOCKS`].
        limit: u64,
    },
    /// A topology has more levels than [`MAX_SPEC_LEVELS`] — refused
    /// before any level is built.
    TooManyLevels {
        /// Levels the topology asks for.
        levels: usize,
        /// The cap, [`MAX_SPEC_LEVELS`].
        limit: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Empty => write!(f, "topology must have at least one processor"),
            TopologyError::NotAPartition { level } => {
                write!(f, "level `{level}` does not partition the machine")
            }
            TopologyError::StraddlesParent { level } => {
                write!(
                    f,
                    "level `{level}` has a block straddling two parent blocks"
                )
            }
            TopologyError::BadSpec(msg) => write!(f, "bad topology spec: {msg}"),
            TopologyError::TooManyBlocks { blocks, limit } => write!(
                f,
                "topology spec expands to {blocks} blocks, more than the {limit} allowed"
            ),
            TopologyError::TooManyLevels { levels, limit } => write!(
                f,
                "topology has {levels} levels, more than the {limit} allowed"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Default level names for spec-built topologies, coarsest first. Specs
/// deeper than three levels continue as `level3`, `level4`, ….
const SPEC_LEVEL_NAMES: [&str; 3] = ["node", "socket", "core"];

/// Most blocks an arity spec may expand to, summed over its levels.
/// An explicit list of single-processor blocks (`"0|1|2|…"`) spends
/// about 7 bytes a block at this size (six or seven digits and a `|`),
/// so the service's default 8 MiB body holds about 1.2 · 10⁶ of them:
/// at 2²⁰ an arity spec builds no more blocks than a full body of
/// explicit blocks could list. [`Topology::uniform`] checks the cap
/// before building a single block, so a short spec like
/// `"268435456*2"` is refused instead of allocating gigabytes.
pub const MAX_SPEC_BLOCKS: u64 = 1 << 20;

/// Most levels a topology may have. Every placement row carries one
/// locality entry per level, and the block cap does not bound depth: a
/// level of one block (`"1*1*…*1"`) costs one block. Arities all ≥ 2
/// pass [`MAX_SPEC_BLOCKS`] beyond 19 levels, so only padded specs meet
/// this cap; every constructor checks it before building a level.
pub const MAX_SPEC_LEVELS: usize = 64;

/// Refuse a level count past [`MAX_SPEC_LEVELS`].
fn check_depth(levels: usize) -> Result<(), TopologyError> {
    if levels > MAX_SPEC_LEVELS {
        return Err(TopologyError::TooManyLevels {
            levels,
            limit: MAX_SPEC_LEVELS,
        });
    }
    Ok(())
}

impl Topology {
    /// The trivial one-level hierarchy: a single `"machine"` block
    /// covering `0..m`. Lowering onto it reproduces the flat placement
    /// pass exactly.
    pub fn flat(m: u64) -> Topology {
        let blocks = vec![ProcSet::full(m)];
        Topology {
            m,
            index: vec![LevelIndex::new(&blocks)],
            levels: vec![Level {
                name: "machine".to_string(),
                blocks,
            }],
        }
    }

    /// A uniform hierarchy from per-level arities, coarsest first:
    /// `[64, 2, 32]` is 64 nodes × 2 sockets × 32 cores (m = 4096),
    /// with blocks as consecutive index ranges. Level names default to
    /// `node`/`socket`/`core` (then `level3`, …). Specs deeper than
    /// [`MAX_SPEC_LEVELS`] or expanding to more than [`MAX_SPEC_BLOCKS`]
    /// blocks in total are refused up front.
    pub fn uniform(arities: &[u64]) -> Result<Topology, TopologyError> {
        if arities.is_empty() || arities.contains(&0) {
            return Err(TopologyError::Empty);
        }
        check_depth(arities.len())?;
        let mut m = 1u64;
        let mut total_blocks = 0u64;
        for &a in arities {
            m = m
                .checked_mul(a)
                .ok_or_else(|| TopologyError::BadSpec("arity product overflows u64".into()))?;
            total_blocks = total_blocks.saturating_add(m);
        }
        if total_blocks > MAX_SPEC_BLOCKS {
            return Err(TopologyError::TooManyBlocks {
                blocks: total_blocks,
                limit: MAX_SPEC_BLOCKS,
            });
        }
        let mut levels = Vec::with_capacity(arities.len());
        let mut blocks_so_far = 1u64;
        for (depth, &a) in arities.iter().enumerate() {
            blocks_so_far *= a;
            let width = m / blocks_so_far;
            let name = SPEC_LEVEL_NAMES
                .get(depth)
                .map(|s| s.to_string())
                .unwrap_or_else(|| format!("level{depth}"));
            let blocks = (0..blocks_so_far)
                .map(|b| ProcSet::range(b * width, b * width + width - 1))
                .collect();
            levels.push(Level { name, blocks });
        }
        Topology::from_levels(m, levels)
    }

    /// Build from explicit levels, validating every invariant and
    /// indexing every level; more than [`MAX_SPEC_LEVELS`] levels are
    /// refused before any is indexed. Each level costs one sort of its
    /// ranges and one pass over them; nesting costs one parent lookup
    /// per child range. The first violation, in level order, is the error.
    pub fn from_levels(m: u64, levels: Vec<Level>) -> Result<Topology, TopologyError> {
        if m == 0 || levels.is_empty() {
            return Err(TopologyError::Empty);
        }
        check_depth(levels.len())?;
        let mut index = Vec::with_capacity(levels.len());
        for level in &levels {
            if level.blocks.is_empty() || level.blocks.iter().any(ProcSet::is_empty) {
                return Err(TopologyError::Empty);
            }
            let level_index = LevelIndex::new(&level.blocks);
            let sorted = level.blocks.windows(2).all(|w| w[0].min() < w[1].min());
            if !level_index.tiles(m) || !sorted {
                return Err(TopologyError::NotAPartition {
                    level: level.name.clone(),
                });
            }
            index.push(level_index);
        }
        for (pair, parent) in levels.windows(2).zip(&index) {
            let child = &pair[1];
            // A block's ranges are non-adjacent, so two touching parent
            // ranges belong to different blocks: a child block nests iff
            // every one of its ranges fits inside one parent range, and
            // all those ranges belong to the same parent block.
            let nests = |block: &ProcSet| {
                let mut host = None;
                block.ranges().iter().all(|&(lo, hi)| {
                    let (_, parent_hi, b) = parent.ranges[parent.position(lo)];
                    hi <= parent_hi && *host.get_or_insert(b) == b
                })
            };
            if !child.blocks.iter().all(nests) {
                return Err(TopologyError::StraddlesParent {
                    level: child.name.clone(),
                });
            }
        }
        Ok(Topology { m, levels, index })
    }

    /// Parse a spec string: either arities `"64*2*32"` (uniform tree,
    /// `node`/`socket`/`core` names) or explicit block lists separated
    /// by `;` with blocks separated by `|` in [`ProcSet`] notation, one
    /// group per level coarsest-first — e.g. `"0-3|4-7;0-1|2-3|4-5|6-7"`.
    pub fn parse(spec: &str) -> Result<Topology, TopologyError> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err(TopologyError::BadSpec("empty spec".into()));
        }
        if spec.contains('|') || spec.contains(';') || spec.contains('-') || spec.contains(',')
        {
            check_depth(spec.split(';').count())?;
            let mut levels = Vec::new();
            for (depth, group) in spec.split(';').enumerate() {
                let name = SPEC_LEVEL_NAMES
                    .get(depth)
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| format!("level{depth}"));
                let blocks: Vec<ProcSet> = group
                    .split('|')
                    .map(|b| {
                        b.trim()
                            .parse::<ProcSet>()
                            .map_err(|e| TopologyError::BadSpec(e.to_string()))
                    })
                    .collect::<Result<_, _>>()?;
                levels.push(Level { name, blocks });
            }
            let m = levels
                .first()
                .map(|l| l.blocks.iter().map(ProcSet::size).sum())
                .unwrap_or(0);
            Topology::from_levels(m, levels)
        } else {
            let arities: Vec<u64> = spec
                .split('*')
                .map(|p| {
                    p.trim()
                        .parse::<u64>()
                        .map_err(|_| TopologyError::BadSpec(format!("bad arity `{p}`")))
                })
                .collect::<Result<_, _>>()?;
            Topology::uniform(&arities)
        }
    }

    /// Total processors `m`.
    pub fn m(&self) -> u64 {
        self.m
    }

    /// The validated levels, coarsest first.
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// Index of the level with this name, if present.
    pub fn level_index(&self, name: &str) -> Option<usize> {
        self.levels.iter().position(|l| l.name == name)
    }

    /// How many blocks at level `index` the set touches — the locality
    /// score (1 = fully packed inside one block). Empty sets span 0, and
    /// processors at or past `m` touch no block. Costs two binary
    /// searches per fragment of `procs` plus a sort of the touched block
    /// ids, whatever the block count.
    pub fn span_blocks(&self, index: usize, procs: &ProcSet) -> u64 {
        self.index[index].span(procs, &mut Vec::new())
    }

    /// Call `f(block, lo, hi)` for every maximal piece `[lo, hi]` of
    /// `procs` inside one block of level `index` (`block` indexes
    /// [`Level::blocks`]), in increasing `lo` order. A block with several
    /// ranges can receive several pieces. Costs two binary searches per
    /// fragment plus one call per piece; processors at or past `m` are
    /// skipped.
    pub fn split_by_block(
        &self,
        index: usize,
        procs: &ProcSet,
        f: impl FnMut(usize, u64, u64),
    ) {
        self.index[index].split(procs, f)
    }

    /// Feed the tree's full structure — `m`, level names, every block's
    /// ranges — into a [`StableHasher`], so two topologies hash equal
    /// exactly when they are structurally equal (a `"2*2"` spec and its
    /// explicit block-list spelling collide on purpose). Used by the
    /// service's canonical cache key.
    pub fn hash_into(&self, h: &mut StableHasher) {
        h.write_u64(self.m);
        h.write_u64(self.levels.len() as u64);
        for level in &self.levels {
            h.write_str(&level.name);
            h.write_u64(level.blocks.len() as u64);
            for block in &level.blocks {
                h.write_u64(block.ranges().len() as u64);
                for &(lo, hi) in block.ranges() {
                    h.write_u64(lo);
                    h.write_u64(hi);
                }
            }
        }
    }

    /// Per-placement fragmentation metrics at every level.
    pub fn fragmentation(&self, placement: &Placement) -> FragmentationReport {
        let mut scratch = Vec::new();
        let levels = self
            .levels
            .iter()
            .zip(&self.index)
            .map(|(level, index)| {
                let mut total = 0u64;
                let mut max = 0u64;
                for p in &placement.jobs {
                    let span = index.span(&p.procs, &mut scratch);
                    total += span;
                    max = max.max(span);
                }
                let jobs = placement.jobs.len() as u64;
                LevelFragmentation {
                    level: level.name.clone(),
                    blocks: level.blocks.len() as u64,
                    total_spans: total,
                    max_span: max,
                    jobs,
                }
            })
            .collect();
        FragmentationReport { levels }
    }
}

/// Fragmentation of one placement at one level of the hierarchy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelFragmentation {
    /// Level name.
    pub level: String,
    /// Number of blocks at this level.
    pub blocks: u64,
    /// Sum of `span_blocks` over the placement's jobs.
    pub total_spans: u64,
    /// Largest single-job span.
    pub max_span: u64,
    /// Number of jobs aggregated.
    pub jobs: u64,
}

impl LevelFragmentation {
    /// Mean blocks spanned per job (0 when the placement is empty).
    pub fn mean_span(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.total_spans as f64 / self.jobs as f64
        }
    }
}

/// Locality metrics for a whole placement, one row per hierarchy level
/// (coarsest first). Produced by [`Topology::fragmentation`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FragmentationReport {
    /// Per-level aggregates, same order as [`Topology::levels`].
    pub levels: Vec<LevelFragmentation>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::Ratio;

    #[test]
    fn flat_is_one_machine_block() {
        let t = Topology::flat(8);
        assert_eq!(t.m(), 8);
        assert_eq!(t.levels().len(), 1);
        assert_eq!(t.levels()[0].name, "machine");
        assert_eq!(t.levels()[0].blocks, vec![ProcSet::full(8)]);
    }

    #[test]
    fn uniform_builds_consecutive_blocks() {
        let t = Topology::uniform(&[2, 2, 2]).unwrap();
        assert_eq!(t.m(), 8);
        let names: Vec<&str> = t.levels().iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, ["node", "socket", "core"]);
        assert_eq!(t.levels()[0].blocks.len(), 2);
        assert_eq!(t.levels()[1].blocks.len(), 4);
        assert_eq!(t.levels()[2].blocks.len(), 8);
        assert_eq!(t.levels()[0].blocks[1], ProcSet::range(4, 7));
        assert_eq!(t.levels()[1].blocks[2], ProcSet::range(4, 5));
    }

    #[test]
    fn parse_accepts_arities_and_block_lists() {
        assert_eq!(
            Topology::parse("2*2*2").unwrap(),
            Topology::uniform(&[2, 2, 2]).unwrap()
        );
        assert_eq!(
            Topology::parse(" 4 * 2 ").unwrap(),
            Topology::uniform(&[4, 2]).unwrap()
        );
        let t = Topology::parse("0-3|4-7;0-1|2-3|4-5|6-7").unwrap();
        assert_eq!(t.m(), 8);
        assert_eq!(t.levels()[0].name, "node");
        assert_eq!(t.levels()[0].blocks[0], ProcSet::range(0, 3));
        assert_eq!(t.levels()[1].blocks.len(), 4);
        // Single explicit level, uneven blocks.
        let t = Topology::parse("0-2|3-7").unwrap();
        assert_eq!(t.m(), 8);
        assert_eq!(t.levels()[0].blocks[1], ProcSet::range(3, 7));
    }

    #[test]
    fn parse_rejects_garbage() {
        for spec in [
            "",
            "0",
            "2*0",
            "abc",
            "2*x",
            "0-3|3-7",
            "0-3|5-7",
            "0-3|4-7;0-5|6-7;x",
        ] {
            assert!(Topology::parse(spec).is_err(), "{spec:?} should fail");
        }
        // 18446744073709551615 * 2 overflows.
        assert!(matches!(
            Topology::parse("18446744073709551615*2"),
            Err(TopologyError::BadSpec(_))
        ));
    }

    #[test]
    fn validation_rejects_bad_partitions() {
        // Overlapping blocks.
        let err = Topology::from_levels(
            4,
            vec![Level {
                name: "node".into(),
                blocks: vec![ProcSet::range(0, 2), ProcSet::range(2, 3)],
            }],
        )
        .unwrap_err();
        assert!(matches!(err, TopologyError::NotAPartition { .. }));
        // Gap.
        let err = Topology::from_levels(
            4,
            vec![Level {
                name: "node".into(),
                blocks: vec![ProcSet::range(0, 1), ProcSet::range(3, 3)],
            }],
        )
        .unwrap_err();
        assert!(matches!(err, TopologyError::NotAPartition { .. }));
        // Child straddles two parents.
        let err = Topology::from_levels(
            4,
            vec![
                Level {
                    name: "node".into(),
                    blocks: vec![ProcSet::range(0, 1), ProcSet::range(2, 3)],
                },
                Level {
                    name: "core".into(),
                    blocks: vec![
                        ProcSet::range(0, 0),
                        ProcSet::range(1, 2),
                        ProcSet::range(3, 3),
                    ],
                },
            ],
        )
        .unwrap_err();
        assert!(matches!(err, TopologyError::StraddlesParent { .. }));
        assert!(Topology::from_levels(0, vec![]).is_err());
    }

    #[test]
    fn error_display_names_the_level() {
        let e = TopologyError::NotAPartition {
            level: "socket".into(),
        };
        assert_eq!(
            e.to_string(),
            "level `socket` does not partition the machine"
        );
        let e = TopologyError::StraddlesParent {
            level: "core".into(),
        };
        assert!(e.to_string().contains("core"));
        assert!(TopologyError::Empty.to_string().contains("at least one"));
        assert!(TopologyError::BadSpec("x".into()).to_string().contains("x"));
        let e = TopologyError::TooManyBlocks {
            blocks: 9,
            limit: 4,
        };
        assert!(e.to_string().contains("9 blocks"), "{e}");
    }

    #[test]
    fn span_blocks_counts_touched_blocks() {
        let t = Topology::uniform(&[2, 2, 2]).unwrap();
        assert_eq!(t.span_blocks(0, &ProcSet::range(0, 3)), 1);
        assert_eq!(t.span_blocks(0, &ProcSet::range(3, 4)), 2);
        assert_eq!(t.span_blocks(1, &ProcSet::range(3, 4)), 2);
        assert_eq!(t.span_blocks(2, &ProcSet::range(3, 4)), 2);
        assert_eq!(t.span_blocks(0, &ProcSet::new()), 0);
        assert_eq!(t.span_blocks(1, &ProcSet::from_ranges([(0, 0), (7, 7)])), 2);
    }

    #[test]
    fn span_blocks_dedups_multi_range_blocks() {
        // Two interleaved blocks, two ranges each: 0-1,4-5 | 2-3,6-7.
        let t = Topology::parse("0-1,4-5|2-3,6-7").unwrap();
        assert_eq!(t.span_blocks(0, &ProcSet::full(8)), 2);
        assert_eq!(t.span_blocks(0, &ProcSet::from_ranges([(1, 1), (5, 5)])), 1);
        assert_eq!(t.span_blocks(0, &ProcSet::from_ranges([(0, 0), (4, 4)])), 1);
        assert_eq!(t.span_blocks(0, &ProcSet::range(3, 4)), 2);
        // Processors past m belong to no block.
        assert_eq!(t.span_blocks(0, &ProcSet::range(8, 20)), 0);
        assert_eq!(t.span_blocks(0, &ProcSet::range(7, 20)), 1);
        // Two fragments inside one range count that block once.
        let u = Topology::uniform(&[2, 2, 2]).unwrap();
        assert_eq!(u.span_blocks(0, &ProcSet::from_ranges([(0, 0), (2, 3)])), 1);
        assert_eq!(u.span_blocks(0, &ProcSet::range(0, 100)), 2);
        assert_eq!(Topology::flat(4).span_blocks(0, &ProcSet::range(1, 2)), 1);
    }

    #[test]
    fn split_by_block_cuts_sets_at_block_ranges() {
        let t = Topology::parse("0-1,4-5|2-3,6-7").unwrap();
        let mut pieces = Vec::new();
        t.split_by_block(0, &ProcSet::from_ranges([(1, 4), (7, 9)]), |b, lo, hi| {
            pieces.push((b, lo, hi))
        });
        assert_eq!(pieces, [(0, 1, 1), (1, 2, 3), (0, 4, 4), (1, 7, 7)]);
    }

    #[test]
    fn uniform_refuses_specs_that_expand_past_the_block_cap() {
        // 2^28 nodes × 2: a 12-byte spec asking for ~8 · 10^8 blocks is
        // refused before a single block is built.
        let err = Topology::parse("268435456*2").unwrap_err();
        assert_eq!(
            err,
            TopologyError::TooManyBlocks {
                blocks: 268_435_456 + 536_870_912,
                limit: MAX_SPEC_BLOCKS,
            }
        );
        assert!(err.to_string().contains("805306368 blocks"), "{err}");
        // The cap counts every level: 65536 nodes plus 2^20 cores is
        // 65536 blocks over it. One level one block past the cap fails.
        assert_eq!(
            Topology::parse("65536*16").unwrap_err(),
            TopologyError::TooManyBlocks {
                blocks: 65_536 + (1 << 20),
                limit: MAX_SPEC_BLOCKS,
            }
        );
        assert!(matches!(
            Topology::parse("1048577"),
            Err(TopologyError::TooManyBlocks { .. })
        ));
        // 65536 + 65536 · 15 is exactly the cap, and validates in linear
        // time: one lookup per core block, not one scan of every node
        // block.
        let t = Topology::parse("65536*15").unwrap();
        assert_eq!(t.m(), 983_040);
        assert_eq!(t.levels()[0].blocks.len(), 65_536);
        assert_eq!(t.levels()[1].blocks.len(), 983_040);
        assert_eq!(t.span_blocks(0, &ProcSet::range(14, 15)), 2);
        assert_eq!(Topology::parse("1048576").unwrap().m(), 1 << 20);
    }

    #[test]
    fn depth_is_capped_in_both_spellings() {
        let arity = |levels: usize| vec!["1"; levels].join("*");
        let explicit = |levels: usize| vec!["0-1"; levels].join(";");
        let refused = TopologyError::TooManyLevels {
            levels: 65,
            limit: MAX_SPEC_LEVELS,
        };
        assert_eq!(Topology::parse(&arity(65)).unwrap_err(), refused);
        assert_eq!(Topology::parse(&explicit(65)).unwrap_err(), refused);
        assert!(refused.to_string().contains("65 levels"), "{refused}");
        let deep = Topology::parse(&arity(64)).unwrap();
        assert_eq!((deep.m(), deep.levels().len()), (1, 64));
        let deep = Topology::parse(&explicit(64)).unwrap();
        assert_eq!((deep.m(), deep.levels().len()), (2, 64));
    }

    #[test]
    fn fragmentation_aggregates_spans() {
        let t = Topology::uniform(&[2, 4]).unwrap();
        let mut p = Placement::new();
        p.push(0, Ratio::zero(), Ratio::one(), ProcSet::range(0, 3)); // exactly node 0
        p.push(1, Ratio::zero(), Ratio::one(), ProcSet::range(2, 5)); // straddles both nodes
        let report = t.fragmentation(&p);
        assert_eq!(report.levels.len(), 2);
        let node = &report.levels[0];
        assert_eq!(node.level, "node");
        assert_eq!(node.blocks, 2);
        assert_eq!(node.total_spans, 1 + 2);
        assert_eq!(node.max_span, 2);
        assert_eq!(node.jobs, 2);
        assert!((node.mean_span() - 1.5).abs() < 1e-12);
        let empty = t.fragmentation(&Placement::new());
        assert_eq!(empty.levels[0].mean_span(), 0.0);
    }

    #[test]
    fn hash_into_is_structural() {
        let digest = |t: &Topology| {
            let mut h = StableHasher::new();
            t.hash_into(&mut h);
            h.finish()
        };
        let spec = Topology::parse("2*2").unwrap();
        let explicit = Topology::parse("0-1|2-3;0|1|2|3").unwrap();
        assert_eq!(spec, explicit);
        assert_eq!(digest(&spec), digest(&explicit));
        assert_ne!(digest(&spec), digest(&Topology::parse("4*1").unwrap()));
        assert_ne!(digest(&spec), digest(&Topology::flat(4)));
    }

    #[test]
    fn level_index_lookup() {
        let t = Topology::uniform(&[2, 2, 2]).unwrap();
        assert_eq!(t.level_index("node"), Some(0));
        assert_eq!(t.level_index("core"), Some(2));
        assert_eq!(t.level_index("rack"), None);
    }
}
