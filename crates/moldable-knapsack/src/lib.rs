//! # moldable-knapsack
//!
//! Knapsack substrates for *Scheduling Monotone Moldable Jobs in Linear
//! Time* (Jansen & Land, IPDPS 2018):
//!
//! * [`dp`] — the textbook `O(n·C)` capacity-indexed DP used by the original
//!   Mounié–Rapine–Trystram algorithm (Section 4.1);
//! * [`lawler`] — pair-list DP with dominance pruning and one-pass
//!   multi-capacity queries (Sections 4.2.3–4.2.4);
//! * [`normalized`] — adaptive-normalization DP for compressible items
//!   (Lemma 12, Fig. 4);
//! * [`compressible`] — Algorithm 2: knapsack with compressible items
//!   (Theorem 15);
//! * [`bounded`] — bounded knapsack via binary container splitting
//!   (Section 4.3);
//! * [`fptas`] — the profit-scaling FPTAS the paper *rejects* in
//!   Section 4.2 (kept as an ablation baseline demonstrating why);
//! * [`brute`] — exponential ground truth for tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounded;
pub mod brute;
pub mod compressible;
pub mod dp;
pub mod fptas;
pub mod item;
pub mod lawler;
pub mod normalized;

pub use bounded::{solve_bounded, BoundedSolution, ItemType};
pub use compressible::{
    compressed_size, solve_compressible, CompressibleParams, CompressibleSolution,
};
pub use fptas::solve_fptas;
pub use item::{Item, Solution};
pub use lawler::PairListKnapsack;
pub use normalized::{IntervalStructure, NormalizedKnapsack};
