#![warn(missing_docs)]

//! # pdx-pruners — dimension-pruning algorithms on the PDX layout
//!
//! Implementations of the two state-of-the-art approximate dimension
//! pruners the paper pairs with PDXearch, plus the preprocessing that
//! rotates collections into their search spaces:
//!
//! * [`AdSampling`] — ADSampling (Gao & Long, SIGMOD 2023): a random
//!   orthogonal rotation makes any dimension prefix an unbiased sample of
//!   the distance; a per-checkpoint hypothesis test prunes vectors whose
//!   partial distance is already incompatible with entering the k-NN.
//! * [`Bsa`] — BSA (Yang et al., 2024): a PCA rotation concentrates the
//!   distance mass in the leading dimensions; a Cauchy–Schwarz bound on
//!   the residual segment (relaxed by an error-quantile multiplier)
//!   prunes earlier than ADSampling on skewed collections. With
//!   multiplier 1 the bound is exact — no recall loss.
//! * [`BsaLearned`] — the learned variant (BSA_pca in the paper): a
//!   per-checkpoint regression replaces the closed-form bound.
//!
//! Both pruners implement [`pdx_core::pruning::Pruner`], so the same
//! ADSampling object drives PDXearch *and* the horizontal
//! vector-at-a-time baseline (SIMD-ADS / SCALAR-ADS) — the paper's
//! comparison hinges on the algorithms being identical across layouts.
//! BSA's aux rows live in PDX blocks only; the horizontal baseline
//! refuses it.

pub mod adsampling;
pub mod bsa;

pub use adsampling::AdSampling;
pub use bsa::{Bsa, BsaLearned};
