//! # pdx-bench — shared helpers for the experiment harness
//!
//! The binaries in `src/bin/` gate the paper's speed claims
//! (`paper_claims`) and the extensions' acceptance criteria (SQ8,
//! concurrent store, serving); ARCHITECTURE.md's "Paper → code map"
//! names the gate of each claim. This library holds the pieces they
//! share: argument parsing, timing, statistics and CSV output
//! ([`harness`]), and the paper's horizontal baselines
//! ([`baselines`]), which no layer of the library serves.

pub mod baselines;
pub mod harness;
