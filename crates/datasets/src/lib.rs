//! # pdx-datasets — vector collections, IO and evaluation
//!
//! The paper evaluates on ten real embedding/feature collections
//! (Table 1). Those originals are not redistributable, so this crate
//! provides:
//!
//! * [`synthetic`] — generators that reproduce each collection's
//!   **dimensionality**, **per-dimension value-distribution class**
//!   (normal vs. skewed, §2.2) and cluster structure (so IVF indexes are
//!   meaningful). The paper's pruning-power analysis (§2.4) depends on
//!   exactly these properties.
//! * [`io`] — readers/writers for the `.fvecs`/`.ivecs`/`.bvecs` formats,
//!   so anyone holding the original datasets can run every experiment on
//!   the real data.
//! * [`eval`] — multi-threaded brute-force ground truth and recall@k.

//! * [`persist`] — an on-disk container for PDX collections (the §7
//!   "PDX Storage Designs" direction): block-addressable, so data loads
//!   block- and dimension-at-a-time.

pub mod eval;
pub mod io;
pub mod persist;
pub mod synthetic;

pub use eval::{ground_truth, recall_at_k};
pub use persist::write_pdx_path;
pub use synthetic::{Dataset, DatasetSpec, Distribution, TABLE1};
