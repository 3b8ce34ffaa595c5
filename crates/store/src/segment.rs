//! Immutable sealed segments: frozen PDX deployments with an
//! external-id remap table.
//!
//! A segment is born when the write buffer seals (or a compaction
//! rewrites the collection): its rows — sorted by external id — become a
//! [`FlatPdx`] or [`FlatSq8`] deployment with **local** row ids
//! `0..len`, and the sorted external ids become the remap table. The
//! monotone remap keeps the canonical `(distance, id)` tie order the
//! same in local and external id space, which is what lets segment
//! results merge bit-identically with the rest of the collection.
//!
//! On disk a segment is two files: the deployment as an ordinary
//! `PDX1`/`PDX2` container (`seg-<n>.pdx`) and the remap table
//! (`seg-<n>.ids`, magic `PDXI`).

use crate::manifest::{segment_file, segment_ids_file};
use crate::{StoreConfig, StoreError};
use pdx_core::codec::{invalid, put_slice, put_u32, put_u64, read_vec, ByteReader, Source};
use pdx_core::collection::PdxCollection;
use pdx_core::engine::{SearchOptions, VectorIndex};
use pdx_core::heap::Neighbor;
use pdx_core::mask::RowMask;
use pdx_core::search::Sq8Bound;
use pdx_datasets::persist::{read_container_path, write_pdx_path, write_sq8_path, Container};
use pdx_index::{Deployment, FlatPdx, FlatSq8};
use std::borrow::Cow;
use std::io::{self, Write};
use std::path::Path;

const IDS_MAGIC: &[u8; 4] = b"PDXI";
const IDS_VERSION: u32 = 1;

/// The frozen deployment inside a segment.
#[derive(Debug, Clone)]
enum SegmentData {
    /// Plain `f32` PDX partitions.
    F32(FlatPdx),
    /// SQ8-quantized partitions with an exact rerank payload.
    Sq8(FlatSq8),
}

/// One immutable sealed segment of a mutable collection.
///
/// Segments carry no mutable state at all — the masks of their
/// tombstoned rows live in the collection's writer/snapshot halves — so
/// one `Arc<Segment>` can
/// be shared freely between the writer, any number of read snapshots,
/// and an in-flight background compaction.
#[derive(Debug, Clone)]
pub struct Segment {
    seq: u64,
    data: SegmentData,
    /// Local row id → external id, strictly increasing.
    remap: Vec<u64>,
}

impl Segment {
    /// Seals `(ids, rows)` — already sorted by external id — into an
    /// immutable segment with sequence number `seq`.
    ///
    /// Takes the rows by value: an SQ8 segment keeps them as its rerank
    /// payload, moved rather than copied; an `f32` segment tiles them
    /// and drops them.
    ///
    /// # Errors
    /// [`StoreError::DuplicateId`] if the ids are not strictly
    /// increasing: a duplicate would make two physical rows answer to
    /// one external id, silently shadowing one of them.
    ///
    /// # Panics
    /// Panics if `rows` does not hold `ids.len()` whole vectors.
    pub fn seal(
        seq: u64,
        ids: Vec<u64>,
        rows: Vec<f32>,
        dims: usize,
        config: &StoreConfig,
    ) -> Result<Self, StoreError> {
        assert_eq!(rows.len(), ids.len() * dims, "rows must be whole vectors");
        for pair in ids.windows(2) {
            if pair[1] <= pair[0] {
                return Err(StoreError::DuplicateId(pair[1]));
            }
        }
        let n = ids.len();
        let data = if config.quantize {
            SegmentData::Sq8(FlatSq8::build(
                rows,
                n,
                dims,
                config.block_size,
                config.group_size,
            ))
        } else {
            SegmentData::F32(FlatPdx::new(
                &rows,
                n,
                dims,
                config.block_size,
                config.group_size,
            ))
        };
        Ok(Self {
            seq,
            data,
            remap: ids,
        })
    }

    /// Sequence number (file names derive from it).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of physical rows (tombstoned ones included).
    pub fn len(&self) -> usize {
        self.remap.len()
    }

    /// Whether the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.remap.is_empty()
    }

    /// The local → external id remap table.
    pub fn remap(&self) -> &[u64] {
        &self.remap
    }

    /// The frozen deployment, served through the engine trait.
    pub fn index(&self) -> &dyn VectorIndex {
        match &self.data {
            SegmentData::F32(flat) => flat,
            SegmentData::Sq8(sq8) => sq8,
        }
    }

    /// The `k` nearest rows of this segment whose local id is not in
    /// `dead`, under their external ids. The frozen deployment scans
    /// with the pruner its [`VectorIndex::search`] names under `opts`
    /// ([`SearchOptions::bond`] for `f32`, [`Sq8Bound`] for SQ8) and
    /// `dead` handed to the scan; with `parallel`, its blocks split
    /// across `opts.threads` workers. The remap is strictly increasing,
    /// so the canonical `(distance, id)` order is the same in local and
    /// external ids.
    pub(crate) fn search(
        &self,
        query: &[f32],
        opts: &SearchOptions,
        dead: &RowMask,
        parallel: bool,
    ) -> Vec<Neighbor> {
        let dead = Some(dead);
        let mut hits = match &self.data {
            SegmentData::F32(flat) => {
                flat.search_live_with(&opts.bond(), query, opts, dead, parallel)
            }
            SegmentData::Sq8(sq8) => {
                let bound = Sq8Bound::new(&sq8.quantizer, opts.metric);
                sq8.search_live_with(&bound, query, opts, dead, parallel)
            }
        };
        for n in &mut hits {
            n.id = self.remap[n.id as usize];
        }
        hits
    }

    /// Deployment kind of this segment (`flat-pdx` / `flat-sq8`).
    pub fn kind(&self) -> &'static str {
        self.index().kind()
    }

    /// Bytes of payload the segment holds: its rows (an `f32` segment's
    /// blocks, an SQ8 segment's rerank payload), the id remap and, for
    /// SQ8, the codes.
    pub(crate) fn payload_bytes(&self) -> usize {
        let values = self.len() * self.index().dims();
        let codes = match &self.data {
            SegmentData::F32(_) => 0,
            SegmentData::Sq8(_) => values,
        };
        values * 4 + self.len() * 8 + codes
    }

    /// Row-major `f32` rows by local id: an SQ8 segment lends its exact
    /// rerank payload (not a dequantization), an `f32` segment transposes
    /// its blocks back.
    pub fn rows(&self) -> Cow<'_, [f32]> {
        match &self.data {
            SegmentData::F32(flat) => Cow::Owned(flat.to_rows()),
            SegmentData::Sq8(sq8) => Cow::Borrowed(&sq8.rows),
        }
    }

    /// Appends the rows whose local id is not in `dead` to `ids` (their
    /// external ids, increasing) and `rows` — the compaction input. The
    /// live runs between two dead rows are copied whole.
    pub fn live_rows(&self, dead: &RowMask, ids: &mut Vec<u64>, rows: &mut Vec<f32>) {
        let (dims, all) = (self.index().dims(), self.rows());
        let mut start = 0;
        for end in dead.iter().map(|row| row as usize).chain([self.len()]) {
            ids.extend_from_slice(&self.remap[start..end]);
            rows.extend_from_slice(&all[start * dims..end * dims]);
            start = end + 1;
        }
    }

    /// Writes the segment's container and remap table into `dir` and
    /// fsyncs both (they must be durable before a manifest names them).
    ///
    /// # Errors
    /// Propagates IO errors.
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        let container = dir.join(segment_file(self.seq));
        match &self.data {
            SegmentData::F32(flat) => write_pdx_path(&container, &flat.collection)?,
            SegmentData::Sq8(sq8) => {
                write_sq8_path(&container, &sq8.quantizer, &sq8.blocks, Some(&sq8.rows))?
            }
        }
        std::fs::File::open(&container)?.sync_all()?;
        let ids_path = dir.join(segment_ids_file(self.seq));
        let mut ids = IDS_MAGIC.to_vec();
        put_u32(&mut ids, IDS_VERSION);
        put_u64(&mut ids, self.remap.len() as u64);
        put_slice(&mut ids, &self.remap);
        let mut file = std::fs::File::create(&ids_path)?;
        file.write_all(&ids)?;
        file.sync_all()
    }

    /// Loads segment `seq` from `dir`, validating the remap table
    /// against the container (length, dimensionality, monotone ids).
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] on any mismatch; IO and container-format
    /// errors are propagated.
    pub fn load(dir: &Path, seq: u64, dims: usize) -> Result<Self, StoreError> {
        let container_path = dir.join(segment_file(seq));
        let data = match read_container_path(&container_path)
            .map_err(|e| StoreError::Corrupt(e.to_string()))?
        {
            Container::F32(c) if c.centroid_rows.is_none() => SegmentData::F32(
                FlatPdx::from_collection(PdxCollection::from_blocks(c.dims, c.blocks)),
            ),
            Container::Sq8(c) if c.centroid_rows.is_none() => {
                if c.rows.is_empty() {
                    return Err(StoreError::Corrupt(format!(
                        "{}: segment container has no rerank payload",
                        container_path.display()
                    )));
                }
                SegmentData::Sq8(FlatSq8::from_parts(c.dims, c.quantizer, c.blocks, c.rows))
            }
            _ => {
                return Err(StoreError::Corrupt(format!(
                    "{}: segments are flat containers, found an IVF-extended one",
                    container_path.display()
                )))
            }
        };
        let ids_path = dir.join(segment_ids_file(seq));
        let corrupt = |msg: String| StoreError::Corrupt(format!("{}: {msg}", ids_path.display()));
        let remap = decode_ids(&std::fs::read(&ids_path)?).map_err(|e| corrupt(e.to_string()))?;
        let segment = Self { seq, data, remap };
        if segment.remap.len() != segment.index().len() {
            return Err(corrupt(format!(
                "remap table has {} ids, container has {} rows",
                segment.remap.len(),
                segment.index().len()
            )));
        }
        if segment.index().dims() != dims {
            return Err(corrupt(format!(
                "segment dims {} != collection dims {dims}",
                segment.index().dims()
            )));
        }
        if segment.remap.windows(2).any(|p| p[1] <= p[0]) {
            return Err(corrupt("remap table is not strictly increasing".into()));
        }
        Ok(segment)
    }

    /// Deletes the segment's files from `dir` (after a compaction's
    /// manifest commit made them unreachable).
    pub fn remove_files(dir: &Path, seq: u64) {
        std::fs::remove_file(dir.join(segment_file(seq))).ok();
        std::fs::remove_file(dir.join(segment_ids_file(seq))).ok();
    }
}

#[cfg(test)]
impl Segment {
    /// The SQ8 deployment of this segment with the rows in `dead`
    /// physically absent: every block quantized again from its surviving
    /// rows under the same quantizer; local ids and the rerank payload
    /// are unchanged. `None` for an `f32` segment.
    pub(crate) fn sq8_without(&self, dead: &RowMask) -> Option<FlatSq8> {
        let SegmentData::Sq8(sq8) = &self.data else {
            return None;
        };
        let dims = sq8.dims;
        let without = |block: &pdx_core::search::Sq8Block| {
            let live = |id: &u64| !dead.contains(*id);
            let ids: Vec<u64> = block.row_ids.iter().copied().filter(live).collect();
            let row = |&id: &u64| sq8.rows[id as usize * dims..][..dims].iter().copied();
            let rows: Vec<f32> = ids.iter().flat_map(row).collect();
            let group = block.codes.group_size();
            pdx_core::search::Sq8Block::new(&rows, ids, dims, group, &sq8.quantizer)
        };
        let blocks = sq8.blocks.iter().map(without).collect();
        let (quantizer, rows) = (sq8.quantizer.clone(), sq8.rows.clone());
        Some(FlatSq8::from_parts(dims, quantizer, blocks, rows))
    }
}

/// Decodes a `PDXI` remap table: `magic | version u32 | n u64 | id u64 ×
/// n`, nothing after. The count is checked against the bytes present
/// before the ids are allocated ([`read_vec`]).
fn decode_ids(bytes: &[u8]) -> io::Result<Vec<u64>> {
    let mut r = ByteReader::new(bytes);
    if &r.array::<4>("remap table magic")? != IDS_MAGIC {
        return Err(invalid("not a PDXI remap table"));
    }
    let version = r.u32("remap table version")?;
    if version != IDS_VERSION {
        return Err(invalid(format!("unsupported remap version {version}")));
    }
    let n = usize::try_from(r.u64("remap count")?).map_err(|_| invalid("remap count overflows"))?;
    let remap = read_vec(&mut r, n, "remap count")?;
    r.finish()?;
    Ok(remap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(quantize: bool) -> StoreConfig {
        StoreConfig {
            block_size: 8,
            group_size: 4,
            buffer_capacity: 64,
            quantize,
        }
    }

    #[test]
    fn seal_rejects_duplicate_and_unsorted_ids() {
        let rows: Vec<f32> = (0..6).map(|i| i as f32).collect();
        let err = Segment::seal(0, vec![1, 1, 2], rows.clone(), 2, &config(false)).unwrap_err();
        assert!(matches!(err, StoreError::DuplicateId(1)));
        let err = Segment::seal(0, vec![2, 1, 3], rows, 2, &config(false)).unwrap_err();
        assert!(matches!(err, StoreError::DuplicateId(1)));
    }

    #[test]
    fn write_load_round_trip_both_kinds() {
        let dir = std::env::temp_dir().join("pdx_store_segment_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let n = 30;
        let dims = 3;
        let rows: Vec<f32> = (0..n * dims).map(|i| (i as f32 * 0.37).sin()).collect();
        let ids: Vec<u64> = (0..n as u64).map(|i| i * 2 + 5).collect();
        for quantize in [false, true] {
            let seq = u64::from(quantize);
            let seg =
                Segment::seal(seq, ids.clone(), rows.clone(), dims, &config(quantize)).unwrap();
            seg.write(&dir).unwrap();
            let back = Segment::load(&dir, seq, dims).unwrap();
            assert_eq!(back.remap(), seg.remap());
            assert_eq!(back.kind(), seg.kind());
            assert_eq!(back.rows(), seg.rows());
            // Live rows drop exactly the masked rows, in order, and
            // append to what the caller already holds.
            let dead: RowMask = [0u64, 7, 8, n as u64 - 1].into_iter().collect();
            let (mut live_ids, mut live_rows) = (vec![1u64], vec![0.5f32; dims]);
            back.live_rows(&dead, &mut live_ids, &mut live_rows);
            let want: Vec<usize> = (0..n).filter(|&i| !dead.contains(i as u64)).collect();
            assert_eq!(live_ids[0], 1);
            assert_eq!(live_ids.len(), 1 + n - 4);
            for (slot, &i) in want.iter().enumerate() {
                assert_eq!(live_ids[1 + slot], ids[i]);
                let got = &live_rows[(1 + slot) * dims..(2 + slot) * dims];
                assert_eq!(got, &rows[i * dims..(i + 1) * dims]);
            }
            let (mut all_ids, mut all_rows) = (Vec::new(), Vec::new());
            back.live_rows(&RowMask::default(), &mut all_ids, &mut all_rows);
            assert_eq!((all_ids, all_rows), (ids.clone(), rows.clone()));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// 30 rows of 3 dims: 360 bytes of `f32` rows, 240 of remap.
    fn payload_of(quantize: bool) -> usize {
        let rows: Vec<f32> = (0..90).map(|i| (i as f32 * 0.37).sin()).collect();
        let seg = Segment::seal(0, (0..30).collect(), rows, 3, &config(quantize)).unwrap();
        seg.payload_bytes()
    }

    #[test]
    fn payload_bytes_of_an_f32_segment_are_rows_and_remap() {
        assert_eq!(payload_of(false), 30 * 3 * 4 + 30 * 8);
    }

    #[test]
    fn payload_bytes_of_an_sq8_segment_add_the_codes() {
        assert_eq!(payload_of(true), 30 * 3 * 4 + 30 * 8 + 30 * 3);
    }

    #[test]
    fn load_rejects_mismatched_remap() {
        let dir = std::env::temp_dir().join("pdx_store_segment_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let rows: Vec<f32> = (0..20).map(|i| i as f32).collect();
        let seg = Segment::seal(3, (0..10).collect(), rows, 2, &config(false)).unwrap();
        seg.write(&dir).unwrap();
        // Truncate the remap table: the count no longer matches.
        let ids_path = dir.join(segment_ids_file(3));
        let bytes = std::fs::read(&ids_path).unwrap();
        std::fs::write(&ids_path, &bytes[..bytes.len() - 8]).unwrap();
        assert!(matches!(
            Segment::load(&dir, 3, 2),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
