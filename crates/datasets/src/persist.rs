//! On-disk persistence of PDX collections (§7 "PDX Storage Designs").
//!
//! The paper points out that PDX needs data loadable block- and
//! dimension-at-a-time. This module provides compact binary containers
//! with a versioned magic number:
//!
//! * **`PDX1`** — a plain `f32` [`PdxCollection`]: a header, then per
//!   block its row ids and its dimension-major payload, so a reader can
//!   fetch one block (or, with the per-block offsets, a dimension range
//!   of one block) without touching the rest of the file.
//! * **`PDX2`** — an SQ8-quantized collection ([`Sq8Container`]): the
//!   same block structure with one *byte* per value, preceded by the
//!   quantization metadata (per-dimension min/scale), and followed by an
//!   optional row-major `f32` rerank payload. The split mirrors how the
//!   index serves queries: the quantized blocks are the hot scan data,
//!   the `f32` rows are cold data touched only for rerank candidates.
//!
//! [`read_container`] sniffs the magic and returns whichever kind the
//! file holds, so callers (the CLI) stay format-agnostic.
//!
//! `PDX1` layout (all integers little-endian):
//!
//! ```text
//! magic  "PDX1"            4 bytes
//! dims   u32 | group  u32 | n_blocks u32
//! per block:
//!   n_vectors u32
//!   row_ids   n_vectors × u64
//!   data      n_vectors × dims × f32   (PDX group-tiled order)
//! ```
//!
//! `PDX2` layout:
//!
//! ```text
//! magic  "PDX2"            4 bytes
//! dims   u32 | group  u32 | n_blocks u32 | flags u32 (bit 0: rerank rows)
//! mins   dims × f32 | scales dims × f32
//! per block:
//!   n_vectors u32
//!   row_ids   n_vectors × u64
//!   codes     n_vectors × dims × u8    (PDX group-tiled order)
//! if flags bit 0:
//!   n_rows u64
//!   rows   n_rows × dims × f32          (row-major, by global id)
//! ```
//!
//! ## IVF-extended containers (minor version 1.1)
//!
//! Both magics have an **IVF-extended** variant for out-of-core
//! serving: the u32 after the magic is the sentinel `0xFFFF_FFFF`
//! (impossible as a legacy `dims`, so 1.0 files stay readable), and the
//! header then carries everything a router needs — the bucket
//! centroids and a per-bucket `{offset, byte_len, n_vectors}` table —
//! so [`read_ivf_meta_path`] can open a container in O(header) time
//! and a lazy reader can `seek`+`read` exactly the buckets a query
//! probes:
//!
//! ```text
//! magic    "PDX1" or "PDX2"       4 bytes
//! sentinel u32 = 0xFFFF_FFFF  | minor u32 = 1
//! dims     u32 | group u32 | flags u32 | n_buckets u32
//! PDX2 only: mins dims × f32 | scales dims × f32
//! PDX2 only: n_rows u64 | rows_offset u64     (0/0 without rerank rows)
//! centroids  n_buckets × dims × f32           (row-major)
//! table      n_buckets × { offset u64, byte_len u64, n_vectors u32 }
//! bucket records, contiguous from the header end, each at its offset:
//!   PDX1: row_ids n × u64 | means dims × f32 | variances dims × f32
//!         | data n × dims × f32               (PDX group-tiled order)
//!   PDX2: row_ids n × u64 | codes n × dims × u8
//! PDX2 only, at rows_offset: rows n_rows × dims × f32
//! ```
//!
//! `PDX1` bucket records persist the per-block means/variances so a
//! lazy load costs one read plus a copy — re-deriving the statistics
//! would triple the miss cost — and so resident and lazy readers see
//! bit-identical [`SearchBlock`]s.

use pdx_core::collection::{PdxCollection, SearchBlock};
use pdx_core::layout::{PdxBlock, QuantizedPdxBlock, Sq8Quantizer};
use pdx_core::search::quantized::Sq8Block;
use pdx_core::stats::BlockStats;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"PDX1";
const MAGIC_SQ8: &[u8; 4] = b"PDX2";

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Tracks row ids across the blocks of one container: a duplicate id
/// would make two physical rows answer to one logical vector — searches
/// and reranks would silently shadow one of them — so the readers reject
/// it as corruption instead of loading it.
#[derive(Debug, Default)]
struct RowIdCheck {
    seen: std::collections::HashSet<u64>,
}

impl RowIdCheck {
    fn insert(&mut self, id: u64) -> io::Result<()> {
        if !self.seen.insert(id) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("duplicate row id {id} in container"),
            ));
        }
        Ok(())
    }
}

/// Serializes a collection into the PDX container format.
///
/// # Errors
/// Propagates IO errors from the writer.
pub fn write_pdx<W: Write>(mut w: W, coll: &PdxCollection) -> io::Result<()> {
    w.write_all(MAGIC)?;
    let group = coll
        .blocks
        .first()
        .map_or(pdx_core::DEFAULT_GROUP_SIZE, |b| b.pdx.group_size());
    w.write_all(&(coll.dims as u32).to_le_bytes())?;
    w.write_all(&(group as u32).to_le_bytes())?;
    w.write_all(&(coll.blocks.len() as u32).to_le_bytes())?;
    for block in &coll.blocks {
        w.write_all(&(block.len() as u32).to_le_bytes())?;
        for &id in &block.row_ids {
            w.write_all(&id.to_le_bytes())?;
        }
        for v in block.pdx.as_slice() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads a collection back from the PDX container format, recomputing
/// per-block statistics (they derive from the data).
///
/// # Errors
/// Fails on IO errors, a bad magic number, or truncated payloads.
pub fn read_pdx<R: Read>(mut r: R) -> io::Result<PdxCollection> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a PDX container",
        ));
    }
    read_pdx_body(r)
}

/// Reads the `PDX1` payload after the magic has been consumed.
fn read_pdx_body<R: Read>(mut r: R) -> io::Result<PdxCollection> {
    let first = read_u32(&mut r)?;
    read_pdx_body_with_dims(r, first)
}

/// [`read_pdx_body`] with the first header word (the legacy `dims`
/// field, which doubles as the IVF sentinel slot) already consumed.
fn read_pdx_body_with_dims<R: Read>(mut r: R, dims_word: u32) -> io::Result<PdxCollection> {
    if dims_word == IVF_SENTINEL {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "IVF-extended PDX1 container (open it via read_container)",
        ));
    }
    let dims = dims_word as usize;
    let group = read_u32(&mut r)? as usize;
    let n_blocks = read_u32(&mut r)? as usize;
    if dims == 0 || group == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "zero dims or group size",
        ));
    }
    let mut blocks = Vec::with_capacity(n_blocks);
    let mut all_rows: Vec<f32> = Vec::new();
    let mut id_check = RowIdCheck::default();
    for _ in 0..n_blocks {
        let n = read_u32(&mut r)? as usize;
        let mut row_ids = Vec::with_capacity(n);
        for _ in 0..n {
            let id = read_u64(&mut r)?;
            id_check.insert(id)?;
            row_ids.push(id);
        }
        let mut payload = vec![0u8; n * dims * 4];
        r.read_exact(&mut payload)?;
        // The payload is already in PDX group-tiled order; rebuild the
        // block through rows so the invariants are re-validated.
        let flat: Vec<f32> = payload
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let block = pdx_block_from_tiled(flat, n, dims, group);
        let rows = block.to_rows();
        all_rows.extend_from_slice(&rows);
        let stats = BlockStats::from_block(&block);
        blocks.push(SearchBlock {
            pdx: block,
            row_ids,
            stats,
            aux: None,
        });
    }
    let total: usize = blocks.iter().map(|b| b.len()).sum();
    let stats = BlockStats::from_rows(&all_rows, total, dims);
    Ok(PdxCollection {
        dims,
        blocks,
        stats,
    })
}

/// Rebuilds a `PdxBlock` from an already group-tiled buffer by routing
/// through the row representation (keeps `PdxBlock`'s internals private).
fn pdx_block_from_tiled(tiled: Vec<f32>, n: usize, dims: usize, group: usize) -> PdxBlock {
    let mut rows = vec![0.0f32; n * dims];
    let mut offset = 0usize;
    let mut v0 = 0usize;
    while v0 < n {
        let lanes = group.min(n - v0);
        for d in 0..dims {
            for l in 0..lanes {
                rows[(v0 + l) * dims + d] = tiled[offset + d * lanes + l];
            }
        }
        offset += lanes * dims;
        v0 += lanes;
    }
    PdxBlock::from_rows(&rows, n, dims, group)
}

/// Writes a collection to a file path.
///
/// # Errors
/// Propagates IO errors.
pub fn write_pdx_path(path: &std::path::Path, coll: &PdxCollection) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    write_pdx(&mut w, coll)?;
    w.flush()
}

/// Reads a collection from a file path.
///
/// # Errors
/// Propagates IO and format errors.
pub fn read_pdx_path(path: &std::path::Path) -> io::Result<PdxCollection> {
    read_pdx(io::BufReader::new(std::fs::File::open(path)?))
}

/// An SQ8-quantized collection as stored in a `PDX2` container.
#[derive(Debug, Clone)]
pub struct Sq8Container {
    /// Dimensionality.
    pub dims: usize,
    /// Group size the blocks were tiled with.
    pub group: usize,
    /// The per-dimension codec.
    pub quantizer: Sq8Quantizer,
    /// Quantized blocks, in storage order.
    pub blocks: Vec<Sq8Block>,
    /// Row-major `f32` rerank payload by global id (empty when the
    /// container was written without one).
    pub rows: Vec<f32>,
}

/// Either kind of on-disk container, as sniffed by [`read_container`].
#[derive(Debug, Clone)]
pub enum Container {
    /// A plain `f32` collection (`PDX1`).
    F32(PdxCollection),
    /// An SQ8-quantized collection (`PDX2`).
    Sq8(Sq8Container),
    /// An IVF-extended `f32` container (`PDX1`, minor 1.1), fully
    /// resident.
    IvfF32(IvfF32Container),
    /// An IVF-extended SQ8 container (`PDX2`, minor 1.1), fully
    /// resident.
    IvfSq8(IvfSq8Container),
}

/// Serializes a quantized collection into the `PDX2` container format.
/// Pass the original row-major vectors as `rows` to make the container
/// self-contained for exact rerank; pass `None` for a scan-only file.
///
/// # Errors
/// Propagates IO errors from the writer.
///
/// # Panics
/// Panics if `rows` is not whole vectors of the quantizer's
/// dimensionality, or if the blocks disagree among themselves (group
/// size, dimensionality) — the container stores those once in its
/// header.
pub fn write_sq8<W: Write>(
    mut w: W,
    quantizer: &Sq8Quantizer,
    blocks: &[Sq8Block],
    rows: Option<&[f32]>,
) -> io::Result<()> {
    let dims = quantizer.dims();
    if let Some(rows) = rows {
        assert_eq!(rows.len() % dims.max(1), 0, "rows must be whole vectors");
    }
    w.write_all(MAGIC_SQ8)?;
    let group = blocks
        .first()
        .map_or(pdx_core::DEFAULT_GROUP_SIZE, |b| b.codes.group_size());
    // The header stores one group size and one dimensionality for the
    // whole container; the reader de-tiles every block with them, so a
    // mismatched block would round-trip silently permuted.
    for (i, b) in blocks.iter().enumerate() {
        assert_eq!(b.codes.group_size(), group, "block {i} group size differs");
        assert_eq!(b.codes.dims(), dims, "block {i} dimensionality differs");
        assert_eq!(b.row_ids.len(), b.len(), "block {i} id count differs");
    }
    w.write_all(&(dims as u32).to_le_bytes())?;
    w.write_all(&(group as u32).to_le_bytes())?;
    w.write_all(&(blocks.len() as u32).to_le_bytes())?;
    w.write_all(&(rows.is_some() as u32).to_le_bytes())?;
    for &m in quantizer.mins() {
        w.write_all(&m.to_le_bytes())?;
    }
    for &s in quantizer.scales() {
        w.write_all(&s.to_le_bytes())?;
    }
    for block in blocks {
        w.write_all(&(block.len() as u32).to_le_bytes())?;
        for &id in &block.row_ids {
            w.write_all(&id.to_le_bytes())?;
        }
        w.write_all(block.codes.as_slice())?;
    }
    if let Some(rows) = rows {
        w.write_all(&((rows.len() / dims.max(1)) as u64).to_le_bytes())?;
        for v in rows {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads a quantized collection back from the `PDX2` container format.
///
/// # Errors
/// Fails on IO errors, a bad magic number, or truncated payloads.
pub fn read_sq8<R: Read>(mut r: R) -> io::Result<Sq8Container> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC_SQ8 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an SQ8 PDX container",
        ));
    }
    read_sq8_body(r)
}

/// Reads the `PDX2` payload after the magic has been consumed.
fn read_sq8_body<R: Read>(mut r: R) -> io::Result<Sq8Container> {
    let first = read_u32(&mut r)?;
    read_sq8_body_with_dims(r, first)
}

/// [`read_sq8_body`] with the first header word (the legacy `dims`
/// field, which doubles as the IVF sentinel slot) already consumed.
fn read_sq8_body_with_dims<R: Read>(mut r: R, dims_word: u32) -> io::Result<Sq8Container> {
    if dims_word == IVF_SENTINEL {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "IVF-extended PDX2 container (open it via read_container)",
        ));
    }
    let dims = dims_word as usize;
    let group = read_u32(&mut r)? as usize;
    let n_blocks = read_u32(&mut r)? as usize;
    let flags = read_u32(&mut r)?;
    if dims == 0 || group == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "zero dims or group size",
        ));
    }
    let read_f32s = |r: &mut R, n: usize| -> io::Result<Vec<f32>> {
        let mut payload = vec![0u8; n * 4];
        r.read_exact(&mut payload)?;
        Ok(payload
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    };
    let mins = read_f32s(&mut r, dims)?;
    let scales = read_f32s(&mut r, dims)?;
    if mins.iter().any(|m| !m.is_finite()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "non-finite quantizer min",
        ));
    }
    if scales.iter().any(|&s| s <= 0.0 || !s.is_finite()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "non-positive quantizer scale",
        ));
    }
    let quantizer = Sq8Quantizer::from_params(mins, scales);
    let mut blocks = Vec::with_capacity(n_blocks);
    let mut id_check = RowIdCheck::default();
    for _ in 0..n_blocks {
        let n = read_u32(&mut r)? as usize;
        let n_codes = n
            .checked_mul(dims)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "block size overflows"))?;
        let mut row_ids = Vec::with_capacity(n);
        for _ in 0..n {
            let id = read_u64(&mut r)?;
            id_check.insert(id)?;
            row_ids.push(id);
        }
        // The on-disk byte order is the in-memory group-tiled order; any
        // byte is a valid code, so the buffer loads directly.
        let mut tiled = vec![0u8; n_codes];
        r.read_exact(&mut tiled)?;
        let codes = QuantizedPdxBlock::from_tiled(tiled, n, dims, group);
        blocks.push(Sq8Block { codes, row_ids });
    }
    let rows = if flags & 1 != 0 {
        // The count comes from the file: use checked arithmetic so a
        // corrupt header fails with InvalidData instead of wrapping the
        // allocation size (and silently under-reading) in release.
        let n_rows = read_u64(&mut r)?;
        let n_values = usize::try_from(n_rows)
            .ok()
            .and_then(|n| n.checked_mul(dims))
            .filter(|&n| n.checked_mul(4).is_some())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "rerank row count overflows")
            })?;
        let rows = read_f32s(&mut r, n_values)?;
        // Every block id must index into the rerank payload, or later
        // reranks would panic instead of the load failing cleanly.
        for block in &blocks {
            if block.row_ids.iter().any(|&id| id >= n_rows) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "block row id exceeds rerank payload",
                ));
            }
        }
        rows
    } else {
        Vec::new()
    };
    Ok(Sq8Container {
        dims,
        group,
        quantizer,
        blocks,
        rows,
    })
}

/// Writes a quantized collection to a file path.
///
/// # Errors
/// Propagates IO errors.
pub fn write_sq8_path(
    path: &std::path::Path,
    quantizer: &Sq8Quantizer,
    blocks: &[Sq8Block],
    rows: Option<&[f32]>,
) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    write_sq8(&mut w, quantizer, blocks, rows)?;
    w.flush()
}

/// Reads a quantized collection from a file path.
///
/// # Errors
/// Propagates IO and format errors.
pub fn read_sq8_path(path: &std::path::Path) -> io::Result<Sq8Container> {
    read_sq8(io::BufReader::new(std::fs::File::open(path)?))
}

/// Reads either container kind, dispatching on the magic number.
///
/// # Errors
/// Fails on IO errors or an unrecognized magic number.
pub fn read_container<R: Read>(mut r: R) -> io::Result<Container> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    match &magic {
        m if m == MAGIC => {
            let first = read_u32(&mut r)?;
            if first == IVF_SENTINEL {
                Ok(Container::IvfF32(read_ivf_f32_body(r)?))
            } else {
                Ok(Container::F32(read_pdx_body_with_dims(r, first)?))
            }
        }
        m if m == MAGIC_SQ8 => {
            let first = read_u32(&mut r)?;
            if first == IVF_SENTINEL {
                Ok(Container::IvfSq8(read_ivf_sq8_body(r)?))
            } else {
                Ok(Container::Sq8(read_sq8_body_with_dims(r, first)?))
            }
        }
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            // The offending bytes make "served the wrong file" failures
            // attributable (an .fvecs file, a truncated download, …).
            format!(
                "not a PDX container (unknown magic {:?}, expected \"PDX1\"/\"PDX2\")",
                magic.escape_ascii().to_string()
            ),
        )),
    }
}

/// Reads either container kind from a file path. Every error — the
/// open itself, a truncation, a format violation — names the offending
/// path, so a caller layered behind `AnyIndex::open` (or a CLI) never
/// reports a bare "failed to fill whole buffer" with no file to blame.
///
/// # Errors
/// Propagates IO and format errors, with the path prepended.
pub fn read_container_path(path: &std::path::Path) -> io::Result<Container> {
    let with_path = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    let file = std::fs::File::open(path).map_err(with_path)?;
    read_container(io::BufReader::new(file)).map_err(with_path)
}

// ---------------------------------------------------------------------------
// IVF-extended containers (minor version 1.1): bucket-granular layout
// ---------------------------------------------------------------------------

/// The u32 following the magic that marks an IVF-extended container.
/// Legacy (1.0) files store `dims` there, which the readers require to
/// be non-zero and far below this value — so the sentinel can never be
/// mistaken for a dimensionality.
pub const IVF_SENTINEL: u32 = u32::MAX;

/// Container format minor version written by the IVF writers.
pub const IVF_MINOR: u32 = 1;

/// Fixed bytes before the variable header sections: magic, sentinel,
/// minor, dims, group, flags, n_buckets.
const IVF_FIXED_HEADER: u64 = 4 + 6 * 4;

/// Location and shape of one bucket record inside an IVF container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvfBucketEntry {
    /// Absolute file offset of the bucket record.
    pub offset: u64,
    /// Byte length of the bucket record.
    pub byte_len: u64,
    /// Number of vectors in the bucket.
    pub n_vectors: u32,
}

/// Everything an IVF container's header holds: the routing data
/// (centroids), the bucket table, and — for `PDX2` — the quantizer and
/// the rerank payload's location. Reading this is O(header): no bucket
/// record is touched, which is what makes cold opens independent of
/// the corpus size.
#[derive(Debug, Clone)]
pub struct IvfMeta {
    /// Whether the container is SQ8-quantized (`PDX2`).
    pub quantized: bool,
    /// Dimensionality.
    pub dims: usize,
    /// PDX group size of the bucket blocks.
    pub group: usize,
    /// Format flags (`PDX2` bit 0: rerank rows present).
    pub flags: u32,
    /// Row-major centroid vectors, one per bucket.
    pub centroid_rows: Vec<f32>,
    /// Per-bucket offset/length table, in bucket order.
    pub buckets: Vec<IvfBucketEntry>,
    /// The codec of a quantized container.
    pub quantizer: Option<Sq8Quantizer>,
    /// Number of rerank rows (`PDX2` with flags bit 0; else 0).
    pub n_rows: u64,
    /// Absolute file offset of the rerank payload (`PDX2`; else 0).
    pub rows_offset: u64,
}

/// Byte length of one `f32` IVF bucket record: ids, stats, payload
/// (`None` on arithmetic overflow). Readers that stream bucket
/// sections directly (see `pdx-index`'s lazy deployment) validate a
/// table entry's `byte_len` against this before trusting its geometry.
pub fn ivf_f32_bucket_len(n: usize, dims: usize) -> Option<u64> {
    let ids = (n as u64).checked_mul(8)?;
    let stats = (dims as u64).checked_mul(8)?;
    let data = (n as u64).checked_mul(dims as u64)?.checked_mul(4)?;
    ids.checked_add(stats)?.checked_add(data)
}

/// Byte length of one SQ8 IVF bucket record: ids, codes.
fn ivf_sq8_bucket_len(n: usize, dims: usize) -> Option<u64> {
    let ids = (n as u64).checked_mul(8)?;
    let codes = (n as u64).checked_mul(dims as u64)?;
    ids.checked_add(codes)
}

/// End of the header (= offset of the first bucket record).
fn ivf_header_end(quantized: bool, dims: usize, n_buckets: usize) -> Option<u64> {
    let centroids = (n_buckets as u64)
        .checked_mul(dims as u64)?
        .checked_mul(4)?;
    let table = (n_buckets as u64).checked_mul(20)?;
    let quant = if quantized {
        // mins + scales + n_rows + rows_offset
        (dims as u64).checked_mul(8)?.checked_add(16)?
    } else {
        0
    };
    IVF_FIXED_HEADER
        .checked_add(quant)?
        .checked_add(centroids)?
        .checked_add(table)
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads `n` little-endian `f32`s in bounded chunks, so a corrupt count
/// fails at end-of-file instead of pre-allocating the lie.
fn read_f32s_chunked<R: Read>(r: &mut R, n: usize) -> io::Result<Vec<f32>> {
    let mut out = Vec::with_capacity(n.min(1 << 16));
    let mut buf = [0u8; 4096];
    let mut remaining = n;
    while remaining > 0 {
        let take = remaining.min(buf.len() / 4);
        let bytes = &mut buf[..take * 4];
        r.read_exact(bytes)?;
        out.extend(
            bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
        remaining -= take;
    }
    Ok(out)
}

/// Reads `n` bytes in bounded chunks (same OOM-safety rationale as
/// [`read_f32s_chunked`]).
fn read_bytes_chunked<R: Read>(r: &mut R, n: u64) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(n.min(1 << 20) as usize);
    let mut buf = [0u8; 4096];
    let mut remaining = n;
    while remaining > 0 {
        let take = remaining.min(buf.len() as u64) as usize;
        r.read_exact(&mut buf[..take])?;
        out.extend_from_slice(&buf[..take]);
        remaining -= take as u64;
    }
    Ok(out)
}

/// Serializes an IVF deployment into the IVF-extended `PDX1` format:
/// `centroid_rows` are the row-major centroids (one per bucket, the
/// router's data) and `blocks` the bucket [`SearchBlock`]s in the same
/// order. The per-block statistics are persisted alongside the payload
/// so lazy and resident readers rebuild bit-identical blocks without
/// recomputation.
///
/// # Errors
/// Propagates IO errors from the writer.
///
/// # Panics
/// Panics if the centroids don't match the bucket count, or if the
/// blocks disagree among themselves (group size, dimensionality) —
/// the container stores those once in its header.
pub fn write_ivf_pdx<W: Write>(
    mut w: W,
    dims: usize,
    centroid_rows: &[f32],
    blocks: &[SearchBlock],
) -> io::Result<()> {
    assert!(dims > 0, "zero dims");
    assert_eq!(
        centroid_rows.len(),
        blocks.len() * dims,
        "one centroid row per bucket"
    );
    let group = blocks
        .first()
        .map_or(pdx_core::DEFAULT_GROUP_SIZE, |b| b.pdx.group_size());
    for (i, b) in blocks.iter().enumerate() {
        assert_eq!(b.pdx.group_size(), group, "block {i} group size differs");
        assert_eq!(b.pdx.dims(), dims, "block {i} dimensionality differs");
        assert_eq!(b.row_ids.len(), b.len(), "block {i} id count differs");
        assert_eq!(b.stats.means.len(), dims, "block {i} stats dims differ");
        assert_eq!(b.stats.variances.len(), dims, "block {i} stats dims differ");
    }
    w.write_all(MAGIC)?;
    w.write_all(&IVF_SENTINEL.to_le_bytes())?;
    w.write_all(&IVF_MINOR.to_le_bytes())?;
    w.write_all(&(dims as u32).to_le_bytes())?;
    w.write_all(&(group as u32).to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?; // flags
    w.write_all(&(blocks.len() as u32).to_le_bytes())?;
    for v in centroid_rows {
        w.write_all(&v.to_le_bytes())?;
    }
    let mut offset = ivf_header_end(false, dims, blocks.len()).expect("header size overflows u64");
    for b in blocks {
        let byte_len = ivf_f32_bucket_len(b.len(), dims).expect("bucket size overflows u64");
        w.write_all(&offset.to_le_bytes())?;
        w.write_all(&byte_len.to_le_bytes())?;
        w.write_all(&(b.len() as u32).to_le_bytes())?;
        offset += byte_len;
    }
    for b in blocks {
        for &id in &b.row_ids {
            w.write_all(&id.to_le_bytes())?;
        }
        for &m in &b.stats.means {
            w.write_all(&m.to_le_bytes())?;
        }
        for &v in &b.stats.variances {
            w.write_all(&v.to_le_bytes())?;
        }
        for v in b.pdx.as_slice() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// [`write_ivf_pdx`] to a file path.
///
/// # Errors
/// Propagates IO errors, with the path prepended.
pub fn write_ivf_pdx_path(
    path: &std::path::Path,
    dims: usize,
    centroid_rows: &[f32],
    blocks: &[SearchBlock],
) -> io::Result<()> {
    let with_path = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    let mut w = io::BufWriter::new(std::fs::File::create(path).map_err(with_path)?);
    write_ivf_pdx(&mut w, dims, centroid_rows, blocks).map_err(with_path)?;
    w.flush().map_err(with_path)
}

/// Serializes an SQ8 IVF deployment into the IVF-extended `PDX2`
/// format. Pass the original row-major vectors as `rows` for exact
/// rerank; `None` writes a scan-only container.
///
/// # Errors
/// Propagates IO errors from the writer.
///
/// # Panics
/// Panics under the same header-consistency rules as
/// [`write_ivf_pdx`], or if `rows` is not whole vectors.
pub fn write_ivf_sq8<W: Write>(
    mut w: W,
    quantizer: &Sq8Quantizer,
    centroid_rows: &[f32],
    blocks: &[Sq8Block],
    rows: Option<&[f32]>,
) -> io::Result<()> {
    let dims = quantizer.dims();
    assert!(dims > 0, "zero dims");
    assert_eq!(
        centroid_rows.len(),
        blocks.len() * dims,
        "one centroid row per bucket"
    );
    if let Some(rows) = rows {
        assert_eq!(rows.len() % dims, 0, "rows must be whole vectors");
    }
    let group = blocks
        .first()
        .map_or(pdx_core::DEFAULT_GROUP_SIZE, |b| b.codes.group_size());
    for (i, b) in blocks.iter().enumerate() {
        assert_eq!(b.codes.group_size(), group, "block {i} group size differs");
        assert_eq!(b.codes.dims(), dims, "block {i} dimensionality differs");
        assert_eq!(b.row_ids.len(), b.len(), "block {i} id count differs");
    }
    w.write_all(MAGIC_SQ8)?;
    w.write_all(&IVF_SENTINEL.to_le_bytes())?;
    w.write_all(&IVF_MINOR.to_le_bytes())?;
    w.write_all(&(dims as u32).to_le_bytes())?;
    w.write_all(&(group as u32).to_le_bytes())?;
    w.write_all(&(rows.is_some() as u32).to_le_bytes())?; // flags
    w.write_all(&(blocks.len() as u32).to_le_bytes())?;
    for &m in quantizer.mins() {
        w.write_all(&m.to_le_bytes())?;
    }
    for &s in quantizer.scales() {
        w.write_all(&s.to_le_bytes())?;
    }
    let header_end = ivf_header_end(true, dims, blocks.len()).expect("header size overflows u64");
    let bucket_bytes: u64 = blocks
        .iter()
        .map(|b| ivf_sq8_bucket_len(b.len(), dims).expect("bucket size overflows u64"))
        .sum();
    match rows {
        Some(rows) => {
            w.write_all(&((rows.len() / dims) as u64).to_le_bytes())?;
            w.write_all(&(header_end + bucket_bytes).to_le_bytes())?;
        }
        None => {
            w.write_all(&0u64.to_le_bytes())?;
            w.write_all(&0u64.to_le_bytes())?;
        }
    }
    for v in centroid_rows {
        w.write_all(&v.to_le_bytes())?;
    }
    let mut offset = header_end;
    for b in blocks {
        let byte_len = ivf_sq8_bucket_len(b.len(), dims).expect("bucket size overflows u64");
        w.write_all(&offset.to_le_bytes())?;
        w.write_all(&byte_len.to_le_bytes())?;
        w.write_all(&(b.len() as u32).to_le_bytes())?;
        offset += byte_len;
    }
    for b in blocks {
        for &id in &b.row_ids {
            w.write_all(&id.to_le_bytes())?;
        }
        w.write_all(b.codes.as_slice())?;
    }
    if let Some(rows) = rows {
        for v in rows {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// [`write_ivf_sq8`] to a file path.
///
/// # Errors
/// Propagates IO errors, with the path prepended.
pub fn write_ivf_sq8_path(
    path: &std::path::Path,
    quantizer: &Sq8Quantizer,
    centroid_rows: &[f32],
    blocks: &[Sq8Block],
    rows: Option<&[f32]>,
) -> io::Result<()> {
    let with_path = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    let mut w = io::BufWriter::new(std::fs::File::create(path).map_err(with_path)?);
    write_ivf_sq8(&mut w, quantizer, centroid_rows, blocks, rows).map_err(with_path)?;
    w.flush().map_err(with_path)
}

/// Parses an IVF header with the magic and sentinel already consumed.
/// Validates the bucket table — every entry's byte length must equal
/// what its vector count implies, and the records must sit contiguous
/// from the header end — so a corrupt table fails here with a typed
/// error instead of seeding giant allocations or misaligned reads.
fn read_ivf_header<R: Read>(r: &mut R, quantized: bool) -> io::Result<IvfMeta> {
    let minor = read_u32(r)?;
    if minor != IVF_MINOR {
        return Err(invalid(format!(
            "unsupported IVF container minor version {minor} (this build reads {IVF_MINOR})"
        )));
    }
    let dims = read_u32(r)? as usize;
    let group = read_u32(r)? as usize;
    let flags = read_u32(r)?;
    let n_buckets = read_u32(r)? as usize;
    if dims == 0 || group == 0 {
        return Err(invalid("zero dims or group size"));
    }
    let quantizer = if quantized {
        let mins = read_f32s_chunked(r, dims)?;
        let scales = read_f32s_chunked(r, dims)?;
        if mins.iter().any(|m| !m.is_finite()) {
            return Err(invalid("non-finite quantizer min"));
        }
        if scales.iter().any(|&s| s <= 0.0 || !s.is_finite()) {
            return Err(invalid("non-positive quantizer scale"));
        }
        Some(Sq8Quantizer::from_params(mins, scales))
    } else {
        None
    };
    let (n_rows, rows_offset) = if quantized {
        (read_u64(r)?, read_u64(r)?)
    } else {
        (0, 0)
    };
    let n_centroid_vals = n_buckets
        .checked_mul(dims)
        .ok_or_else(|| invalid("centroid count overflows"))?;
    let centroid_rows = read_f32s_chunked(r, n_centroid_vals)?;
    let header_end = ivf_header_end(quantized, dims, n_buckets)
        .ok_or_else(|| invalid("header size overflows"))?;
    let mut buckets = Vec::with_capacity(n_buckets.min(1 << 16));
    let mut expected_offset = header_end;
    for i in 0..n_buckets {
        let offset = read_u64(r)?;
        let byte_len = read_u64(r)?;
        let n_vectors = read_u32(r)?;
        let expect = if quantized {
            ivf_sq8_bucket_len(n_vectors as usize, dims)
        } else {
            ivf_f32_bucket_len(n_vectors as usize, dims)
        }
        .ok_or_else(|| invalid(format!("bucket {i}: record size overflows")))?;
        if byte_len != expect {
            return Err(invalid(format!(
                "bucket {i}: table byte length {byte_len} disagrees with \
                 {n_vectors} vectors × {dims} dims (expected {expect})"
            )));
        }
        if offset != expected_offset {
            return Err(invalid(format!(
                "bucket {i}: offset {offset} breaks record contiguity \
                 (expected {expected_offset})"
            )));
        }
        expected_offset = expected_offset
            .checked_add(byte_len)
            .ok_or_else(|| invalid(format!("bucket {i}: offset overflows")))?;
        buckets.push(IvfBucketEntry {
            offset,
            byte_len,
            n_vectors,
        });
    }
    if quantized {
        let has_rows = flags & 1 != 0;
        if has_rows {
            if rows_offset != expected_offset {
                return Err(invalid(format!(
                    "rerank payload offset {rows_offset} disagrees with the \
                     bucket records' end {expected_offset}"
                )));
            }
            n_rows
                .checked_mul(dims as u64)
                .and_then(|v| v.checked_mul(4))
                .and_then(|v| rows_offset.checked_add(v))
                .ok_or_else(|| invalid("rerank row count overflows"))?;
        } else if n_rows != 0 || rows_offset != 0 {
            return Err(invalid("rerank fields set without the rerank flag"));
        }
    }
    Ok(IvfMeta {
        quantized,
        dims,
        group,
        flags,
        centroid_rows,
        buckets,
        quantizer,
        n_rows,
        rows_offset,
    })
}

/// Reads only the IVF header of a container file — the O(header) cold
/// open behind lazy serving. Returns `Ok(None)` for a legacy (1.0) or
/// unrecognized file, leaving the caller to fall back to
/// [`read_container_path`].
///
/// Beyond the header reader's table validation, this checks every
/// bucket record (and the rerank payload) against the actual file
/// length, so a truncated container is rejected at open time rather
/// than failing mid-search.
///
/// # Errors
/// Propagates IO and format errors, with the path prepended.
pub fn read_ivf_meta_path(path: &std::path::Path) -> io::Result<Option<IvfMeta>> {
    let with_path = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    let file = std::fs::File::open(path).map_err(with_path)?;
    let file_len = file.metadata().map_err(with_path)?.len();
    let mut r = io::BufReader::new(file);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(with_path)?;
    let quantized = match &magic {
        m if m == MAGIC => false,
        m if m == MAGIC_SQ8 => true,
        _ => return Ok(None),
    };
    if read_u32(&mut r).map_err(with_path)? != IVF_SENTINEL {
        return Ok(None);
    }
    let meta = read_ivf_header(&mut r, quantized).map_err(with_path)?;
    for (i, e) in meta.buckets.iter().enumerate() {
        // Table arithmetic was overflow-checked above, so `offset +
        // byte_len` is exact; only the file can come up short.
        if e.offset + e.byte_len > file_len {
            return Err(with_path(invalid(format!(
                "bucket {i} extends to byte {} but the file has {file_len} \
                 (truncated container?)",
                e.offset + e.byte_len
            ))));
        }
    }
    if meta.quantized && meta.flags & 1 != 0 {
        let rows_end = meta.rows_offset + meta.n_rows * meta.dims as u64 * 4;
        if rows_end > file_len {
            return Err(with_path(invalid(format!(
                "rerank payload extends to byte {rows_end} but the file has \
                 {file_len} (truncated container?)"
            ))));
        }
    }
    Ok(Some(meta))
}

/// Decodes one `f32` IVF bucket record (the bytes at its table entry's
/// `offset..offset + byte_len`) into a [`SearchBlock`]. The stored
/// statistics are adopted verbatim — both the resident and the lazy
/// read paths go through here, which is what makes them bit-identical.
///
/// # Errors
/// Fails with `InvalidData` if the byte length disagrees with the
/// geometry.
pub fn decode_ivf_f32_bucket(
    bytes: &[u8],
    n: usize,
    dims: usize,
    group: usize,
) -> io::Result<SearchBlock> {
    let expect = ivf_f32_bucket_len(n, dims)
        .filter(|&b| usize::try_from(b).is_ok())
        .ok_or_else(|| invalid("bucket record size overflows"))?;
    if bytes.len() as u64 != expect {
        return Err(invalid(format!(
            "bucket record has {} bytes, expected {expect}",
            bytes.len()
        )));
    }
    let (ids_b, rest) = bytes.split_at(n * 8);
    let (means_b, rest) = rest.split_at(dims * 4);
    let (vars_b, data_b) = rest.split_at(dims * 4);
    let to_f32s = |b: &[u8]| -> Vec<f32> {
        b.chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    };
    let row_ids: Vec<u64> = ids_b
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    let pdx = PdxBlock::from_tiled(to_f32s(data_b), n, dims, group);
    Ok(SearchBlock {
        pdx,
        row_ids,
        stats: BlockStats {
            means: to_f32s(means_b),
            variances: to_f32s(vars_b),
        },
        aux: None,
    })
}

/// Decodes one SQ8 IVF bucket record into an [`Sq8Block`] (see
/// [`decode_ivf_f32_bucket`]).
///
/// # Errors
/// Fails with `InvalidData` if the byte length disagrees with the
/// geometry.
pub fn decode_ivf_sq8_bucket(
    bytes: &[u8],
    n: usize,
    dims: usize,
    group: usize,
) -> io::Result<Sq8Block> {
    let expect = ivf_sq8_bucket_len(n, dims)
        .filter(|&b| usize::try_from(b).is_ok())
        .ok_or_else(|| invalid("bucket record size overflows"))?;
    if bytes.len() as u64 != expect {
        return Err(invalid(format!(
            "bucket record has {} bytes, expected {expect}",
            bytes.len()
        )));
    }
    let (ids_b, codes_b) = bytes.split_at(n * 8);
    let row_ids: Vec<u64> = ids_b
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    let codes = QuantizedPdxBlock::from_tiled(codes_b.to_vec(), n, dims, group);
    Ok(Sq8Block { codes, row_ids })
}

/// An IVF-extended `f32` container, fully resident.
#[derive(Debug, Clone)]
pub struct IvfF32Container {
    /// Dimensionality.
    pub dims: usize,
    /// PDX group size of the bucket blocks.
    pub group: usize,
    /// Row-major centroid vectors, one per bucket.
    pub centroid_rows: Vec<f32>,
    /// The bucket blocks, in bucket order.
    pub blocks: Vec<SearchBlock>,
}

/// An IVF-extended SQ8 container, fully resident.
#[derive(Debug, Clone)]
pub struct IvfSq8Container {
    /// Dimensionality.
    pub dims: usize,
    /// PDX group size of the bucket blocks.
    pub group: usize,
    /// The per-dimension codec.
    pub quantizer: Sq8Quantizer,
    /// Row-major centroid vectors, one per bucket.
    pub centroid_rows: Vec<f32>,
    /// The quantized bucket blocks, in bucket order.
    pub blocks: Vec<Sq8Block>,
    /// Row-major `f32` rerank payload by global id (empty when absent).
    pub rows: Vec<f32>,
}

/// Reads an IVF-extended `PDX1` body (magic and sentinel consumed):
/// the fully resident path of [`read_container`].
fn read_ivf_f32_body<R: Read>(mut r: R) -> io::Result<IvfF32Container> {
    let meta = read_ivf_header(&mut r, false)?;
    let mut id_check = RowIdCheck::default();
    let mut blocks = Vec::with_capacity(meta.buckets.len());
    for e in &meta.buckets {
        // Contiguity was validated, so streaming reads line up with the
        // table offsets.
        let bytes = read_bytes_chunked(&mut r, e.byte_len)?;
        let block = decode_ivf_f32_bucket(&bytes, e.n_vectors as usize, meta.dims, meta.group)?;
        for &id in &block.row_ids {
            id_check.insert(id)?;
        }
        blocks.push(block);
    }
    Ok(IvfF32Container {
        dims: meta.dims,
        group: meta.group,
        centroid_rows: meta.centroid_rows,
        blocks,
    })
}

/// Reads an IVF-extended `PDX2` body (magic and sentinel consumed).
fn read_ivf_sq8_body<R: Read>(mut r: R) -> io::Result<IvfSq8Container> {
    let meta = read_ivf_header(&mut r, true)?;
    let quantizer = meta.quantizer.clone().expect("quantized header");
    let mut id_check = RowIdCheck::default();
    let mut blocks = Vec::with_capacity(meta.buckets.len());
    for e in &meta.buckets {
        let bytes = read_bytes_chunked(&mut r, e.byte_len)?;
        let block = decode_ivf_sq8_bucket(&bytes, e.n_vectors as usize, meta.dims, meta.group)?;
        for &id in &block.row_ids {
            id_check.insert(id)?;
        }
        blocks.push(block);
    }
    let rows = if meta.flags & 1 != 0 {
        let n_values = usize::try_from(meta.n_rows)
            .ok()
            .and_then(|n| n.checked_mul(meta.dims))
            .ok_or_else(|| invalid("rerank row count overflows"))?;
        let rows = read_f32s_chunked(&mut r, n_values)?;
        for block in &blocks {
            if block.row_ids.iter().any(|&id| id >= meta.n_rows) {
                return Err(invalid("block row id exceeds rerank payload"));
            }
        }
        rows
    } else {
        Vec::new()
    };
    Ok(IvfSq8Container {
        dims: meta.dims,
        group: meta.group,
        quantizer,
        centroid_rows: meta.centroid_rows,
        blocks,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_collection() -> PdxCollection {
        let n = 137;
        let d = 9;
        let rows: Vec<f32> = (0..n * d).map(|i| (i as f32 * 0.37).sin() * 5.0).collect();
        PdxCollection::from_rows_partitioned(&rows, n, d, 50, 16)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let coll = sample_collection();
        let mut buf = Vec::new();
        write_pdx(&mut buf, &coll).unwrap();
        let back = read_pdx(&buf[..]).unwrap();
        assert_eq!(back.dims, coll.dims);
        assert_eq!(back.blocks.len(), coll.blocks.len());
        for (a, b) in coll.blocks.iter().zip(&back.blocks) {
            assert_eq!(a.row_ids, b.row_ids);
            assert_eq!(a.pdx, b.pdx);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_pdx(&b"NOPE"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_file_errors() {
        let coll = sample_collection();
        let mut buf = Vec::new();
        write_pdx(&mut buf, &coll).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_pdx(&buf[..]).is_err());
    }

    #[test]
    fn file_round_trip() {
        let coll = sample_collection();
        let dir = std::env::temp_dir().join("pdx_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("coll.pdx");
        write_pdx_path(&path, &coll).unwrap();
        let back = read_pdx_path(&path).unwrap();
        assert_eq!(back.blocks[0].pdx, coll.blocks[0].pdx);
        std::fs::remove_file(&path).ok();
    }

    fn sample_sq8() -> (Sq8Quantizer, Vec<Sq8Block>, Vec<f32>) {
        let n = 90;
        let d = 7;
        let rows: Vec<f32> = (0..n * d).map(|i| (i as f32 * 0.53).sin() * 3.0).collect();
        let quantizer = Sq8Quantizer::fit(&rows, n, d);
        let mut blocks = Vec::new();
        let mut v0 = 0usize;
        while v0 < n {
            let here = 40.min(n - v0);
            let ids: Vec<u64> = (v0 as u64..(v0 + here) as u64).collect();
            blocks.push(Sq8Block::new(
                &rows[v0 * d..(v0 + here) * d],
                ids,
                d,
                16,
                &quantizer,
            ));
            v0 += here;
        }
        (quantizer, blocks, rows)
    }

    #[test]
    fn sq8_round_trip_preserves_everything() {
        let (quantizer, blocks, rows) = sample_sq8();
        let mut buf = Vec::new();
        write_sq8(&mut buf, &quantizer, &blocks, Some(&rows)).unwrap();
        let back = read_sq8(&buf[..]).unwrap();
        assert_eq!(back.dims, 7);
        assert_eq!(back.group, 16);
        assert_eq!(back.quantizer, quantizer);
        assert_eq!(back.blocks, blocks);
        assert_eq!(back.rows, rows);
    }

    #[test]
    fn sq8_scan_only_container_has_no_rows() {
        let (quantizer, blocks, _) = sample_sq8();
        let mut buf = Vec::new();
        write_sq8(&mut buf, &quantizer, &blocks, None).unwrap();
        let back = read_sq8(&buf[..]).unwrap();
        assert!(back.rows.is_empty());
        assert_eq!(back.blocks, blocks);
    }

    #[test]
    fn container_sniffing_dispatches_on_magic() {
        let coll = sample_collection();
        let mut f32_buf = Vec::new();
        write_pdx(&mut f32_buf, &coll).unwrap();
        assert!(matches!(
            read_container(&f32_buf[..]).unwrap(),
            Container::F32(_)
        ));
        let (quantizer, blocks, rows) = sample_sq8();
        let mut sq8_buf = Vec::new();
        write_sq8(&mut sq8_buf, &quantizer, &blocks, Some(&rows)).unwrap();
        assert!(matches!(
            read_container(&sq8_buf[..]).unwrap(),
            Container::Sq8(_)
        ));
        assert!(read_container(&b"XXXXrest"[..]).is_err());
    }

    #[test]
    fn duplicate_row_ids_are_rejected_on_read() {
        // PDX1: rewrite one block's first id to collide with another.
        let coll = sample_collection();
        let mut buf = Vec::new();
        write_pdx(&mut buf, &coll).unwrap();
        // First block header: magic(4) + dims/group/n_blocks(12) +
        // n_vectors(4); its first two ids follow back to back.
        let first_id_at = 4 + 12 + 4;
        let dup = buf[first_id_at..first_id_at + 8].to_vec();
        buf[first_id_at + 8..first_id_at + 16].copy_from_slice(&dup);
        let err = read_pdx(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("duplicate row id"), "{err}");

        // PDX2: same surgery after the header + quantizer params.
        let (quantizer, blocks, _) = sample_sq8();
        let mut buf = Vec::new();
        write_sq8(&mut buf, &quantizer, &blocks, None).unwrap();
        let first_id_at = 4 + 16 + 7 * 4 * 2 + 4;
        let dup = buf[first_id_at..first_id_at + 8].to_vec();
        buf[first_id_at + 8..first_id_at + 16].copy_from_slice(&dup);
        let err = read_sq8(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("duplicate row id"), "{err}");
    }

    #[test]
    fn unknown_magic_error_names_the_bytes() {
        let err = read_container(&b"XXXXrest"[..]).unwrap_err();
        assert!(err.to_string().contains("XXXX"), "{err}");
    }

    #[test]
    fn sq8_truncated_file_errors() {
        let (quantizer, blocks, rows) = sample_sq8();
        let mut buf = Vec::new();
        write_sq8(&mut buf, &quantizer, &blocks, Some(&rows)).unwrap();
        buf.truncate(buf.len() / 3);
        assert!(read_sq8(&buf[..]).is_err());
    }

    #[test]
    #[should_panic(expected = "group size differs")]
    fn sq8_heterogeneous_group_sizes_refuse_to_serialize() {
        let (quantizer, mut blocks, _) = sample_sq8();
        let rows: Vec<f32> = (0..7).map(|i| i as f32).collect();
        blocks.push(Sq8Block::new(&rows, vec![1000], 7, 8, &quantizer));
        let _ = write_sq8(&mut Vec::new(), &quantizer, &blocks, None);
    }

    #[test]
    fn sq8_corrupt_quantizer_params_error_cleanly() {
        let (quantizer, blocks, _) = sample_sq8();
        let mut buf = Vec::new();
        write_sq8(&mut buf, &quantizer, &blocks, None).unwrap();
        // The mins array starts right after the 20-byte header.
        let mut bad = buf.clone();
        bad[20..24].copy_from_slice(&f32::NAN.to_le_bytes());
        assert_eq!(
            read_sq8(&bad[..]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // A zero scale (first scale follows the 7 mins) is also rejected.
        let mut bad = buf.clone();
        bad[20 + 7 * 4..24 + 7 * 4].copy_from_slice(&0.0f32.to_le_bytes());
        assert_eq!(
            read_sq8(&bad[..]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn sq8_corrupt_row_count_errors_cleanly() {
        let (quantizer, blocks, rows) = sample_sq8();
        let mut buf = Vec::new();
        write_sq8(&mut buf, &quantizer, &blocks, Some(&rows)).unwrap();
        // Overwrite the trailing n_rows field with an absurd count.
        let rows_bytes = rows.len() * 4;
        let n_rows_at = buf.len() - rows_bytes - 8;
        buf[n_rows_at..n_rows_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_sq8(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A merely-too-small count (ids now out of range) also fails.
        buf[n_rows_at..n_rows_at + 8].copy_from_slice(&1u64.to_le_bytes());
        buf.truncate(n_rows_at + 8 + 7 * 4);
        let err = read_sq8(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn sq8_file_round_trip_searches_match() {
        use pdx_core::engine::SearchOptions;
        use pdx_core::search::quantized::sq8_two_phase;
        let (quantizer, blocks, rows) = sample_sq8();
        let dir = std::env::temp_dir().join("pdx_persist_sq8_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("coll.pdx2");
        write_sq8_path(&path, &quantizer, &blocks, Some(&rows)).unwrap();
        let back = read_sq8_path(&path).unwrap();
        let q: Vec<f32> = (0..7).map(|i| i as f32 * 0.3).collect();
        let opts = SearchOptions::new(5);
        let a = sq8_two_phase(&quantizer, &blocks, &rows, &q, &opts, None);
        let b = sq8_two_phase(&back.quantizer, &back.blocks, &back.rows, &q, &opts, None);
        assert_eq!(a, b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn searches_on_reloaded_collection_match() {
        use pdx_core::bond::PdxBond;
        use pdx_core::distance::Metric;
        use pdx_core::engine::SearchOptions;
        use pdx_core::pruning::Pruner;
        use pdx_core::search::pdxearch;
        use pdx_core::visit_order::VisitOrder;
        let coll = sample_collection();
        let mut buf = Vec::new();
        write_pdx(&mut buf, &coll).unwrap();
        let back = read_pdx(&buf[..]).unwrap();
        let q: Vec<f32> = (0..coll.dims).map(|i| i as f32 * 0.2).collect();
        let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
        let (q, opts) = (bond.prepare_query(&q), SearchOptions::new(5));
        let a = pdxearch(&bond, &q, &coll.blocks, &opts, None);
        let b = pdxearch(&bond, &q, &back.blocks, &opts, None);
        assert_eq!(a, b);
    }

    fn sample_ivf_f32() -> (usize, Vec<f32>, Vec<SearchBlock>) {
        let d = 9;
        let mut blocks = Vec::new();
        let mut centroid_rows = Vec::new();
        let mut next_id = 0u64;
        for b in 0..5usize {
            let n = 20 + b * 7;
            let rows: Vec<f32> = (0..n * d)
                .map(|i| ((i + b * 101) as f32 * 0.41).sin() * 4.0)
                .collect();
            let ids: Vec<u64> = (next_id..next_id + n as u64).collect();
            next_id += n as u64;
            for dim in 0..d {
                let sum: f32 = rows.iter().skip(dim).step_by(d).sum();
                centroid_rows.push(sum / n as f32);
            }
            blocks.push(SearchBlock::new(&rows, ids, d, 16));
        }
        (d, centroid_rows, blocks)
    }

    #[test]
    fn ivf_f32_round_trip_preserves_everything() {
        let (d, centroids, blocks) = sample_ivf_f32();
        let mut buf = Vec::new();
        write_ivf_pdx(&mut buf, d, &centroids, &blocks).unwrap();
        let back = match read_container(&buf[..]).unwrap() {
            Container::IvfF32(c) => c,
            other => panic!("wrong container variant: {other:?}"),
        };
        assert_eq!(back.dims, d);
        assert_eq!(back.group, 16);
        assert_eq!(back.centroid_rows, centroids);
        assert_eq!(back.blocks.len(), blocks.len());
        for (a, b) in blocks.iter().zip(&back.blocks) {
            assert_eq!(a.row_ids, b.row_ids);
            assert_eq!(a.pdx, b.pdx);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn ivf_meta_sniff_is_header_only_and_matches() {
        let (d, centroids, blocks) = sample_ivf_f32();
        let dir = std::env::temp_dir().join("pdx_persist_ivf_meta");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.pdx");
        write_ivf_pdx_path(&path, d, &centroids, &blocks).unwrap();
        let meta = read_ivf_meta_path(&path).unwrap().expect("ivf container");
        assert!(!meta.quantized);
        assert_eq!(meta.dims, d);
        assert_eq!(meta.centroid_rows, centroids);
        assert_eq!(meta.buckets.len(), blocks.len());
        for (e, b) in meta.buckets.iter().zip(&blocks) {
            assert_eq!(e.n_vectors as usize, b.len());
        }
        // Decoding a bucket from the table entry reproduces the block.
        let bytes = std::fs::read(&path).unwrap();
        let e = meta.buckets[2];
        let block = decode_ivf_f32_bucket(
            &bytes[e.offset as usize..(e.offset + e.byte_len) as usize],
            e.n_vectors as usize,
            meta.dims,
            meta.group,
        )
        .unwrap();
        assert_eq!(block.row_ids, blocks[2].row_ids);
        assert_eq!(block.pdx, blocks[2].pdx);
        assert_eq!(block.stats, blocks[2].stats);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ivf_meta_sniff_returns_none_for_legacy_files() {
        let coll = sample_collection();
        let dir = std::env::temp_dir().join("pdx_persist_ivf_legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.pdx");
        write_pdx_path(&path, &coll).unwrap();
        assert!(read_ivf_meta_path(&path).unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ivf_truncated_file_is_rejected_at_open() {
        let (d, centroids, blocks) = sample_ivf_f32();
        let mut buf = Vec::new();
        write_ivf_pdx(&mut buf, d, &centroids, &blocks).unwrap();
        buf.truncate(buf.len() - 10);
        let dir = std::env::temp_dir().join("pdx_persist_ivf_trunc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pdx");
        std::fs::write(&path, &buf).unwrap();
        let err = read_ivf_meta_path(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ivf_corrupt_bucket_table_errors_without_overallocation() {
        let (d, centroids, blocks) = sample_ivf_f32();
        let mut buf = Vec::new();
        write_ivf_pdx(&mut buf, d, &centroids, &blocks).unwrap();
        // First table entry starts after the fixed header + centroids.
        let table_at = (IVF_FIXED_HEADER as usize) + centroids.len() * 4;
        // Claim an absurd vector count: byte_len no longer matches.
        let mut evil = buf.clone();
        evil[table_at + 16..table_at + 20].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_container(&evil[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("disagrees"), "{err}");
        // Break record contiguity: bogus offset.
        let mut evil = buf.clone();
        evil[table_at..table_at + 8].copy_from_slice(&7u64.to_le_bytes());
        let err = read_container(&evil[..]).unwrap_err();
        assert!(err.to_string().contains("contiguity"), "{err}");
        // Unknown minor version.
        let mut evil = buf;
        evil[8..12].copy_from_slice(&9u32.to_le_bytes());
        let err = read_container(&evil[..]).unwrap_err();
        assert!(err.to_string().contains("minor version"), "{err}");
    }

    #[test]
    fn ivf_duplicate_ids_across_buckets_are_rejected() {
        let (d, centroids, mut blocks) = sample_ivf_f32();
        blocks[1].row_ids[0] = blocks[0].row_ids[0];
        let mut buf = Vec::new();
        write_ivf_pdx(&mut buf, d, &centroids, &blocks).unwrap();
        let err = read_container(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("duplicate row id"), "{err}");
    }

    #[test]
    fn ivf_sq8_round_trip_preserves_everything() {
        let (quantizer, blocks, rows) = sample_sq8();
        let d = quantizer.dims();
        let nb = blocks.len();
        let centroids: Vec<f32> = (0..nb * d).map(|i| i as f32 * 0.1).collect();
        let mut buf = Vec::new();
        write_ivf_sq8(&mut buf, &quantizer, &centroids, &blocks, Some(&rows)).unwrap();
        let back = match read_container(&buf[..]).unwrap() {
            Container::IvfSq8(c) => c,
            other => panic!("wrong container variant: {other:?}"),
        };
        assert_eq!(back.dims, d);
        assert_eq!(back.quantizer, quantizer);
        assert_eq!(back.centroid_rows, centroids);
        assert_eq!(back.blocks, blocks);
        assert_eq!(back.rows, rows);
        // Scan-only variant drops the rerank payload.
        let mut buf = Vec::new();
        write_ivf_sq8(&mut buf, &quantizer, &centroids, &blocks, None).unwrap();
        let back = match read_container(&buf[..]).unwrap() {
            Container::IvfSq8(c) => c,
            other => panic!("wrong container variant: {other:?}"),
        };
        assert!(back.rows.is_empty());
        // And the sniffer sees the quantized header.
        let dir = std::env::temp_dir().join("pdx_persist_ivf_sq8");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.pdx2");
        write_ivf_sq8_path(&path, &quantizer, &centroids, &blocks, Some(&rows)).unwrap();
        let meta = read_ivf_meta_path(&path).unwrap().expect("ivf container");
        assert!(meta.quantized);
        assert_eq!(meta.n_rows as usize * d, rows.len());
        assert_eq!(meta.quantizer.as_ref(), Some(&quantizer));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_readers_reject_ivf_containers_with_guidance() {
        let (d, centroids, blocks) = sample_ivf_f32();
        let mut buf = Vec::new();
        write_ivf_pdx(&mut buf, d, &centroids, &blocks).unwrap();
        let err = read_pdx(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("read_container"), "{err}");
    }
}
