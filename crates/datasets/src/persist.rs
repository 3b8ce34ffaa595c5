//! On-disk persistence of PDX collections (§7 "PDX Storage Designs").
//!
//! The paper points out that PDX needs data loadable block- and
//! dimension-at-a-time. This module provides compact binary containers
//! with a versioned magic number:
//!
//! * **`PDX1`** — `f32` blocks ([`F32Container`]): a header, then per
//!   block its row ids and its dimension-major payload, so a reader can
//!   fetch one block without touching the rest of the file.
//! * **`PDX2`** — SQ8-quantized blocks ([`Sq8Container`]): the same
//!   block structure with one *byte* per value, preceded by the
//!   per-dimension min/scale and the codec's storage order, and followed
//!   by an optional row-major `f32` rerank payload — hot scan data
//!   first, cold rerank data last.
//!
//! [`read_container`] sniffs the magic and returns whichever kind the
//! file holds. This module doc is the byte-level specification; every
//! dialect below is read by one header parser and one block-record codec
//! per element type, and written by one writer.
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
//! dims   u32 | group  u32 | n_blocks u32 | flags u32
//!        (bit 0: rerank rows; bit 1: storage order)
//! mins   dims × f32 | scales dims × f32  (by row dimension)
//! if flags bit 1:
//!   order dims × u32                    (storage position → dimension)
//! per block:
//!   n_vectors u32
//!   row_ids   n_vectors × u64
//!   codes     n_vectors × dims × u8    (PDX group-tiled, storage order)
//! if flags bit 0:
//!   n_rows u64
//!   rows   n_rows × dims × f32          (row-major, by global id)
//! ```
//!
//! The **storage order** is the codec's dimension permutation
//! ([`Sq8Quantizer::order`]): code position `s` of every block holds
//! row dimension `order[s]`. It must be a permutation of `0..dims`. A
//! file with bit 1 clear — every `PDX2` written before the order
//! existed — reads as the identity permutation and scans exactly as it
//! did then. The writer always sets bit 1.
//!
//! ## IVF-extended containers (minor version 1.1)
//!
//! Both magics have an **IVF-extended** variant for out-of-core
//! serving: the u32 after the magic is the sentinel `0xFFFF_FFFF`
//! (impossible as a legacy `dims`, so 1.0 files stay readable), and the
//! header then carries everything a router needs — the bucket
//! centroids and a per-bucket `{offset, byte_len, n_vectors}` table —
//! so [`read_header_path`] can open a container in O(header) time
//! and a lazy reader can `seek`+`read` exactly the buckets a query
//! probes:
//!
//! ```text
//! magic    "PDX1" or "PDX2"       4 bytes
//! sentinel u32 = 0xFFFF_FFFF  | minor u32 = 1
//! dims     u32 | group u32 | flags u32 | n_buckets u32
//! PDX2 only: mins dims × f32 | scales dims × f32
//! PDX2 with flags bit 1: order dims × u32
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
//!
//! ## The allocation rule
//!
//! Every count above (`dims`, `n_blocks`, `n_vectors`, `n_rows`, the
//! bucket table) is untrusted, and every container is decoded from a
//! source whose length is known — a byte slice ([`read_container`]), a
//! file by its metadata ([`read_container_path`], [`read_header_path`])
//! or a bucket's window of one ([`read_f32_bucket`]) — so there is one
//! decode path. Row ids, statistics, codec parameters and rerank rows
//! become buffers only through [`pdx_core::codec::read_vec`], which
//! checks a count against the bytes the source still has. The block
//! payloads are read straight into one payload arena ([`PayloadWriter`])
//! whose capacity is capped by those bytes, and a record that would
//! overrun it fails before any of its payload is read. A 1.1 bucket
//! table is checked against the length before any record is. The block
//! list grows by one per record actually decoded. A header that lies
//! fails with `InvalidData` naming the field, having reserved at most
//! twice the bytes really present. No file reader reads the file whole.

use pdx_core::codec::{
    invalid, put_slice, put_u32, put_u64, read_vec, write_slice, ByteReader, Le, Source, Stream,
};
use pdx_core::collection::{PdxCollection, SearchBlock};
use pdx_core::kernels::lanes::Stored;
use pdx_core::layout::{PayloadWriter, PdxBlock, Sq8Quantizer};
use pdx_core::search::quantized::Sq8Block;
use pdx_core::stats::BlockStats;
use std::io::{self, Write};
use std::path::Path;

const MAGIC_F32: &[u8; 4] = b"PDX1";
const MAGIC_SQ8: &[u8; 4] = b"PDX2";

/// `PDX2` flags: a rerank payload follows the blocks.
const FLAG_RERANK_ROWS: u32 = 1;
/// `PDX2` flags: the codec's storage order follows the scales.
const FLAG_ORDER: u32 = 2;

/// The u32 following the magic that marks an IVF-extended container.
/// Legacy (1.0) files store `dims` there, which the readers require to
/// be non-zero and far below this value — so the sentinel can never be
/// mistaken for a dimensionality.
const IVF_SENTINEL: u32 = u32::MAX;

/// Container format minor version written by the IVF writers.
const IVF_MINOR: u32 = 1;

/// Fixed bytes before the variable header sections of a 1.1 container:
/// magic, sentinel, minor, dims, group, flags, n_buckets.
const IVF_FIXED_HEADER: u64 = 4 + 6 * 4;

/// Prefixes an error with its file, so a caller behind `AnyIndex::open`
/// never reports a bare "truncated dims" with no file to blame.
fn with_path(path: &Path) -> impl Fn(io::Error) -> io::Error + '_ {
    move |e| io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

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

/// Everything a container holds ahead of its first block record, for
/// either magic and either minor version. Reading it touches no block,
/// which is what makes cold opens independent of the corpus size.
#[derive(Debug, Clone)]
pub struct ContainerHeader {
    /// Dimensionality.
    pub dims: usize,
    /// PDX group size of the blocks.
    pub group: usize,
    /// Format flags (`PDX2` bit 0: rerank rows present; bit 1: storage
    /// order present).
    pub flags: u32,
    /// Number of block records.
    pub n_blocks: usize,
    /// The codec of a quantized (`PDX2`) container.
    pub quantizer: Option<Sq8Quantizer>,
    /// Row-major centroids, one per bucket: `Some` exactly when the
    /// container is IVF-extended (1.1).
    pub centroid_rows: Option<Vec<f32>>,
    /// Per-bucket offset/length table of a 1.1 container (else empty).
    pub buckets: Vec<IvfBucketEntry>,
    /// Number of rerank rows a 1.1 header announces (else 0).
    pub n_rows: u64,
}

/// A `PDX1` container, fully resident.
#[derive(Debug, Clone)]
pub struct F32Container {
    /// Dimensionality.
    pub dims: usize,
    /// Group size the blocks were tiled with.
    pub group: usize,
    /// The blocks, in storage order.
    pub blocks: Vec<SearchBlock>,
    /// Row-major centroids, one per block, when the container is
    /// IVF-extended (the blocks are then buckets).
    pub centroid_rows: Option<Vec<f32>>,
}

/// A `PDX2` container, fully resident.
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
    /// Row-major centroids, one per block, when the container is
    /// IVF-extended (the blocks are then buckets).
    pub centroid_rows: Option<Vec<f32>>,
}

/// Either kind of on-disk container, as sniffed by [`read_container`].
#[derive(Debug, Clone)]
pub enum Container {
    /// `f32` blocks (`PDX1`), flat or IVF-extended.
    F32(F32Container),
    /// SQ8-quantized blocks (`PDX2`), flat or IVF-extended.
    Sq8(Sq8Container),
}

/// End of a 1.1 header (= offset of the first bucket record); `flags`
/// of a `PDX2`, `None` for a `PDX1`. The operands are `u32` header
/// words, so `u128` cannot overflow.
fn ivf_header_end(flags: Option<u32>, dims: usize, n_buckets: usize) -> Option<u64> {
    let (d, n) = (dims as u128, n_buckets as u128);
    // mins + scales + [order] + n_rows + rows_offset
    let quant = match flags {
        Some(f) if f & FLAG_ORDER != 0 => 12 * d + 16,
        Some(_) => 8 * d + 16,
        None => 0,
    };
    u64::try_from(u128::from(IVF_FIXED_HEADER) + quant + 4 * n * d + 20 * n).ok()
}

/// The block-record codec of one element type: the same record shape
/// sits in a 1.0 body (after an inline `n_vectors`), in a 1.1 body and
/// behind a lazy reader's `pread`, and goes through here in all three.
/// A record is read in two parts: its head (everything before the
/// payload) by [`Record::read_head`], then its payload straight into
/// the next block of the container's arena ([`read_records`]).
trait Record: Sized {
    /// The stored element of the payload.
    type Elem: Stored + Le;
    /// The record without its payload.
    type Head;
    fn group_size(&self) -> usize;
    fn row_ids(&self) -> &[u64];
    /// Panics unless block `i` matches what the header will say.
    fn check(&self, i: usize, dims: usize, group: usize, ivf: bool);
    /// Byte length of a 1.1 record of `n` vectors (`None` on overflow).
    fn ivf_len(n: u32, dims: usize) -> Option<u64>;
    /// Decodes the head of a record of `n` vectors of the container `h`
    /// describes.
    fn read_head<S: Source>(src: &mut S, n: usize, h: &ContainerHeader) -> io::Result<Self::Head>;
    /// Joins a head with its payload block.
    fn assemble(head: Self::Head, payload: PdxBlock<Self::Elem>) -> Self;
    fn write(&self, w: &mut impl Write, ivf: bool) -> io::Result<()>;
}

fn record_values(n: usize, dims: usize) -> io::Result<usize> {
    n.checked_mul(dims)
        .ok_or_else(|| invalid(format!("n_vectors {n} × dims {dims} overflows")))
}

/// `row_ids n × u64 | [means, variances dims × f32 each] | data n × dims
/// × f32`. A 1.1 record stores its statistics and they are adopted
/// verbatim; a 1.0 record re-derives them from the data.
impl Record for SearchBlock {
    type Elem = f32;
    type Head = (Vec<u64>, Option<BlockStats>);

    fn group_size(&self) -> usize {
        self.pdx.group_size()
    }

    fn row_ids(&self) -> &[u64] {
        &self.row_ids
    }

    fn check(&self, i: usize, dims: usize, group: usize, ivf: bool) {
        assert_eq!(self.group_size(), group, "block {i} group size differs");
        assert_eq!(self.pdx.dims(), dims, "block {i} dimensionality differs");
        assert_eq!(self.row_ids.len(), self.len(), "block {i} id count differs");
        if ivf {
            let stats = [self.stats.means.len(), self.stats.variances.len()];
            assert_eq!(stats, [dims; 2], "block {i} stats dims differ");
        }
    }

    fn ivf_len(n: u32, dims: usize) -> Option<u64> {
        let (n, d) = (u128::from(n), dims as u128);
        u64::try_from(8 * n + 4 * (2 * d + n * d)).ok()
    }

    fn read_head<S: Source>(src: &mut S, n: usize, h: &ContainerHeader) -> io::Result<Self::Head> {
        let row_ids = read_vec(src, n, "n_vectors (row ids)")?;
        let stored = if h.centroid_rows.is_some() {
            Some(BlockStats {
                means: read_vec(src, h.dims, "dims (block means)")?,
                variances: read_vec(src, h.dims, "dims (block variances)")?,
            })
        } else {
            None
        };
        Ok((row_ids, stored))
    }

    fn assemble((row_ids, stored): Self::Head, pdx: PdxBlock) -> Self {
        SearchBlock {
            stats: stored.unwrap_or_else(|| BlockStats::from_block(&pdx)),
            pdx,
            row_ids,
            aux: None,
        }
    }

    fn write(&self, w: &mut impl Write, ivf: bool) -> io::Result<()> {
        write_slice(w, &self.row_ids)?;
        if ivf {
            write_slice(w, &self.stats.means)?;
            write_slice(w, &self.stats.variances)?;
        }
        write_slice(w, self.pdx.as_slice())
    }
}

/// `row_ids n × u64 | codes n × dims × u8`; any byte is a valid code.
impl Record for Sq8Block {
    type Elem = u8;
    type Head = Vec<u64>;

    fn group_size(&self) -> usize {
        self.codes.group_size()
    }

    fn row_ids(&self) -> &[u64] {
        &self.row_ids
    }

    fn check(&self, i: usize, dims: usize, group: usize, _ivf: bool) {
        assert_eq!(self.group_size(), group, "block {i} group size differs");
        assert_eq!(self.codes.dims(), dims, "block {i} dimensionality differs");
        assert_eq!(self.row_ids.len(), self.len(), "block {i} id count differs");
    }

    fn ivf_len(n: u32, dims: usize) -> Option<u64> {
        u64::try_from(u128::from(n) * (8 + dims as u128)).ok()
    }

    fn read_head<S: Source>(src: &mut S, n: usize, h: &ContainerHeader) -> io::Result<Self::Head> {
        if h.quantizer.is_none() {
            return Err(invalid("SQ8 blocks in a container without a codec"));
        }
        read_vec(src, n, "n_vectors (row ids)")
    }

    fn assemble(row_ids: Self::Head, codes: PdxBlock<u8>) -> Self {
        Sq8Block { codes, row_ids }
    }

    fn write(&self, w: &mut impl Write, _ivf: bool) -> io::Result<()> {
        write_slice(w, &self.row_ids)?;
        w.write_all(self.codes.as_slice())
    }
}

/// Decodes bucket `bucket` of the `PDX1` 1.1 container `h` describes
/// from `src`, the window of the file its table entry names — with the
/// codec the resident reader uses, which is what makes the two
/// bit-identical.
///
/// # Errors
/// `InvalidData` if the record exceeds the window or `src` does not know
/// its length; IO errors propagate.
pub fn read_f32_bucket<S: Source>(
    src: &mut S,
    h: &ContainerHeader,
    bucket: usize,
) -> io::Result<SearchBlock> {
    let n = h.buckets[bucket].n_vectors;
    let capacity = payload_capacity::<f32, S>(src, n as u64 * h.dims as u64)?;
    let mut block = read_records(src, h, 1, capacity, |_, _| Ok(n))?;
    Ok(block.pop().expect("one bucket"))
}

/// The one writer behind all four dialects: `quantizer` selects the
/// magic, `centroid_rows` the minor version.
///
/// # Panics
/// Panics if the blocks disagree among themselves (group size,
/// dimensionality) — the header stores those once and the reader
/// de-tiles every block with them, so a mismatched block would
/// round-trip silently permuted — or if `centroid_rows` / `rows` are not
/// one centroid per block / whole vectors.
fn write_container<B: Record>(
    w: &mut impl Write,
    dims: usize,
    quantizer: Option<&Sq8Quantizer>,
    centroid_rows: Option<&[f32]>,
    blocks: &[B],
    rows: Option<&[f32]>,
) -> io::Result<()> {
    let ivf = centroid_rows.is_some();
    if let Some(centroids) = centroid_rows {
        assert!(dims > 0, "zero dims");
        let want = blocks.len() * dims;
        assert_eq!(centroids.len(), want, "one centroid row per bucket");
    }
    if let Some(rows) = rows {
        assert_eq!(rows.len() % dims.max(1), 0, "rows must be whole vectors");
    }
    let group = blocks
        .first()
        .map_or(pdx_core::DEFAULT_GROUP_SIZE, B::group_size);
    for (i, b) in blocks.iter().enumerate() {
        b.check(i, dims, group, ivf);
    }
    let n_vectors = |b: &B| b.row_ids().len() as u32;
    let n_rows = rows.map_or(0, |r| (r.len() / dims.max(1)) as u64);
    let flags = match quantizer {
        Some(_) => FLAG_ORDER | if rows.is_some() { FLAG_RERANK_ROWS } else { 0 },
        None => 0,
    };

    let mut head = if quantizer.is_some() {
        MAGIC_SQ8.to_vec()
    } else {
        MAGIC_F32.to_vec()
    };
    let (d, g, nb) = (dims as u32, group as u32, blocks.len() as u32);
    match (ivf, quantizer) {
        (true, _) => put_slice(&mut head, &[IVF_SENTINEL, IVF_MINOR, d, g, flags, nb]),
        (false, Some(_)) => put_slice(&mut head, &[d, g, nb, flags]),
        (false, None) => put_slice(&mut head, &[d, g, nb]),
    }
    if let Some(q) = quantizer {
        put_slice(&mut head, q.mins());
        put_slice(&mut head, q.scales());
        put_slice(&mut head, q.order());
    }
    if let Some(centroids) = centroid_rows {
        let len_of = |b| B::ivf_len(n_vectors(b), dims).expect("bucket size overflows u64");
        let mut offset = ivf_header_end(quantizer.map(|_| flags), dims, blocks.len())
            .expect("header size overflows u64");
        if quantizer.is_some() {
            let rows_offset = offset + blocks.iter().map(len_of).sum::<u64>();
            put_u64(&mut head, n_rows);
            put_u64(&mut head, if rows.is_some() { rows_offset } else { 0 });
        }
        put_slice(&mut head, centroids);
        for b in blocks {
            put_u64(&mut head, offset);
            put_u64(&mut head, len_of(b));
            put_u32(&mut head, n_vectors(b));
            offset += len_of(b);
        }
    }
    w.write_all(&head)?;
    for b in blocks {
        if !ivf {
            w.write_all(&n_vectors(b).to_le_bytes())?;
        }
        b.write(w, ivf)?;
    }
    if let Some(rows) = rows {
        if !ivf {
            w.write_all(&n_rows.to_le_bytes())?;
        }
        write_slice(w, rows)?;
    }
    Ok(())
}

/// Serializes a collection into the `PDX1` container format.
///
/// # Errors
/// Propagates IO errors from the writer.
///
/// # Panics
/// Panics if the blocks disagree among themselves (group size,
/// dimensionality) — the container stores those once in its header.
pub fn write_pdx<W: Write>(mut w: W, coll: &PdxCollection) -> io::Result<()> {
    write_container(&mut w, coll.dims, None, None, &coll.blocks, None)
}

/// Serializes a quantized collection into the `PDX2` container format.
/// Pass the original row-major vectors as `rows` to make the container
/// self-contained for exact rerank; pass `None` for a scan-only file.
///
/// # Errors and panics
/// As [`write_pdx`]; also panics if `rows` is not whole vectors.
pub fn write_sq8<W: Write>(
    mut w: W,
    quantizer: &Sq8Quantizer,
    blocks: &[Sq8Block],
    rows: Option<&[f32]>,
) -> io::Result<()> {
    let (dims, q) = (quantizer.dims(), Some(quantizer));
    write_container(&mut w, dims, q, None, blocks, rows)
}

/// Serializes an IVF deployment into the IVF-extended `PDX1` format:
/// `centroid_rows` are the row-major centroids (one per bucket, the
/// router's data) and `blocks` the bucket [`SearchBlock`]s in the same
/// order, written with their statistics.
///
/// # Errors and panics
/// As [`write_pdx`]; also panics unless there is one centroid per bucket.
pub fn write_ivf_pdx<W: Write>(
    mut w: W,
    dims: usize,
    centroid_rows: &[f32],
    blocks: &[SearchBlock],
) -> io::Result<()> {
    write_container(&mut w, dims, None, Some(centroid_rows), blocks, None)
}

/// Serializes an SQ8 IVF deployment into the IVF-extended `PDX2`
/// format. Pass the original row-major vectors as `rows` for exact
/// rerank; `None` writes a scan-only container.
///
/// # Errors and panics
/// As [`write_ivf_pdx`] and [`write_sq8`].
pub fn write_ivf_sq8<W: Write>(
    mut w: W,
    quantizer: &Sq8Quantizer,
    centroid_rows: &[f32],
    blocks: &[Sq8Block],
    rows: Option<&[f32]>,
) -> io::Result<()> {
    let (dims, q) = (quantizer.dims(), Some(quantizer));
    write_container(&mut w, dims, q, Some(centroid_rows), blocks, rows)
}

/// Defines `$name`: `$write` into a buffered file at `path`, flushed,
/// every error naming the path (as `vecs_impl!` stamps out `io`'s
/// readers: the four differ only in the argument list they forward).
macro_rules! path_writer {
    ($name:ident => $write:ident($($arg:ident: $ty:ty),*)) => {
        #[doc = concat!("[`", stringify!($write), "`] to a file path; errors name the path.")]
        pub fn $name(path: &Path, $($arg: $ty),*) -> io::Result<()> {
            let mut w = io::BufWriter::new(std::fs::File::create(path).map_err(with_path(path))?);
            $write(&mut w, $($arg),*)
                .and_then(|()| w.flush())
                .map_err(with_path(path))
        }
    };
}
path_writer!(write_pdx_path => write_pdx(coll: &PdxCollection));
path_writer!(write_sq8_path => write_sq8(
    quantizer: &Sq8Quantizer, blocks: &[Sq8Block], rows: Option<&[f32]>));
path_writer!(write_ivf_pdx_path => write_ivf_pdx(
    dims: usize, centroid_rows: &[f32], blocks: &[SearchBlock]));
path_writer!(write_ivf_sq8_path => write_ivf_sq8(
    quantizer: &Sq8Quantizer, centroid_rows: &[f32], blocks: &[Sq8Block], rows: Option<&[f32]>));

/// The one header parser: magic sniff, 1.0 / 1.1 field order, the
/// quantizer parameters of a `PDX2`, and the centroids and bucket table
/// of a 1.1 container. Leaves `src` at the first block record.
fn read_header<S: Source>(src: &mut S) -> io::Result<ContainerHeader> {
    let magic: [u8; 4] = src.array("magic")?;
    let quantized = match &magic {
        MAGIC_F32 => false,
        MAGIC_SQ8 => true,
        // The offending bytes make "served the wrong file" failures
        // attributable (an .fvecs file, a truncated download, …).
        _ => {
            return Err(invalid(format!(
                "not a PDX container (unknown magic {:?}, expected \"PDX1\"/\"PDX2\")",
                magic.escape_ascii().to_string()
            )))
        }
    };
    let first = src.u32("dims")?;
    let is_ivf = first == IVF_SENTINEL;
    let [dims, group, flags, n_blocks] = if is_ivf {
        let minor = src.u32("minor version")?;
        if minor != IVF_MINOR {
            return Err(invalid(format!(
                "unsupported IVF container minor version {minor} (this build reads {IVF_MINOR})"
            )));
        }
        let (dims, group) = (src.u32("dims")?, src.u32("group")?);
        [dims, group, src.u32("flags")?, src.u32("n_buckets")?]
    } else {
        let (group, n_blocks) = (src.u32("group")?, src.u32("n_blocks")?);
        let flags = if quantized { src.u32("flags")? } else { 0 };
        [first, group, flags, n_blocks]
    };
    let (dims, group, n_blocks) = (dims as usize, group as usize, n_blocks as usize);
    if dims == 0 || group == 0 {
        return Err(invalid("zero dims or group size"));
    }
    let quantizer = if quantized {
        let mins: Vec<f32> = read_vec(src, dims, "dims (quantizer mins)")?;
        let scales: Vec<f32> = read_vec(src, dims, "dims (quantizer scales)")?;
        if mins.iter().any(|m| !m.is_finite()) {
            return Err(invalid("non-finite quantizer min"));
        }
        if scales.iter().any(|&s| s <= 0.0 || !s.is_finite()) {
            return Err(invalid("non-positive quantizer scale"));
        }
        let order = if flags & FLAG_ORDER != 0 {
            let order = read_vec(src, dims, "dims (quantizer order)")?;
            check_order(&order)?;
            order
        } else {
            // Backed by the 8 · dims bytes of mins and scales just read.
            (0..dims as u32).collect()
        };
        Some(Sq8Quantizer::from_params(mins, scales, order))
    } else {
        None
    };
    let mut header = ContainerHeader {
        dims,
        group,
        flags,
        n_blocks,
        quantizer,
        centroid_rows: None,
        buckets: Vec::new(),
        n_rows: 0,
    };
    if is_ivf {
        read_ivf_table(src, &mut header)?;
    }
    Ok(header)
}

/// Rejects a storage order that is not a permutation of `0..dims`.
fn check_order(order: &[u32]) -> io::Result<()> {
    let mut seen = vec![false; order.len()];
    for (s, &d) in order.iter().enumerate() {
        match seen.get_mut(d as usize) {
            None => {
                return Err(invalid(format!(
                    "quantizer order: position {s} names dimension {d} of {}",
                    order.len()
                )))
            }
            Some(true) => {
                return Err(invalid(format!(
                    "quantizer order: dimension {d} appears twice"
                )))
            }
            Some(slot) => *slot = true,
        }
    }
    Ok(())
}

/// The 1.1 half of the header. Validates the bucket table — every
/// entry's byte length must equal what its vector count implies, the
/// records must sit contiguous from the header end, and all of it must
/// fit the source — so a corrupt table fails here with a typed error
/// instead of misaligned reads.
fn read_ivf_table<S: Source>(src: &mut S, h: &mut ContainerHeader) -> io::Result<()> {
    let (dims, n_buckets, quantized) = (h.dims, h.n_blocks, h.quantizer.is_some());
    let (n_rows, rows_offset) = if quantized {
        (src.u64("n_rows")?, src.u64("rows_offset")?)
    } else {
        (0, 0)
    };
    let n_centroid_values = n_buckets
        .checked_mul(dims)
        .ok_or_else(|| invalid(format!("n_buckets {n_buckets} × dims {dims} overflows")))?;
    let centroid_rows = read_vec(src, n_centroid_values, "n_buckets (centroids)")?;
    let header_end = ivf_header_end(quantized.then_some(h.flags), dims, n_buckets)
        .ok_or_else(|| invalid("header size overflows"))?;
    let mut end = header_end;
    for i in 0..n_buckets {
        let entry = IvfBucketEntry {
            offset: src.u64("bucket offset")?,
            byte_len: src.u64("bucket byte_len")?,
            n_vectors: src.u32("bucket n_vectors")?,
        };
        let expect = if quantized {
            Sq8Block::ivf_len(entry.n_vectors, dims)
        } else {
            SearchBlock::ivf_len(entry.n_vectors, dims)
        };
        if Some(entry.byte_len) != expect {
            return Err(invalid(format!(
                "bucket {i}: {entry:?} disagrees with {dims} dims (expected {expect:?} bytes)"
            )));
        }
        if entry.offset != end {
            return Err(invalid(format!(
                "bucket {i}: {entry:?} breaks record contiguity (expected offset {end})"
            )));
        }
        end = end
            .checked_add(entry.byte_len)
            .ok_or_else(|| invalid(format!("bucket {i}: offset overflows")))?;
        h.buckets.push(entry);
    }
    if h.flags & FLAG_RERANK_ROWS != 0 && quantized {
        if rows_offset != end {
            return Err(invalid(format!(
                "rerank payload offset {rows_offset} disagrees with the \
                 bucket records' end {end}"
            )));
        }
        end = n_rows
            .checked_mul(dims as u64 * 4)
            .and_then(|bytes| end.checked_add(bytes))
            .ok_or_else(|| invalid("rerank row count n_rows overflows"))?;
    } else if n_rows != 0 || rows_offset != 0 {
        return Err(invalid("rerank fields set without the rerank flag"));
    }
    // The header has been consumed exactly, so what the source has left
    // is what the file holds past `header_end`.
    let file_len = header_end.saturating_add(left(src)?);
    if end > file_len {
        return Err(invalid(format!(
            "bucket records extend to byte {end} but the file has \
             {file_len} (truncated container?)"
        )));
    }
    h.centroid_rows = Some(centroid_rows);
    h.n_rows = n_rows;
    Ok(())
}

/// Reads the `n_blocks` records after the header into one payload
/// arena ([`read_records`]), sized from the bytes the source has left:
/// a 1.1 container's bucket table (which its header checked against
/// the file), or, for a 1.0 body, the most vectors its bytes can hold —
/// each costs an 8-byte id, its payload and, when a `PDX2` has rerank
/// rows, at least one `f32` row (ids are distinct and index the rows).
/// The capacity is exact for a well-formed file and never exceeds the
/// bytes present.
fn read_blocks<B: Record, S: Source>(src: &mut S, h: &ContainerHeader) -> io::Result<Vec<B>> {
    let values = if h.centroid_rows.is_some() {
        let n: u64 = h.buckets.iter().map(|b| u64::from(b.n_vectors)).sum();
        n.saturating_mul(h.dims as u64)
    } else {
        let (dims, size) = (h.dims as u64, std::mem::size_of::<B::Elem>() as u64);
        let rerank = h.quantizer.is_some() && h.flags & FLAG_RERANK_ROWS != 0;
        let (row_bytes, rows_head) = if rerank { (4 * dims, 8) } else { (0, 0) };
        let records = left(src)?.saturating_sub(4 * h.n_blocks as u64 + rows_head);
        records / (8 + dims * size + row_bytes) * dims
    };
    let capacity = payload_capacity::<B::Elem, S>(src, values)?;
    let blocks = read_records(src, h, h.n_blocks, capacity, |src, i| {
        match h.buckets.get(i) {
            Some(entry) => Ok(entry.n_vectors),
            // Running out of bytes here means the count lied; any other
            // IO error is the caller's to see as it is.
            None => src.u32("block n_vectors").map_err(|e| match e.kind() {
                io::ErrorKind::UnexpectedEof => invalid(format!(
                    "n_blocks {}: the container ends after {i} blocks",
                    h.n_blocks
                )),
                _ => e,
            }),
        }
    })?;
    // A duplicate would make two physical rows answer to one logical
    // vector — searches and reranks would silently shadow one of them.
    // Ids that ascend across the container (a flat container's or a
    // store segment's, by construction) are distinct by that alone; any
    // other order (an IVF container's buckets) pays for a set.
    let ids = || blocks.iter().flat_map(B::row_ids);
    if ids().is_sorted_by(|a, b| a < b) {
        return Ok(blocks);
    }
    let mut seen = std::collections::HashSet::new();
    if let Some(id) = ids().find(|&&id| !seen.insert(id)) {
        return Err(invalid(format!("duplicate row id {id} in container")));
    }
    Ok(blocks)
}

/// What `src` has left: every container source knows its length.
fn left<S: Source>(src: &S) -> io::Result<u64> {
    src.remaining()
        .ok_or_else(|| invalid("a container decodes only from a source of known length"))
}

/// The arena capacity for `values` payload values, capped by the bytes
/// the source has left.
fn payload_capacity<E, S: Source>(src: &S, values: u64) -> io::Result<usize> {
    let fits = left(src)? / std::mem::size_of::<E>() as u64;
    Ok(usize::try_from(values.min(fits)).unwrap_or(usize::MAX))
}

/// Reads `count` records — record `i` of `n_of(src, i)` vectors — with
/// every payload in one arena of `capacity` values, rejecting a record
/// whose payload would overrun it before any of it is read. The lists
/// grow by one per record actually decoded, so `count` itself never
/// sizes anything.
fn read_records<B: Record, S: Source>(
    src: &mut S,
    h: &ContainerHeader,
    count: usize,
    capacity: usize,
    mut n_of: impl FnMut(&mut S, usize) -> io::Result<u32>,
) -> io::Result<Vec<B>> {
    const WHAT: &str = "n_vectors (block data)";
    let mut payload = PayloadWriter::<B::Elem>::new(capacity);
    let mut heads = Vec::new();
    for _ in 0..count {
        let n = n_of(src, heads.len())? as usize;
        let n_values = record_values(n, h.dims)?;
        let head = B::read_head(src, n, h)?;
        if n_values > payload.remaining() {
            return Err(invalid(format!(
                "{WHAT}: count {n} needs {n_values} values, the bytes present hold {}",
                payload.remaining()
            )));
        }
        payload.read_block(src, n, h.dims, h.group, WHAT)?;
        heads.push(head);
    }
    Ok(heads
        .into_iter()
        .zip(payload.finish())
        .map(|(head, pdx)| B::assemble(head, pdx))
        .collect())
}

/// Reads the rerank payload that follows the blocks of a `PDX2`
/// container whose flags announce one. Every block id must index into
/// it, or later reranks would panic instead of the load failing cleanly.
fn read_rerank_rows<S: Source>(
    src: &mut S,
    h: &ContainerHeader,
    blocks: &[Sq8Block],
) -> io::Result<Vec<f32>> {
    if h.flags & FLAG_RERANK_ROWS == 0 {
        return Ok(Vec::new());
    }
    let n_rows = match h.centroid_rows {
        Some(_) => h.n_rows,
        None => src.u64("n_rows")?,
    };
    let n_values = usize::try_from(n_rows)
        .ok()
        .and_then(|n| n.checked_mul(h.dims))
        .ok_or_else(|| invalid("rerank row count n_rows overflows"))?;
    let rows = read_vec(src, n_values, "n_rows (rerank rows)")?;
    if blocks
        .iter()
        .flat_map(|b| &b.row_ids)
        .any(|&id| id >= n_rows)
    {
        return Err(invalid("block row id exceeds rerank payload"));
    }
    Ok(rows)
}

fn read_from<S: Source>(src: &mut S) -> io::Result<Container> {
    let h = read_header(src)?;
    let (dims, group) = (h.dims, h.group);
    // The blocks decode under the header's codec, so it stays in `h`.
    Ok(match h.quantizer.clone() {
        Some(quantizer) => {
            let blocks = read_blocks(src, &h)?;
            Container::Sq8(Sq8Container {
                rows: read_rerank_rows(src, &h, &blocks)?,
                centroid_rows: h.centroid_rows,
                blocks,
                dims,
                group,
                quantizer,
            })
        }
        None => Container::F32(F32Container {
            blocks: read_blocks(src, &h)?,
            centroid_rows: h.centroid_rows,
            dims,
            group,
        }),
    })
}

/// Reads either container kind from its bytes, dispatching on the
/// magic number; the slice's length bounds every count before anything
/// is allocated for it.
///
/// # Errors
/// Fails on an unrecognized magic number, truncation, or a header whose
/// counts the bytes present do not back.
pub fn read_container(bytes: &[u8]) -> io::Result<Container> {
    read_from(&mut ByteReader::new(bytes))
}

fn open_stream(path: &Path) -> io::Result<Stream<io::BufReader<std::fs::File>>> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    Ok(Stream::with_len(io::BufReader::new(file), len))
}

/// Reads either container kind from a file path; the file's length
/// bounds every count before anything is allocated for it. On unix the
/// file is read positionally ([`FileAt`](pdx_core::codec::FileAt), a
/// direct source), so every id, stats and rerank section lands in its
/// final buffer with no staging copy. Every error — the open itself, a
/// truncation, a format violation — names the offending path.
///
/// # Errors
/// Propagates IO and format errors, with the path prepended.
pub fn read_container_path(path: &Path) -> io::Result<Container> {
    #[cfg(unix)]
    let read = std::fs::File::open(path).and_then(|file| {
        let len = file.metadata()?.len();
        read_from(&mut pdx_core::codec::FileAt::new(&file, 0, len))
    });
    #[cfg(not(unix))]
    let read = open_stream(path).and_then(|mut src| read_from(&mut src));
    read.map_err(with_path(path))
}

/// Reads only the header of a container file — the O(header) cold open
/// behind lazy serving. A 1.1 bucket table is validated against the
/// actual file length, so a truncated container is rejected at open
/// time rather than failing mid-search.
///
/// # Errors
/// Propagates IO and format errors, with the path prepended.
pub fn read_header_path(path: &Path) -> io::Result<ContainerHeader> {
    open_stream(path)
        .and_then(|mut src| read_header(&mut src))
        .map_err(with_path(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `file` inside a per-test directory under the system temp dir.
    fn temp_path(dir: &str, file: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(file)
    }

    fn f32_container(c: Container) -> F32Container {
        match c {
            Container::F32(c) => c,
            other => panic!("wrong container variant: {other:?}"),
        }
    }

    fn sq8_container(c: Container) -> Sq8Container {
        match c {
            Container::Sq8(c) => c,
            other => panic!("wrong container variant: {other:?}"),
        }
    }

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
        let back = f32_container(read_container(&buf).unwrap());
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
        let err = read_container(b"NOPE").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_file_errors() {
        let coll = sample_collection();
        let mut buf = Vec::new();
        write_pdx(&mut buf, &coll).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_container(&buf).is_err());
    }

    #[test]
    fn file_round_trip() {
        let coll = sample_collection();
        let path = temp_path("pdx_persist_test", "coll.pdx");
        write_pdx_path(&path, &coll).unwrap();
        let back = f32_container(read_container_path(&path).unwrap());
        assert_eq!(back.centroid_rows, None);
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
        let back = sq8_container(read_container(&buf).unwrap());
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
        let back = sq8_container(read_container(&buf).unwrap());
        assert!(back.rows.is_empty());
        assert_eq!(back.blocks, blocks);
    }

    #[test]
    fn container_sniffing_dispatches_on_magic() {
        let coll = sample_collection();
        let mut f32_buf = Vec::new();
        write_pdx(&mut f32_buf, &coll).unwrap();
        assert!(matches!(
            read_container(&f32_buf).unwrap(),
            Container::F32(_)
        ));
        let (quantizer, blocks, rows) = sample_sq8();
        let mut sq8_buf = Vec::new();
        write_sq8(&mut sq8_buf, &quantizer, &blocks, Some(&rows)).unwrap();
        assert!(matches!(
            read_container(&sq8_buf).unwrap(),
            Container::Sq8(_)
        ));
        assert!(read_container(b"XXXXrest").is_err());
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
        let err = read_container(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("duplicate row id"), "{err}");

        // PDX2: same surgery after the header, the quantizer params and
        // the storage order.
        let (quantizer, blocks, _) = sample_sq8();
        let mut buf = Vec::new();
        write_sq8(&mut buf, &quantizer, &blocks, None).unwrap();
        let first_id_at = 4 + 16 + 7 * 4 * 3 + 4;
        let dup = buf[first_id_at..first_id_at + 8].to_vec();
        buf[first_id_at + 8..first_id_at + 16].copy_from_slice(&dup);
        let err = read_container(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("duplicate row id"), "{err}");
    }

    #[test]
    fn unknown_magic_error_names_the_bytes() {
        let err = read_container(b"XXXXrest").unwrap_err();
        assert!(err.to_string().contains("XXXX"), "{err}");
    }

    #[test]
    fn sq8_truncated_file_errors() {
        let (quantizer, blocks, rows) = sample_sq8();
        let mut buf = Vec::new();
        write_sq8(&mut buf, &quantizer, &blocks, Some(&rows)).unwrap();
        buf.truncate(buf.len() / 3);
        assert!(read_container(&buf).is_err());
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
            read_container(&bad).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // A zero scale (first scale follows the 7 mins) is also rejected.
        let mut bad = buf.clone();
        bad[20 + 7 * 4..24 + 7 * 4].copy_from_slice(&0.0f32.to_le_bytes());
        assert_eq!(
            read_container(&bad).unwrap_err().kind(),
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
        let err = read_container(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A merely-too-small count (ids now out of range) also fails.
        buf[n_rows_at..n_rows_at + 8].copy_from_slice(&1u64.to_le_bytes());
        buf.truncate(n_rows_at + 8 + 7 * 4);
        let err = read_container(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A search reads only the codec, the codes, the ids and the rerank
    /// rows, so a file that gives back each of them bit for bit searches
    /// like its writer.
    #[test]
    fn sq8_file_round_trip_searches_match() {
        let (quantizer, blocks, rows) = sample_sq8();
        let path = temp_path("pdx_persist_sq8_test", "coll.pdx2");
        write_sq8_path(&path, &quantizer, &blocks, Some(&rows)).unwrap();
        let back = sq8_container(read_container_path(&path).unwrap());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back.quantizer.mins()), bits(quantizer.mins()));
        assert_eq!(bits(back.quantizer.scales()), bits(quantizer.scales()));
        assert_eq!(back.quantizer.order(), quantizer.order());
        assert_eq!(back.blocks.len(), blocks.len());
        for (got, want) in back.blocks.iter().zip(&blocks) {
            assert_eq!(got.codes, want.codes);
            assert_eq!(got.row_ids, want.row_ids);
        }
        assert_eq!(bits(&back.rows), bits(&rows));
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
        let back = f32_container(read_container(&buf).unwrap());
        let q: Vec<f32> = (0..coll.dims).map(|i| i as f32 * 0.2).collect();
        let bond = PdxBond::new(Metric::L2, VisitOrder::DistanceToMeans);
        let (q, opts) = (bond.prepare_query(&q), SearchOptions::new(5));
        let a = pdxearch(&bond, &q, &coll.blocks, &opts, None, None);
        let b = pdxearch(&bond, &q, &back.blocks, &opts, None, None);
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
        let back = f32_container(read_container(&buf).unwrap());
        assert_eq!(back.dims, d);
        assert_eq!(back.group, 16);
        assert_eq!(back.centroid_rows, Some(centroids));
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
        let path = temp_path("pdx_persist_ivf_meta", "c.pdx");
        write_ivf_pdx_path(&path, d, &centroids, &blocks).unwrap();
        let header = read_header_path(&path).unwrap();
        assert!(header.quantizer.is_none());
        assert_eq!(header.dims, d);
        assert_eq!(header.n_blocks, blocks.len());
        assert_eq!(header.centroid_rows.as_ref(), Some(&centroids));
        assert_eq!(header.buckets.len(), blocks.len());
        for (e, b) in header.buckets.iter().zip(&blocks) {
            assert_eq!(e.n_vectors as usize, b.len());
        }
        // Decoding a bucket from the table entry reproduces the block.
        let bytes = std::fs::read(&path).unwrap();
        let e = header.buckets[2];
        let record = &bytes[e.offset as usize..(e.offset + e.byte_len) as usize];
        let block = read_f32_bucket(&mut ByteReader::new(record), &header, 2).unwrap();
        assert_eq!(block.row_ids, blocks[2].row_ids);
        assert_eq!(block.pdx, blocks[2].pdx);
        assert_eq!(block.stats, blocks[2].stats);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ivf_meta_sniff_returns_none_for_legacy_files() {
        let coll = sample_collection();
        let path = temp_path("pdx_persist_ivf_legacy", "legacy.pdx");
        write_pdx_path(&path, &coll).unwrap();
        let header = read_header_path(&path).unwrap();
        assert!(header.centroid_rows.is_none() && header.buckets.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ivf_truncated_file_is_rejected_at_open() {
        let (d, centroids, blocks) = sample_ivf_f32();
        let mut buf = Vec::new();
        write_ivf_pdx(&mut buf, d, &centroids, &blocks).unwrap();
        buf.truncate(buf.len() - 10);
        let path = temp_path("pdx_persist_ivf_trunc", "t.pdx");
        std::fs::write(&path, &buf).unwrap();
        let err = read_header_path(&path).unwrap_err();
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
        let err = read_container(&evil).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("disagrees"), "{err}");
        // Break record contiguity: bogus offset.
        let mut evil = buf.clone();
        evil[table_at..table_at + 8].copy_from_slice(&7u64.to_le_bytes());
        let err = read_container(&evil).unwrap_err();
        assert!(err.to_string().contains("contiguity"), "{err}");
        // Unknown minor version.
        let mut evil = buf;
        evil[8..12].copy_from_slice(&9u32.to_le_bytes());
        let err = read_container(&evil).unwrap_err();
        assert!(err.to_string().contains("minor version"), "{err}");
    }

    #[test]
    fn ivf_duplicate_ids_across_buckets_are_rejected() {
        let (d, centroids, mut blocks) = sample_ivf_f32();
        blocks[1].row_ids[0] = blocks[0].row_ids[0];
        let mut buf = Vec::new();
        write_ivf_pdx(&mut buf, d, &centroids, &blocks).unwrap();
        let err = read_container(&buf).unwrap_err();
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
        let back = sq8_container(read_container(&buf).unwrap());
        assert_eq!(back.dims, d);
        assert_eq!(back.quantizer, quantizer);
        assert_eq!(back.centroid_rows.as_ref(), Some(&centroids));
        assert_eq!(back.blocks, blocks);
        assert_eq!(back.rows, rows);
        // Scan-only variant drops the rerank payload.
        let mut buf = Vec::new();
        write_ivf_sq8(&mut buf, &quantizer, &centroids, &blocks, None).unwrap();
        let back = sq8_container(read_container(&buf).unwrap());
        assert!(back.rows.is_empty());
        // And the sniffer sees the quantized header.
        let path = temp_path("pdx_persist_ivf_sq8", "c.pdx2");
        write_ivf_sq8_path(&path, &quantizer, &centroids, &blocks, Some(&rows)).unwrap();
        let header = read_header_path(&path).unwrap();
        assert_eq!(header.n_rows as usize * d, rows.len());
        assert_eq!(header.quantizer.as_ref(), Some(&quantizer));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ivf_bucket_table_past_the_slice_is_a_truncated_container() {
        let (d, centroids, blocks) = sample_ivf_f32();
        let mut buf = Vec::new();
        write_ivf_pdx(&mut buf, d, &centroids, &blocks).unwrap();
        buf.truncate(buf.len() - 10);
        let err = read_container(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated container"), "{err}");
    }
}
