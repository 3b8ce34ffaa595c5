//! The one bounded byte codec under every file format and wire message.
//!
//! Every persisted artefact of this workspace — `PDX1`/`PDX2`
//! containers, the `PDX3` manifest, the `PDXI` sidecar, `.fvecs` files,
//! the serve protocol's frames — is little-endian integers and `f32`s
//! behind counts that come from outside the program. This module is
//! where those counts are handled, once:
//!
//! * a [`Source`] is something bytes come out of — a [`ByteReader`] over
//!   a slice (a frame, a small file read whole), a [`Stream`] over any
//!   [`Read`] (a container being loaded block by block), a [`FileAt`]
//!   window of an open file (one bucket of a lazily served container) —
//!   with typed scalar getters that name the field they failed on;
//! * [`read_vec`] is **the only function in the workspace that sizes an
//!   allocation from an untrusted count**. When the source knows how
//!   many bytes it has left, the count is checked against that before
//!   anything is reserved; when it does not (a stream), the buffer grows
//!   only as bytes actually arrive. Either way a hostile count costs at
//!   most twice the bytes really present, and fails with `InvalidData`
//!   naming the field;
//! * [`put_u32`] / [`put_u64`] / [`put_slice`] / [`write_slice`] are the
//!   matching bulk writers.
//!
//! A reader built on these cannot allocate from a lie, whatever the
//! format says; formats keep their own *semantic* checks (magic,
//! version, cross-field consistency).

use std::io::{self, Read, Write};

/// Bytes moved per step by the chunked paths of [`read_vec`] and
/// [`write_slice`]: a stack buffer, so conversions happen cache-hot, and
/// small enough that zeroing it costs less than a short payload's copy.
const CHUNK: usize = 4096;

/// An `InvalidData` error: what every format built on this module
/// answers a well-formed-looking lie with.
pub fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn truncated(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, format!("truncated {what}"))
}

/// Names the field a reader's own end-of-file error was about.
fn naming(what: &str) -> impl Fn(io::Error) -> io::Error + '_ {
    move |e| match e.kind() {
        io::ErrorKind::UnexpectedEof => truncated(what),
        _ => e,
    }
}

mod sealed {
    pub trait Sealed {}
}

/// A fixed-width value stored as its little-endian bytes. Sealed: every
/// implementor accepts any bit pattern and has no padding, which is what
/// lets [`read_vec`] fill a `Vec<T>` through its bytes.
pub trait Le: Copy + sealed::Sealed {
    /// Encoded width in bytes (`size_of::<Self>()`).
    const SIZE: usize;
    /// Decodes one value from exactly [`Le::SIZE`] bytes.
    fn read_le(bytes: &[u8]) -> Self;
    /// Encodes the value into exactly [`Le::SIZE`] bytes.
    fn write_le(self, out: &mut [u8]);
}

macro_rules! le_impl {
    ($($ty:ty),*) => {$(
        impl sealed::Sealed for $ty {}
        impl Le for $ty {
            const SIZE: usize = std::mem::size_of::<$ty>();
            fn read_le(bytes: &[u8]) -> Self {
                <$ty>::from_le_bytes(bytes.try_into().expect("Le::SIZE bytes"))
            }
            fn write_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}
le_impl!(u8, u32, u64, i32, f32);

/// Something bytes are read out of, in order.
///
/// Sealed in effect: [`Source::DIRECT`] is a promise [`read_vec`]'s
/// `unsafe` relies on, so only this module's types implement it.
pub trait Source: sealed::Sealed {
    /// Whether [`Source::fill`] only ever *writes* its buffer, so it may
    /// be handed uninitialized spare capacity. True for the sources that
    /// copy from memory or `pread` from a file; false for a [`Stream`],
    /// whose arbitrary [`Read`] may inspect what it is given.
    const DIRECT: bool;

    /// Bytes left, when the source knows (a slice, a file of known
    /// length); `None` for a stream of unknown length.
    fn remaining(&self) -> Option<u64>;

    /// Fills `buf` completely.
    ///
    /// # Errors
    /// `UnexpectedEof` naming `what` when the source ends first; other
    /// IO errors are propagated.
    fn fill(&mut self, buf: &mut [u8], what: &str) -> io::Result<()>;

    /// Reads `N` raw bytes (a magic number); errors as [`Source::fill`].
    fn array<const N: usize>(&mut self, what: &str) -> io::Result<[u8; N]> {
        let mut b = [0u8; N];
        self.fill(&mut b, what)?;
        Ok(b)
    }

    /// Reads one byte; errors as [`Source::fill`].
    fn u8(&mut self, what: &str) -> io::Result<u8> {
        Ok(self.array::<1>(what)?[0])
    }

    /// Reads a little-endian `u32`; errors as [`Source::fill`].
    fn u32(&mut self, what: &str) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// Reads a little-endian `u64`; errors as [`Source::fill`].
    fn u64(&mut self, what: &str) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }
}

/// A bounds-checked cursor over a byte slice: a wire message, or a small
/// file read whole.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Borrows the next `n` bytes.
    ///
    /// # Errors
    /// `InvalidData` naming `what` when fewer than `n` bytes are left.
    pub fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        if n > self.buf.len() {
            return Err(invalid(format!(
                "{what}: {n} bytes wanted, {} present",
                self.buf.len()
            )));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Reads a store file's header: `magic`, then a `u32` `version`.
    ///
    /// # Errors
    /// `UnexpectedEof` on a short header; `InvalidData` naming the file
    /// kind `what` on another magic (as escaped ASCII, the way the
    /// container reader names one) or version.
    pub fn header(&mut self, magic: &[u8; 4], version: u32, what: &str) -> io::Result<()> {
        let found: [u8; 4] = self.array(&format!("{what} magic"))?;
        if &found != magic {
            let ascii = |m: &[u8; 4]| m.escape_ascii().to_string();
            return Err(invalid(format!(
                "not a {what} (unknown magic {:?}, expected {:?})",
                ascii(&found),
                ascii(magic)
            )));
        }
        let found = self.u32(&format!("{what} version"))?;
        if found != version {
            return Err(invalid(format!(
                "unsupported {what} version {found} (this build reads {version})"
            )));
        }
        Ok(())
    }

    /// Asserts the whole input was consumed.
    ///
    /// # Errors
    /// `InvalidData` when bytes are left over.
    pub fn finish(self) -> io::Result<()> {
        if !self.buf.is_empty() {
            return Err(invalid(format!(
                "{} trailing bytes after the last field",
                self.buf.len()
            )));
        }
        Ok(())
    }
}

impl sealed::Sealed for ByteReader<'_> {}

impl Source for ByteReader<'_> {
    const DIRECT: bool = true;

    fn remaining(&self) -> Option<u64> {
        Some(self.buf.len() as u64)
    }

    fn fill(&mut self, buf: &mut [u8], what: &str) -> io::Result<()> {
        if buf.len() > self.buf.len() {
            return Err(truncated(what));
        }
        let (head, rest) = self.buf.split_at(buf.len());
        buf.copy_from_slice(head);
        self.buf = rest;
        Ok(())
    }
}

/// A [`Source`] over any [`Read`], optionally knowing how long it is.
#[derive(Debug)]
pub struct Stream<R> {
    inner: R,
    remaining: Option<u64>,
}

impl<R: Read> Stream<R> {
    /// A stream of unknown length: [`read_vec`] grows its buffers only
    /// as bytes arrive.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            remaining: None,
        }
    }

    /// A stream with `len` bytes left (a file, by its metadata): counts
    /// are checked against it before anything is read.
    pub fn with_len(inner: R, len: u64) -> Self {
        Self {
            inner,
            remaining: Some(len),
        }
    }
}

impl<R> sealed::Sealed for Stream<R> {}

impl<R: Read> Source for Stream<R> {
    const DIRECT: bool = false;

    fn remaining(&self) -> Option<u64> {
        self.remaining
    }

    fn fill(&mut self, buf: &mut [u8], what: &str) -> io::Result<()> {
        self.inner.read_exact(buf).map_err(naming(what))?;
        if let Some(left) = &mut self.remaining {
            // A file that grew since its length was taken reads past the
            // recorded end; the count checks stay conservative.
            *left = left.saturating_sub(buf.len() as u64);
        }
        Ok(())
    }
}

/// A window `offset..offset + len` of an open file, read positionally
/// (`pread`): concurrent windows of one file never share a cursor.
#[cfg(unix)]
#[derive(Debug)]
pub struct FileAt<'a> {
    file: &'a std::fs::File,
    offset: u64,
    remaining: u64,
}

#[cfg(unix)]
impl<'a> FileAt<'a> {
    /// The `len` bytes of `file` starting at `offset`.
    pub fn new(file: &'a std::fs::File, offset: u64, len: u64) -> Self {
        Self {
            file,
            offset,
            remaining: len,
        }
    }
}

#[cfg(unix)]
impl sealed::Sealed for FileAt<'_> {}

#[cfg(unix)]
impl Source for FileAt<'_> {
    const DIRECT: bool = true;

    fn remaining(&self) -> Option<u64> {
        Some(self.remaining)
    }

    fn fill(&mut self, buf: &mut [u8], what: &str) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        let n = buf.len() as u64;
        if n > self.remaining {
            return Err(truncated(what));
        }
        self.file
            .read_exact_at(buf, self.offset)
            .map_err(naming(what))?;
        self.offset += n;
        self.remaining -= n;
        Ok(())
    }
}

/// Reads `n` values of `T` — **the one place an untrusted count becomes
/// an allocation**. `what` names the count's field for the error.
///
/// A source that knows its remaining length has the count checked
/// against it first, then gets one exact allocation (and, when it is
/// [`Source::DIRECT`] on a little-endian target, is read straight into
/// it: the only copy is the one out of the page cache or the frame). A
/// source that does not is drained through a stack buffer, so the
/// vector's capacity never exceeds twice the bytes that really arrived.
///
/// # Errors
/// `InvalidData` naming `what` when the count overflows or promises more
/// bytes than the source has; IO errors are propagated.
pub fn read_vec<T: Le, S: Source>(src: &mut S, n: usize, what: &str) -> io::Result<Vec<T>> {
    let bytes = n
        .checked_mul(T::SIZE)
        .ok_or_else(|| invalid(format!("{what}: count {n} overflows")))?;
    let known = src.remaining();
    if let Some(left) = known.filter(|&left| bytes as u64 > left) {
        return Err(invalid(format!(
            "{what}: count {n} needs {bytes} bytes, {left} present"
        )));
    }
    let mut out: Vec<T> = Vec::new();
    if known.is_some() {
        out.reserve_exact(n);
        #[cfg(test)]
        tests::note_capacity::<T>(&out);
        #[cfg(target_endian = "little")]
        if S::DIRECT {
            // SAFETY: the slice covers exactly the `n` elements of spare
            // capacity reserved above; `T: Le` is sealed to primitives
            // that accept every bit pattern and whose little-endian
            // bytes are their in-memory form on this target; a `DIRECT`
            // source only writes the slice; and `set_len` runs only
            // after `fill` reported every byte written.
            unsafe {
                let spare = std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<u8>(), bytes);
                src.fill(spare, what)?;
                out.set_len(n);
            }
            return Ok(out);
        }
    }
    let mut buf = [0u8; CHUNK];
    let mut left = n;
    while left > 0 {
        let take = left.min(CHUNK / T::SIZE);
        let chunk = &mut buf[..take * T::SIZE];
        src.fill(chunk, what).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => {
                invalid(format!("{what}: count {n} exceeds the bytes present"))
            }
            _ => e,
        })?;
        out.extend(chunk.chunks_exact(T::SIZE).map(T::read_le));
        #[cfg(test)]
        tests::note_capacity::<T>(&out);
        left -= take;
    }
    Ok(out)
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `vals` as little-endian bytes.
pub fn put_slice<T: Le>(out: &mut Vec<u8>, vals: &[T]) {
    let at = out.len();
    out.resize(at + vals.len() * T::SIZE, 0);
    for (dst, &v) in out[at..].chunks_exact_mut(T::SIZE).zip(vals) {
        v.write_le(dst);
    }
}

/// Bytes [`write_slice`] converts per `write_all` once a payload outgrows
/// [`CHUNK`]: a run this long passes straight through a default
/// `BufWriter` (8 KiB), so a container's payload reaches the file in one
/// `write(2)` per 64 KiB instead of one per 8 KiB.
const WRITE_RUN: usize = 64 * 1024;

/// Writes `vals` as little-endian bytes, converted in runs of up to
/// 64 KiB, a run per `write_all`. A payload of at most 4 KiB is
/// converted on the stack, so small writes allocate nothing.
///
/// # Errors
/// Propagates IO errors from the writer.
pub fn write_slice<T: Le>(w: &mut impl Write, vals: &[T]) -> io::Result<()> {
    let bytes = vals.len() * T::SIZE;
    if bytes <= CHUNK {
        write_runs(w, vals, &mut [0u8; CHUNK])
    } else {
        write_runs(w, vals, &mut vec![0u8; bytes.min(WRITE_RUN)])
    }
}

/// [`write_slice`]'s loop: `buf` holds one run.
fn write_runs<T: Le>(w: &mut impl Write, vals: &[T], buf: &mut [u8]) -> io::Result<()> {
    for chunk in vals.chunks(buf.len() / T::SIZE) {
        let bytes = &mut buf[..chunk.len() * T::SIZE];
        for (dst, &v) in bytes.chunks_exact_mut(T::SIZE).zip(chunk) {
            v.write_le(dst);
        }
        w.write_all(bytes)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Largest capacity, in bytes, any `read_vec` on this thread
        /// has held since the last reset.
        static PEAK: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn note_capacity<T: Le>(v: &Vec<T>) {
        PEAK.with(|p| p.set(p.get().max(v.capacity() * T::SIZE)));
    }

    /// `Vec`'s smallest non-empty capacity (8 one-byte or 4 wider
    /// elements) is the only allocation not paid for by input bytes.
    const FLOOR: usize = 32;

    fn peak_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
        PEAK.with(|p| p.set(0));
        let r = f();
        (r, PEAK.with(Cell::get))
    }

    #[test]
    fn scalars_and_vectors_round_trip_through_every_source() {
        let mut bytes = vec![7u8];
        put_u32(&mut bytes, 0xDEAD_BEEF);
        put_u64(&mut bytes, u64::MAX - 1);
        put_slice(&mut bytes, &[1.5f32, -0.0, f32::MIN_POSITIVE]);
        put_slice(&mut bytes, &[i32::MIN, 9]);
        fn check(src: &mut impl Source) {
            assert_eq!(src.u8("tag").unwrap(), 7);
            assert_eq!(src.u32("word").unwrap(), 0xDEAD_BEEF);
            assert_eq!(src.u64("long").unwrap(), u64::MAX - 1);
            let f: Vec<f32> = read_vec(src, 3, "floats").unwrap();
            assert_eq!(
                f.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                [1.5f32, -0.0, f32::MIN_POSITIVE].map(f32::to_bits)
            );
            assert_eq!(read_vec::<i32, _>(src, 2, "ints").unwrap(), [i32::MIN, 9]);
            let err = src.u8("one more").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            assert!(err.to_string().contains("one more"), "{err}");
        }
        check(&mut ByteReader::new(&bytes));
        check(&mut Stream::new(&bytes[..]));
        check(&mut Stream::with_len(&bytes[..], bytes.len() as u64));
        #[cfg(unix)]
        {
            let path =
                std::env::temp_dir().join(format!("pdx_codec_file_at_{}", std::process::id()));
            let mut padded = vec![0xAAu8; 5];
            padded.extend_from_slice(&bytes);
            padded.extend_from_slice(&[0xBB; 3]);
            std::fs::write(&path, &padded).unwrap();
            let file = std::fs::File::open(&path).unwrap();
            check(&mut FileAt::new(&file, 5, bytes.len() as u64));
            std::fs::remove_file(&path).ok();
        }
    }

    /// A writer that records the length of every `write` call.
    #[derive(Default)]
    struct Runs {
        bytes: Vec<u8>,
        calls: Vec<usize>,
    }

    impl Write for Runs {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            self.calls.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_slice_writes_put_slice_bytes_in_runs_of_at_most_64_kib() {
        fn check<T: Le>(vals: &[T]) {
            let mut want = Vec::new();
            put_slice(&mut want, vals);
            let mut got = Runs::default();
            write_slice(&mut got, vals).unwrap();
            assert_eq!(got.bytes, want);
            let run = if want.len() <= CHUNK {
                CHUNK
            } else {
                WRITE_RUN
            };
            assert_eq!(got.calls.len(), want.len().div_ceil(run));
            assert!(got.calls.iter().all(|&len| len <= run));
        }
        for n in [
            0,
            1,
            CHUNK / 8,
            CHUNK / 8 + 1,
            WRITE_RUN / 8,
            3 * WRITE_RUN / 8 + 5,
        ] {
            check(&(0..n).map(|i| i as f32 * 0.5 - 7.0).collect::<Vec<_>>());
            check(&(0..2 * n as u64).map(|i| i * 0x9E37).collect::<Vec<_>>());
        }
    }

    #[test]
    fn byte_reader_borrows_and_rejects_leftovers() {
        let mut r = ByteReader::new(b"abcdef");
        assert_eq!(r.take(2, "head").unwrap(), b"ab");
        assert_eq!(r.remaining(), Some(4));
        let err = r.take(5, "body").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("body"), "{err}");
        assert!(r.finish().is_err());
        assert!(ByteReader::new(b"").finish().is_ok());
    }

    proptest! {
        /// The allocation rule itself: whatever count is claimed over
        /// whatever input, through either kind of source, `read_vec`
        /// never holds more than twice the input (plus `Vec`'s minimum
        /// capacity) and succeeds exactly when the bytes are there; a
        /// lie is `InvalidData` naming the field, and against a known
        /// length it fails before anything is reserved.
        #[test]
        fn capacity_is_bounded_by_the_bytes_present(
            len in 0usize..(5 * CHUNK),
            claim in 0usize..(6 * CHUNK),
            huge in 0usize..4,
            width in 0usize..3,
            known in 0usize..2,
        ) {
            let input: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let n = match huge {
                0 => claim.saturating_mul(1 << 50),
                _ => claim,
            };
            fn run<T: Le>(input: &[u8], n: usize, known: bool) -> (bool, usize) {
                let (res, peak) = peak_of(|| {
                    if known {
                        read_vec::<T, _>(&mut ByteReader::new(input), n, "count")
                    } else {
                        read_vec::<T, _>(&mut Stream::new(input), n, "count")
                    }
                });
                match &res {
                    Ok(v) => {
                        assert_eq!(v.len(), n);
                        let mut back = Vec::new();
                        put_slice(&mut back, v);
                        assert_eq!(back, &input[..n * T::SIZE]);
                    }
                    Err(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                        assert!(e.to_string().contains("count"), "{e}");
                        assert!(!known || peak == 0, "reserved {peak} for a checked lie");
                    }
                }
                (res.is_ok(), peak)
            }
            let (ok, peak, size) = match width {
                0 => { let (o, p) = run::<u8>(&input, n, known == 1); (o, p, 1) }
                1 => { let (o, p) = run::<f32>(&input, n, known == 1); (o, p, 4) }
                _ => { let (o, p) = run::<u64>(&input, n, known == 1); (o, p, 8) }
            };
            prop_assert_eq!(ok, n.checked_mul(size).is_some_and(|b| b <= len));
            prop_assert!(peak <= 2 * len + FLOOR, "{} bytes held over {} of input", peak, len);
        }
    }
}
