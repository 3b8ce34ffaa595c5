//! `.fvecs` / `.ivecs` / `.bvecs` readers and writers.
//!
//! The INRIA formats store vectors back to back, each prefixed by its
//! dimensionality as a little-endian `u32`; components are `f32`, `i32`
//! or `u8` respectively (§8 "Data formats for vectors"). They are the
//! lingua franca of ANN benchmarking, so providing them lets anyone run
//! this repo's experiments on the paper's original datasets.

use pdx_core::codec::{read_vec, write_slice, Stream};
use std::io::{self, Read, Write};

/// A collection read from one of the vector formats.
#[derive(Debug, Clone, PartialEq)]
pub struct VecsFile<T> {
    /// Row-major values (`len × dims`).
    pub data: Vec<T>,
    /// Number of vectors.
    pub len: usize,
    /// Dimensionality (identical for every vector).
    pub dims: usize,
}

fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = r.read(&mut buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(false);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated vector record",
            ));
        }
        filled += n;
    }
    Ok(true)
}

macro_rules! vecs_impl {
    ($read_name:ident, $write_name:ident, $ty:ty) => {
        /// Reads an entire file of this format.
        ///
        /// # Errors
        /// Fails on IO errors, truncated records, inconsistent
        /// per-vector dimensionality, or a dimensionality the bytes
        /// present do not back (nothing is allocated for it first).
        pub fn $read_name<R: Read>(mut r: R) -> io::Result<VecsFile<$ty>> {
            let mut data: Vec<$ty> = Vec::new();
            let mut dims: Option<usize> = None;
            let mut len = 0usize;
            let mut head = [0u8; 4];
            while read_exact_or_eof(&mut r, &mut head)? {
                let d = u32::from_le_bytes(head) as usize;
                match dims {
                    None => dims = Some(d),
                    Some(expect) if expect != d => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("inconsistent dimensionality: {expect} then {d}"),
                        ))
                    }
                    _ => {}
                }
                data.extend(read_vec::<$ty, _>(
                    &mut Stream::new(&mut r),
                    d,
                    "vector dims",
                )?);
                len += 1;
            }
            Ok(VecsFile {
                data,
                len,
                dims: dims.unwrap_or(0),
            })
        }

        /// Writes a row-major collection in this format.
        ///
        /// # Panics
        /// Panics if `data.len()` is not a multiple of `dims`.
        ///
        /// # Errors
        /// Propagates IO errors from the writer.
        pub fn $write_name<W: Write>(mut w: W, data: &[$ty], dims: usize) -> io::Result<()> {
            assert!(dims > 0, "dims must be positive");
            assert_eq!(
                data.len() % dims,
                0,
                "data must be a whole number of vectors"
            );
            let head = (dims as u32).to_le_bytes();
            for row in data.chunks_exact(dims) {
                w.write_all(&head)?;
                write_slice(&mut w, row)?;
            }
            Ok(())
        }
    };
}

vecs_impl!(read_fvecs, write_fvecs, f32);
vecs_impl!(read_ivecs, write_ivecs, i32);
vecs_impl!(read_bvecs, write_bvecs, u8);

/// Convenience: reads an `.fvecs` file from disk.
///
/// # Errors
/// Propagates IO and format errors.
pub fn read_fvecs_path(path: &std::path::Path) -> io::Result<VecsFile<f32>> {
    read_fvecs(std::io::BufReader::new(std::fs::File::open(path)?))
}

/// Convenience: writes an `.fvecs` file to disk.
///
/// # Errors
/// Propagates IO errors.
pub fn write_fvecs_path(path: &std::path::Path, data: &[f32], dims: usize) -> io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_fvecs(&mut w, data, dims)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fvecs_round_trip() {
        let data = vec![1.0f32, -2.5, 3.25, 0.0, 9.75, -0.125];
        let mut buf = Vec::new();
        write_fvecs(&mut buf, &data, 3).unwrap();
        // 2 vectors × (4-byte header + 3 × 4 bytes).
        assert_eq!(buf.len(), 2 * (4 + 12));
        let back = read_fvecs(&buf[..]).unwrap();
        assert_eq!(back.dims, 3);
        assert_eq!(back.len, 2);
        assert_eq!(back.data, data);
    }

    #[test]
    fn ivecs_round_trip() {
        let data = vec![1i32, -7, i32::MAX, i32::MIN];
        let mut buf = Vec::new();
        write_ivecs(&mut buf, &data, 2).unwrap();
        let back = read_ivecs(&buf[..]).unwrap();
        assert_eq!(back.data, data);
        assert_eq!(back.dims, 2);
    }

    #[test]
    fn bvecs_round_trip() {
        let data = vec![0u8, 255, 128, 1];
        let mut buf = Vec::new();
        write_bvecs(&mut buf, &data, 4).unwrap();
        let back = read_bvecs(&buf[..]).unwrap();
        assert_eq!(back.data, data);
        assert_eq!(back.len, 1);
    }

    #[test]
    fn empty_file_reads_empty() {
        let back = read_fvecs(&[][..]).unwrap();
        assert_eq!(back.len, 0);
        assert_eq!(back.dims, 0);
    }

    #[test]
    fn truncated_payload_errors() {
        let mut buf = Vec::new();
        write_fvecs(&mut buf, &[1.0f32, 2.0], 2).unwrap();
        buf.truncate(buf.len() - 1);
        assert!(read_fvecs(&buf[..]).is_err());
    }

    #[test]
    fn inconsistent_dims_error() {
        let mut buf = Vec::new();
        write_fvecs(&mut buf, &[1.0f32, 2.0], 2).unwrap();
        write_fvecs(&mut buf, &[1.0f32, 2.0, 3.0], 3).unwrap();
        assert!(read_fvecs(&buf[..]).is_err());
    }

    #[test]
    fn header_is_little_endian_u32() {
        let mut buf = Vec::new();
        write_fvecs(&mut buf, &[0.0f32; 5], 5).unwrap();
        assert_eq!(&buf[..4], &5u32.to_le_bytes());
    }
}
