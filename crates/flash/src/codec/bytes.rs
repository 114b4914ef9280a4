//! A trained [`FlashCodec`] as bytes, so an index that stores its codes'
//! codec is served by exactly that codec after a reload instead of a
//! retrained one.
//!
//! Layout (little-endian, every float as its bit pattern):
//!
//! ```text
//! magic "HFCODEC1"
//! u32 dim, u32 rows (solved PCA components), u32 d_F, u32 M_F
//! f32 × dim          PCA mean
//! f32 × rows·dim     PCA components, row-major
//! f32 × rows         PCA mean projection
//! f32 × rows         PCA eigenvalues
//! f64                PCA total variance
//! (u32 start, u32 len) × M_F   subspace spans
//! f32 × d_F·16       codebooks
//! f32 dist_min, f32 inv_delta
//! f32 × M_F·16       residuals
//! u8  × M_F·256      SDT
//! f64                training error
//! ```
//!
//! The bytes may come from a corrupt or hostile file. Every length follows
//! from the four header words, and the input must hold exactly that many
//! bytes before any table is allocated; a decoded codec then passes the
//! same shape and finiteness checks it would need to be used.

use super::{FlashCodec, K};
use quantizers::{PcaCodec, Span};
use std::io;

const MAGIC: &[u8; 8] = b"HFCODEC1";

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("flash codec: {msg}"))
}

fn put_f32s(out: &mut Vec<u8>, xs: &[f32]) {
    for x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Reads fixed-size fields off the front of a byte slice.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.rest.len() {
            return Err(bad("truncated"));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn u32(&mut self) -> io::Result<usize> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
    }

    fn f64(&mut self) -> io::Result<f64> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(f64::from_le_bytes(b))
    }

    fn f32s(&mut self, n: usize) -> io::Result<Vec<f32>> {
        let bytes = self.take(n.checked_mul(4).ok_or_else(|| bad("length overflows"))?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }
}

/// Bytes that follow the header of a codec with these dimensions, or
/// `None` when the count overflows.
fn body_len(dim: usize, rows: usize, d_f: usize, m: usize) -> Option<usize> {
    let floats = dim
        .checked_add(rows.checked_mul(dim)?)?
        .checked_add(rows.checked_mul(2)?)?
        .checked_add(d_f.checked_mul(K)?)?
        .checked_add(2)?
        .checked_add(m.checked_mul(K)?)?;
    floats
        .checked_mul(4)?
        .checked_add(8 + 8)?
        .checked_add(m.checked_mul(8 + K * K)?)
}

impl FlashCodec {
    /// Every field of the codec, bit for bit (see the module doc for the
    /// layout); [`Self::from_bytes`] reads it back.
    pub fn to_bytes(&self) -> Vec<u8> {
        let pca = &self.pca;
        let (dim, rows) = (pca.mean().len(), pca.mean_projection().len());
        let m = self.spans.len();
        let mut out = Vec::with_capacity(8 + 16 + body_len(dim, rows, self.d_f(), m).unwrap_or(0));
        out.extend_from_slice(MAGIC);
        for word in [dim, rows, self.d_f(), m] {
            out.extend_from_slice(&(word as u32).to_le_bytes());
        }
        put_f32s(&mut out, pca.mean());
        put_f32s(&mut out, pca.components());
        put_f32s(&mut out, pca.mean_projection());
        put_f32s(&mut out, pca.eigenvalues());
        out.extend_from_slice(&pca.total_variance().to_le_bytes());
        for span in &self.spans {
            out.extend_from_slice(&(span.start as u32).to_le_bytes());
            out.extend_from_slice(&(span.len as u32).to_le_bytes());
        }
        put_f32s(&mut out, &self.codebooks);
        put_f32s(&mut out, &[self.dist_min, self.inv_delta]);
        put_f32s(&mut out, &self.residuals);
        out.extend_from_slice(&self.sdt);
        out.extend_from_slice(&self.train_error.to_le_bytes());
        out
    }

    /// Decodes [`Self::to_bytes`] output.
    ///
    /// # Errors
    /// `InvalidData` when the magic is wrong, the input is not exactly as
    /// long as its header declares (checked before anything is allocated),
    /// the spans do not tile `0..d_F` in order, or any float is not finite
    /// (`inv_delta` must also be positive, the training error not negative).
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        let mut r = Reader { rest: bytes };
        if r.take(8)? != MAGIC {
            return Err(bad("bad magic"));
        }
        let (dim, rows, d_f, m) = (r.u32()?, r.u32()?, r.u32()?, r.u32()?);
        if m == 0 || m > d_f {
            return Err(bad("needs 1 <= M_F <= d_F"));
        }
        if body_len(dim, rows, d_f, m) != Some(r.rest.len()) {
            return Err(bad("length disagrees with the header"));
        }
        let mean = r.f32s(dim)?;
        let components = r.f32s(rows * dim)?;
        let mean_projection = r.f32s(rows)?;
        let eigenvalues = r.f32s(rows)?;
        let total_variance = r.f64()?;
        let pca = PcaCodec::from_parts(
            mean,
            components,
            mean_projection,
            eigenvalues,
            total_variance,
            d_f,
        )
        .map_err(bad)?;
        let mut spans = Vec::with_capacity(m);
        let mut covered = 0usize;
        for _ in 0..m {
            let span = Span {
                start: r.u32()?,
                len: r.u32()?,
            };
            if span.start != covered || span.len == 0 || span.len > d_f - covered {
                return Err(bad("spans do not tile the principal dimensions"));
            }
            covered += span.len;
            spans.push(span);
        }
        if covered != d_f {
            return Err(bad("spans do not tile the principal dimensions"));
        }
        let codebooks = r.f32s(d_f * K)?;
        let grid = r.f32s(2)?;
        let residuals = r.f32s(m * K)?;
        let sdt = r.take(m * K * K)?.to_vec();
        let train_error = r.f64()?;
        let (dist_min, inv_delta) = (grid[0], grid[1]);
        let finite = [&codebooks, &grid, &residuals]
            .iter()
            .all(|v| v.iter().all(|x| x.is_finite()));
        if !finite || inv_delta <= 0.0 || !(train_error >= 0.0 && train_error.is_finite()) {
            return Err(bad("non-finite or out-of-range value"));
        }
        Ok(Self {
            pca,
            spans,
            codebooks,
            dist_min,
            inv_delta,
            residuals,
            sdt,
            train_error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlashParams;

    fn small_codec() -> FlashCodec {
        let spec = vecstore::DatasetSpec::new(12, 8, 0.96, 0.4, 5);
        let data = vecstore::generate(&spec, 120, 1, 5).0;
        let params = FlashParams {
            d_f: 6,
            m_f: 3,
            train_sample: 120,
            kmeans_iters: 4,
            seed: 9,
            grid_quantile: 0.5,
        };
        FlashCodec::train(&data, params)
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let codec = small_codec();
        let bytes = codec.to_bytes();
        let back = FlashCodec::from_bytes(&bytes).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back.pca.mean()), bits(codec.pca.mean()));
        assert_eq!(bits(back.pca.components()), bits(codec.pca.components()));
        assert_eq!(
            bits(back.pca.mean_projection()),
            bits(codec.pca.mean_projection())
        );
        assert_eq!(bits(back.pca.eigenvalues()), bits(codec.pca.eigenvalues()));
        assert_eq!(
            back.pca.total_variance().to_bits(),
            codec.pca.total_variance().to_bits()
        );
        assert_eq!(back.pca.kept_dims(), codec.pca.kept_dims());
        assert_eq!(back.spans, codec.spans);
        assert_eq!(bits(&back.codebooks), bits(&codec.codebooks));
        assert_eq!(back.dist_min.to_bits(), codec.dist_min.to_bits());
        assert_eq!(back.inv_delta.to_bits(), codec.inv_delta.to_bits());
        assert_eq!(bits(&back.residuals), bits(&codec.residuals));
        assert_eq!(back.sdt, codec.sdt);
        assert_eq!(back.train_error.to_bits(), codec.train_error.to_bits());
        assert!(codec.train_error > 0.0);
        // And it codes alike.
        let v: Vec<f32> = (0..12).map(|i| i as f32 * 0.1).collect();
        assert_eq!(back.encode(&v), codec.encode(&v));
    }

    /// A decoded codec must be usable: encode a vector through it, and
    /// re-encode it to the bytes it came from.
    fn exercise(bytes: &[u8]) {
        if let Ok(codec) = FlashCodec::from_bytes(bytes) {
            let v = vec![0.5f32; codec.input_dim()];
            let (codes, adt) = codec.encode(&v);
            assert_eq!(codes.len(), codec.code_bytes());
            assert_eq!(adt.len(), codec.subspaces() * K);
            let _ = codec.sdc_quantized(&codes, &codes);
            assert_eq!(
                codec.to_bytes(),
                bytes,
                "decode then encode changed the bytes"
            );
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_is_refused_or_valid() {
        let bytes = small_codec().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                FlashCodec::from_bytes(&bytes[..cut]).is_err(),
                "a codec cut at {cut} of {} bytes decoded",
                bytes.len()
            );
        }
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            exercise(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        let mut longer = bytes;
        longer.push(0);
        assert!(FlashCodec::from_bytes(&longer).is_err(), "trailing byte");
    }

    #[test]
    fn oversized_header_is_refused_before_allocating() {
        // A header declaring 2^32-1 dims over a 4 GiB-row basis: honouring
        // it would allocate tens of exabytes.
        let mut forged = MAGIC.to_vec();
        for word in [u32::MAX, u32::MAX, 64, 16] {
            forged.extend_from_slice(&word.to_le_bytes());
        }
        forged.extend_from_slice(&[0u8; 64]);
        let err = FlashCodec::from_bytes(&forged).unwrap_err();
        assert!(err.to_string().contains("length"), "{err}");
    }
}
