//! On-disk persistence for the LSM index — the missing half of the
//! overnight-rebuild story: the rebuilt index must be *served* after a
//! process restart without re-running construction.
//!
//! Layout (all little-endian, versioned magics):
//!
//! ```text
//! <dir>/
//!   lsm.meta            index-level config, id counter, codec count,
//!                       current codec, codec fits
//!   codec000.hfc …      each distinct Flash codec once (FlashCodec::to_bytes)
//!   seg000/ … segNNN/   one directory per sealed segment:
//!     vectors.fvecs       raw vectors (standard fvecs)
//!     graph.hfg           frozen topology (graphs::persist format)
//!     seg.meta            ids, tombstones, codec slot, HNSW parameters
//! ```
//!
//! Segments share codecs (see [`LsmVectorIndex`]), so codecs are stored at
//! index level and each segment names its slot. A load decodes every codec
//! and encodes each segment's vectors through its stored codec: nothing is
//! trained, the codes come out equal to the saved index's, and since a
//! sealed segment already serves from its frozen topology
//! ([`graphs::FrozenGraph`]) the reloaded segment runs the same
//! [`graphs::search_layers_filtered`] beam over the same bytes as the
//! original. Codes themselves are not stored: re-encoding through the same
//! codec is deterministic at a given SIMD dispatch level.
//!
//! Version 1 (`HFLSM01` / `HFSEG01`) stored no codec and retrained one per
//! segment on load; it is not read.

use crate::lsm::{LsmConfig, LsmVectorIndex};
use crate::memtable::MemTable;
use crate::segment::Segment;
use flash::{FlashCodec, FlashParams};
use graphs::HnswParams;
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

const SEG_MAGIC: &[u8; 8] = b"HFSEG02\0";
const LSM_MAGIC: &[u8; 8] = b"HFLSM02\0";
/// The current-codec slot of an index that has not flushed yet.
const NO_CODEC: u32 = u32::MAX;

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Checks a `<tag>NN\0` magic: the five-byte tag, then the one version
/// this build reads.
fn read_magic(r: &mut impl Read, want: &[u8; 8], what: &str) -> io::Result<()> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic == want {
        Ok(())
    } else if magic[..5] == want[..5] {
        Err(bad(&format!(
            "unsupported {what} format version `{}` (this build reads version `{}`, \
             which stores the segments' Flash codecs; rebuild the index from its \
             vectors and save it again)",
            String::from_utf8_lossy(&magic[5..7]),
            String::from_utf8_lossy(&want[5..7]),
        )))
    } else {
        Err(bad(&format!("not an {what} file (bad magic)")))
    }
}

fn codec_file(dir: &Path, slot: usize) -> std::path::PathBuf {
    dir.join(format!("codec{slot:03}.hfc"))
}

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn write_flash_params(w: &mut impl Write, p: &FlashParams) -> io::Result<()> {
    write_u32(w, p.d_f as u32)?;
    write_u32(w, p.m_f as u32)?;
    write_u32(w, p.train_sample as u32)?;
    write_u32(w, p.kmeans_iters as u32)?;
    write_u64(w, p.seed)?;
    write_f64(w, p.grid_quantile)
}

fn read_flash_params(r: &mut impl Read) -> io::Result<FlashParams> {
    Ok(FlashParams {
        d_f: read_u32(r)? as usize,
        m_f: read_u32(r)? as usize,
        train_sample: read_u32(r)? as usize,
        kmeans_iters: read_u32(r)? as usize,
        seed: read_u64(r)?,
        grid_quantile: read_f64(r)?,
    })
}

fn write_hnsw_params(w: &mut impl Write, p: &HnswParams) -> io::Result<()> {
    write_u32(w, p.c as u32)?;
    write_u32(w, p.r as u32)?;
    write_u64(w, p.seed)
}

fn read_hnsw_params(r: &mut impl Read) -> io::Result<HnswParams> {
    Ok(HnswParams {
        c: read_u32(r)? as usize,
        r: read_u32(r)? as usize,
        seed: read_u64(r)?,
    })
}

impl Segment {
    /// Writes the segment under `dir` (created if missing), naming
    /// `codec_slot` as its codec; the codec itself is stored by the index
    /// ([`LsmVectorIndex::save`]).
    ///
    /// # Errors
    /// Returns any underlying I/O error.
    pub fn save(&self, dir: &Path, codec_slot: u32) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        vecstore::io::write_fvecs(&dir.join("vectors.fvecs"), self.base_vectors())?;
        self.topology().save(&dir.join("graph.hfg"))?;

        let mut w = io::BufWriter::new(fs::File::create(dir.join("seg.meta"))?);
        w.write_all(SEG_MAGIC)?;
        write_u32(&mut w, self.len() as u32)?;
        for &id in self.external_ids() {
            write_u64(&mut w, id)?;
        }
        for &dead in self.tombstones() {
            w.write_all(&[u8::from(dead)])?;
        }
        write_u32(&mut w, codec_slot)?;
        write_hnsw_params(&mut w, self.hnsw_params())?;
        w.flush()
    }

    /// Reloads a segment from `dir`: vectors from fvecs, topology from the
    /// graph file, encoded through the codec in `codecs` its meta names.
    /// Nothing is trained.
    ///
    /// # Errors
    /// Returns an error on I/O failure or a malformed/corrupt directory,
    /// including a codec slot outside `codecs`.
    pub fn load(dir: &Path, codecs: &[Arc<FlashCodec>]) -> io::Result<Segment> {
        let mut r = io::BufReader::new(fs::File::open(dir.join("seg.meta"))?);
        read_magic(&mut r, SEG_MAGIC, "LSM segment meta")?;
        let vectors = vecstore::io::read_fvecs(&dir.join("vectors.fvecs"))?;
        let graph = graphs::GraphLayers::load(&dir.join("graph.hfg"))?;
        let n = read_u32(&mut r)? as usize;
        if n != vectors.len() || n != graph.len() {
            return Err(bad("segment meta, vectors and graph disagree on size"));
        }
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(read_u64(&mut r)?);
        }
        let mut dead = vec![0u8; n];
        r.read_exact(&mut dead)?;
        let dead: Vec<bool> = dead.into_iter().map(|b| b != 0).collect();
        let codec = (codecs.get(read_u32(&mut r)? as usize))
            .ok_or_else(|| bad("segment names a codec the index does not store"))?;
        if codec.input_dim() != vectors.dim() {
            return Err(bad("segment vectors and codec disagree on dimension"));
        }
        let hnsw = read_hnsw_params(&mut r)?;

        Ok(Segment::restore(
            vectors,
            graph,
            ids,
            dead,
            Arc::clone(codec),
            hnsw,
        ))
    }
}

impl LsmVectorIndex {
    /// Persists the whole index under `dir`. The memtable is flushed into
    /// a segment first, so the on-disk form is entirely immutable files.
    /// Each distinct codec (the segments' and the current one) is written
    /// once.
    ///
    /// # Errors
    /// Returns any underlying I/O error. A partially written directory
    /// from a failed save will be rejected by [`Self::load`].
    pub fn save(&mut self, dir: &Path) -> io::Result<()> {
        self.flush();
        fs::create_dir_all(dir)?;
        let mut codecs = self.segment_codecs();
        let current = self.codec().map(|current| {
            (codecs.iter().position(|c| Arc::ptr_eq(c, current))).unwrap_or_else(|| {
                codecs.push(current);
                codecs.len() - 1
            })
        });
        for (slot, codec) in codecs.iter().enumerate() {
            fs::write(codec_file(dir, slot), codec.to_bytes())?;
        }

        let mut w = io::BufWriter::new(fs::File::create(dir.join("lsm.meta"))?);
        w.write_all(LSM_MAGIC)?;
        let config = *self.config();
        write_u32(&mut w, config.dim as u32)?;
        write_u32(&mut w, config.memtable_cap as u32)?;
        write_flash_params(&mut w, &config.flash)?;
        write_hnsw_params(&mut w, &config.hnsw)?;
        write_u64(&mut w, self.next_id())?;
        write_u64(&mut w, self.stats().codec_fits as u64)?;
        write_u32(&mut w, codecs.len() as u32)?;
        write_u32(&mut w, current.map_or(NO_CODEC, |slot| slot as u32))?;
        write_u32(&mut w, self.segments().len() as u32)?;
        w.flush()?;
        for (i, seg) in self.segments().iter().enumerate() {
            let slot = (codecs.iter())
                .position(|c| Arc::ptr_eq(c, seg.codec()))
                .expect("every segment codec is stored");
            seg.save(&dir.join(format!("seg{i:03}")), slot as u32)?;
        }
        Ok(())
    }

    /// Reloads an index persisted by [`Self::save`]: decodes the stored
    /// codecs and encodes every segment through its own, training nothing.
    ///
    /// # Errors
    /// Returns an error on I/O failure or a malformed/corrupt directory,
    /// including one written by format version 1.
    pub fn load(dir: &Path) -> io::Result<LsmVectorIndex> {
        let mut r = io::BufReader::new(fs::File::open(dir.join("lsm.meta"))?);
        read_magic(&mut r, LSM_MAGIC, "LSM index meta")?;
        let dim = read_u32(&mut r)? as usize;
        let memtable_cap = read_u32(&mut r)? as usize;
        let flash = read_flash_params(&mut r)?;
        let hnsw = read_hnsw_params(&mut r)?;
        let next_id = read_u64(&mut r)?;
        let codec_fits = read_u64(&mut r)? as usize;
        let n_codecs = read_u32(&mut r)? as usize;
        let current = read_u32(&mut r)?;
        let n_segments = read_u32(&mut r)? as usize;
        if dim == 0 || memtable_cap == 0 {
            return Err(bad("corrupt LSM meta"));
        }

        let config = LsmConfig {
            dim,
            memtable_cap,
            flash,
            hnsw,
        };
        let mut codecs = Vec::new();
        for slot in 0..n_codecs {
            let codec = FlashCodec::from_bytes(&fs::read(codec_file(dir, slot))?)?;
            if codec.input_dim() != dim {
                return Err(bad("stored codec and index disagree on dimension"));
            }
            codecs.push(Arc::new(codec));
        }
        let codec = match current {
            NO_CODEC => None,
            slot => Some(Arc::clone(
                codecs
                    .get(slot as usize)
                    .ok_or_else(|| bad("current codec slot out of range"))?,
            )),
        };
        let mut segments = Vec::new();
        for i in 0..n_segments {
            segments.push(Segment::load(&dir.join(format!("seg{i:03}")), &codecs)?);
        }
        Ok(LsmVectorIndex::restore(
            config,
            MemTable::new(dim),
            segments,
            codec,
            next_id,
            codec_fits,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("hnsw_flash_lsm_persist")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn populated_index(n: usize, seed: u64) -> LsmVectorIndex {
        let mut config = LsmConfig::for_dim(16);
        config.memtable_cap = 200;
        config.hnsw = HnswParams {
            c: 48,
            r: 8,
            seed: 5,
        };
        let mut index = LsmVectorIndex::new(config);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..n {
            let v: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
            index.insert(&v);
        }
        index
    }

    #[test]
    fn segment_save_load_round_trips_search() {
        let dir = tmp("segment_roundtrip");
        let (base, queries) =
            vecstore::generate(&vecstore::DatasetProfile::SsnppLike.spec(), 400, 5, 11);
        let ids: Vec<u64> = (0..400u64).map(|i| i * 2).collect();
        let codec = FlashCodec::train(&base, FlashParams::auto(256));
        let stored = Arc::new(FlashCodec::from_bytes(&codec.to_bytes()).unwrap());
        let mut seg = Segment::build(
            base,
            ids,
            Arc::new(codec),
            HnswParams {
                c: 48,
                r: 8,
                seed: 3,
            },
        );
        seg.delete(10);
        seg.save(&dir, 0).unwrap();

        assert!(Segment::load(&dir, &[]).is_err(), "slot 0 of no codecs");
        let loaded = Segment::load(&dir, &[stored]).unwrap();
        assert_eq!(loaded.len(), 400);
        assert_eq!(loaded.live(), 399);
        assert!(!loaded.contains(10));
        assert_eq!(loaded.codes(), seg.codes());
        for qi in 0..queries.len() {
            let a = seg.search(queries.get(qi), 5, 64);
            let b = loaded.search(queries.get(qi), 5, 64);
            assert_eq!(
                a.iter().map(|h| h.id).collect::<Vec<_>>(),
                b.iter().map(|h| h.id).collect::<Vec<_>>(),
                "query {qi}"
            );
        }
    }

    #[test]
    fn lsm_save_load_preserves_state_and_ids() {
        let dir = tmp("lsm_roundtrip");
        let mut index = populated_index(500, 7);
        index.delete(3);
        index.delete(450); // still in the memtable
        index.save(&dir).unwrap();

        let loaded = LsmVectorIndex::load(&dir).unwrap();
        let (a, b) = (index.stats(), loaded.stats());
        assert_eq!(a.live, b.live);
        assert_eq!(b.memtable, 0, "on-disk form is fully sealed");
        assert!(!loaded.contains(3));
        assert!(!loaded.contains(450));
        assert!(loaded.contains(100));

        // New inserts continue the id sequence without collisions.
        let mut loaded = loaded;
        let fresh = loaded.insert(&[0.5; 16]);
        assert_eq!(fresh, 500);
    }

    /// A vector of `populated_index`'s distribution, or — `drifted` — one
    /// spread eight times wider over its first four dimensions only.
    fn sample(rng: &mut SmallRng, drifted: bool) -> Vec<f32> {
        (0..16)
            .map(|d| match (drifted, d < 4) {
                (false, _) => rng.gen_range(-1.0..1.0),
                (true, true) => rng.gen_range(-8.0..8.0),
                (true, false) => 0.0,
            })
            .collect()
    }

    #[test]
    fn lsm_search_agrees_after_reload() {
        let dir = tmp("lsm_search");
        let mut index = populated_index(400, 13);
        // A segment made by a rebuild, a flush coded through the rebuild's
        // codec, and a flush the drift guard re-fitted.
        index.rebuild();
        let mut rng = SmallRng::seed_from_u64(17);
        let fits = index.stats().codec_fits;
        for _ in 0..200 {
            index.insert(&sample(&mut rng, false));
        }
        assert_eq!(index.stats().codec_fits, fits, "same data reuses the codec");
        for _ in 0..200 {
            index.insert(&sample(&mut rng, true));
        }
        assert_eq!(index.stats().codec_fits, fits + 1, "drifted data re-fits");
        index.delete(5);
        index.save(&dir).unwrap();
        let segments = index.segments();
        assert_eq!(segments.len(), 3);
        assert!(Arc::ptr_eq(segments[0].codec(), segments[1].codec()));
        assert!(!Arc::ptr_eq(segments[1].codec(), segments[2].codec()));
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            1 + 2 + 3,
            "meta, codecs, segments"
        );

        let loaded = LsmVectorIndex::load(&dir).unwrap();
        // Loading trains nothing: the count is the saved index's.
        assert_eq!(loaded.stats(), index.stats());
        for (i, (a, b)) in segments.iter().zip(loaded.segments()).enumerate() {
            assert_eq!(a.codes(), b.codes(), "segment {i}");
            assert_eq!(a.codec().to_bytes(), b.codec().to_bytes(), "segment {i}");
        }
        let shared = loaded.segments();
        assert!(Arc::ptr_eq(shared[0].codec(), shared[1].codec()));
        assert!(Arc::ptr_eq(loaded.codec().unwrap(), shared[2].codec()));
        assert_eq!(loaded.bytes(), index.bytes());

        let hits = |index: &LsmVectorIndex, q: &[f32]| -> Vec<(u64, u32)> {
            let found = index.search(q, 10, 96);
            found.iter().map(|h| (h.id, h.dist.to_bits())).collect()
        };
        let mut rng = SmallRng::seed_from_u64(99);
        for qi in 0..100 {
            let q = sample(&mut rng, qi % 2 == 1);
            assert_eq!(hits(&index, &q), hits(&loaded, &q), "query {qi}");
        }

        // The current codec survives: a further drifted flush encodes
        // through it on both sides.
        let mut loaded = loaded;
        for _ in 0..200 {
            let v = sample(&mut rng, true);
            index.insert(&v);
            loaded.insert(&v);
        }
        assert_eq!(loaded.stats(), index.stats());
        assert_eq!(loaded.stats().codec_fits, fits + 1);
        assert_eq!(index.segments()[3].codes(), loaded.segments()[3].codes());
    }

    #[test]
    fn version_one_directory_refused() {
        let dir = tmp("version_one");
        let mut index = populated_index(250, 9);
        index.save(&dir).unwrap();
        let codec =
            Arc::new(FlashCodec::from_bytes(&fs::read(dir.join("codec000.hfc")).unwrap()).unwrap());
        for (file, magic) in [
            ("lsm.meta", b"HFLSM01\0"),
            ("seg000/seg.meta", b"HFSEG01\0"),
        ] {
            let path = dir.join(file);
            let mut bytes = fs::read(&path).unwrap();
            bytes[..8].copy_from_slice(magic);
            fs::write(&path, &bytes).unwrap();
        }
        let err = LsmVectorIndex::load(&dir).err().unwrap().to_string();
        assert!(
            err.contains("unsupported LSM index meta format version `01`"),
            "{err}"
        );
        let err = Segment::load(&dir.join("seg000"), &[codec])
            .err()
            .unwrap()
            .to_string();
        assert!(
            err.contains("unsupported LSM segment meta format version `01`"),
            "{err}"
        );
    }

    #[test]
    fn corrupt_meta_rejected() {
        let dir = tmp("corrupt");
        let mut index = populated_index(250, 3);
        index.save(&dir).unwrap();
        // Flip the magic.
        let meta = dir.join("lsm.meta");
        let mut bytes = fs::read(&meta).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&meta, &bytes).unwrap();
        assert!(LsmVectorIndex::load(&dir).is_err());
    }

    #[test]
    fn missing_segment_dir_rejected() {
        let dir = tmp("missing_seg");
        let mut index = populated_index(250, 5);
        index.save(&dir).unwrap();
        fs::remove_dir_all(dir.join("seg000")).unwrap();
        assert!(LsmVectorIndex::load(&dir).is_err());
    }
}
