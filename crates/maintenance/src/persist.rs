//! On-disk persistence for the LSM index — the missing half of the
//! overnight-rebuild story: the rebuilt index must be *served* after a
//! process restart without re-running construction.
//!
//! Layout (all little-endian, versioned magics):
//!
//! ```text
//! <dir>/
//!   lsm.meta            index-level config + id counter
//!   seg000/ … segNNN/   one directory per sealed segment:
//!     vectors.fvecs       raw vectors (standard fvecs)
//!     graph.hfg           frozen topology (graphs::persist format)
//!     seg.meta            ids, tombstones, Flash + HNSW parameters
//! ```
//!
//! Flash codes are *not* stored: the codec retrains deterministically from
//! the persisted vectors and seed. A sealed segment already serves from
//! its frozen topology ([`graphs::FrozenGraph`]), so reloading pairs the
//! retrained provider with the stored graph and nothing else is rebuilt —
//! the reloaded segment runs the same [`graphs::search_layers_filtered`]
//! beam over the same bytes as the original.

use crate::lsm::{LsmConfig, LsmVectorIndex};
use crate::memtable::MemTable;
use crate::segment::Segment;
use flash::FlashParams;
use graphs::HnswParams;
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

const SEG_MAGIC: &[u8; 8] = b"HFSEG01\0";
const LSM_MAGIC: &[u8; 8] = b"HFLSM01\0";

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
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
    /// Writes the segment under `dir` (created if missing).
    ///
    /// # Errors
    /// Returns any underlying I/O error.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
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
        write_flash_params(&mut w, self.flash_params())?;
        write_hnsw_params(&mut w, self.hnsw_params())?;
        w.flush()
    }

    /// Reloads a segment from `dir`: vectors from fvecs, topology from the
    /// graph file, codec retrained deterministically from the stored
    /// parameters.
    ///
    /// # Errors
    /// Returns an error on I/O failure or a malformed/corrupt directory.
    pub fn load(dir: &Path) -> io::Result<Segment> {
        let vectors = vecstore::io::read_fvecs(&dir.join("vectors.fvecs"))?;
        let graph = graphs::GraphLayers::load(&dir.join("graph.hfg"))?;

        let mut r = io::BufReader::new(fs::File::open(dir.join("seg.meta"))?);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != SEG_MAGIC {
            return Err(bad("not a segment meta file"));
        }
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
        let flash = read_flash_params(&mut r)?;
        let hnsw = read_hnsw_params(&mut r)?;

        Ok(Segment::restore(vectors, graph, ids, dead, flash, hnsw))
    }
}

impl LsmVectorIndex {
    /// Persists the whole index under `dir`. The memtable is flushed into
    /// a segment first, so the on-disk form is entirely immutable files.
    ///
    /// # Errors
    /// Returns any underlying I/O error. A partially written directory
    /// from a failed save will be rejected by [`Self::load`].
    pub fn save(&mut self, dir: &Path) -> io::Result<()> {
        self.flush();
        fs::create_dir_all(dir)?;
        let mut w = io::BufWriter::new(fs::File::create(dir.join("lsm.meta"))?);
        w.write_all(LSM_MAGIC)?;
        let config = *self.config();
        write_u32(&mut w, config.dim as u32)?;
        write_u32(&mut w, config.memtable_cap as u32)?;
        write_flash_params(&mut w, &config.flash)?;
        write_hnsw_params(&mut w, &config.hnsw)?;
        write_u64(&mut w, self.next_id())?;
        write_u32(&mut w, self.segments().len() as u32)?;
        w.flush()?;
        for (i, seg) in self.segments().iter().enumerate() {
            seg.save(&dir.join(format!("seg{i:03}")))?;
        }
        Ok(())
    }

    /// Reloads an index persisted by [`Self::save`].
    ///
    /// # Errors
    /// Returns an error on I/O failure or a malformed/corrupt directory.
    pub fn load(dir: &Path) -> io::Result<LsmVectorIndex> {
        let mut r = io::BufReader::new(fs::File::open(dir.join("lsm.meta"))?);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != LSM_MAGIC {
            return Err(bad("not an LSM index directory"));
        }
        let dim = read_u32(&mut r)? as usize;
        let memtable_cap = read_u32(&mut r)? as usize;
        let flash = read_flash_params(&mut r)?;
        let hnsw = read_hnsw_params(&mut r)?;
        let next_id = read_u64(&mut r)?;
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
        let mut segments = Vec::with_capacity(n_segments);
        for i in 0..n_segments {
            segments.push(Segment::load(&dir.join(format!("seg{i:03}")))?);
        }
        Ok(LsmVectorIndex::restore(
            config,
            MemTable::new(dim),
            segments,
            next_id,
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
        let mut seg = Segment::build(
            base,
            ids,
            FlashParams::auto(256),
            HnswParams {
                c: 48,
                r: 8,
                seed: 3,
            },
        );
        seg.delete(10);
        seg.save(&dir).unwrap();

        let loaded = Segment::load(&dir).unwrap();
        assert_eq!(loaded.len(), 400);
        assert_eq!(loaded.live(), 399);
        assert!(!loaded.contains(10));
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

    #[test]
    fn lsm_search_agrees_after_reload() {
        let dir = tmp("lsm_search");
        let mut index = populated_index(400, 13);
        index.save(&dir).unwrap();
        let loaded = LsmVectorIndex::load(&dir).unwrap();
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..10 {
            let q: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let a: Vec<u64> = index.search(&q, 5, 96).iter().map(|h| h.id).collect();
            let b: Vec<u64> = loaded.search(&q, 5, 96).iter().map(|h| h.id).collect();
            assert_eq!(a, b);
        }
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
