//! Binary persistence for frozen graphs.
//!
//! The paper's motivating deployment rebuilds indexes overnight and serves
//! them immediately after; that requires writing the built topology to disk
//! and mapping it back without re-running construction. This module gives
//! [`GraphLayers`] a compact little-endian on-disk format (magic + version
//! + kind + method + adjacency), dependency-free.
//!
//! The format (`HFGRAPH3`) mirrors the in-memory CSR layout — node count,
//! the degree array, then all targets concatenated — so a load is two bulk
//! reads per layer. There is one graph kind, `ML` (layer count, then the
//! layers): HNSW writes its layers, a flat builder's graph (NSG, τ-MG,
//! Vamana, HCNNG) is one layer. The header records the `<graph>:<coding>`
//! method the topology was built with (`vamana:flash`), so a server can
//! refuse to pair the file with another provider. The retired kind `FL` is
//! refused with an error naming it, and so are the pre-CSR `HFGRAPH1` and
//! the method-less `HFGRAPH2` ("unsupported graph format version").
//!
//! Length words come straight from the (possibly corrupt or hostile) file,
//! so no allocation trusts them: preallocation is capped at
//! [`PREALLOC_CAP`] elements and vectors grow incrementally past it,
//! meaning a forged multi-GB header fails with a clean read error instead
//! of an out-of-memory abort.
//!
//! Vector data and codec state are *not* stored here: providers re-derive
//! them from the dataset (codes re-encode deterministically from the same
//! codec seed), matching how segment files and index files are managed
//! separately in LSM-style vector stores.

use crate::graph::{CsrLayer, GraphLayers};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic of the current format: the `HFGRAPH` tag plus the version digit.
const MAGIC: &[u8; 8] = b"HFGRAPH3";

/// Ceiling on elements preallocated from an untrusted length word.
const PREALLOC_CAP: usize = 1 << 16;

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// `Vec::with_capacity` that refuses to trust an untrusted length word
/// beyond [`PREALLOC_CAP`]; pushes past the cap just grow normally.
fn bounded_vec<T>(claimed_len: usize) -> Vec<T> {
    Vec::with_capacity(claimed_len.min(PREALLOC_CAP))
}

/// Writes one layer in CSR shape: `n`, the `n` degrees, then all targets
/// row-concatenated (no padding on disk).
fn write_csr_adjacency(w: &mut impl Write, rows: &CsrLayer) -> io::Result<()> {
    write_u32(w, rows.len() as u32)?;
    for node in 0..rows.len() {
        write_u32(w, rows.degree(node) as u32)?;
    }
    for row in rows.rows() {
        for &id in row {
            write_u32(w, id)?;
        }
    }
    Ok(())
}

/// Reads one CSR-shaped layer back into nested lists (frozen to CSR
/// by the caller). Every edge target is validated against `max_id`.
fn read_csr_adjacency(r: &mut impl Read, max_id: u32) -> io::Result<Vec<Vec<u32>>> {
    let n = read_u32(r)? as usize;
    let mut lens: Vec<usize> = bounded_vec(n);
    for _ in 0..n {
        let len = read_u32(r)? as usize;
        if len > max_id as usize {
            return Err(bad("neighbor list longer than the graph"));
        }
        lens.push(len);
    }
    let mut adj: Vec<Vec<u32>> = bounded_vec(n);
    for &len in &lens {
        let mut list = bounded_vec(len);
        for _ in 0..len {
            let id = read_u32(r)?;
            if id >= max_id {
                return Err(bad("edge target out of range"));
            }
            list.push(id);
        }
        adj.push(list);
    }
    Ok(adj)
}

/// Checks the magic: the `HFGRAPH` tag, then the one supported version.
fn read_magic(r: &mut impl Read) -> io::Result<()> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic == MAGIC {
        Ok(())
    } else if magic[..7] == MAGIC[..7] {
        Err(bad(&format!(
            "unsupported graph format version `{}` (this build reads version 3; \
             rebuild the index to rewrite the file)",
            char::from(magic[7])
        )))
    } else {
        Err(bad("not a graph file (bad magic)"))
    }
}

/// Reads the method label: a length byte, then that many UTF-8 bytes.
fn read_method(r: &mut impl Read) -> io::Result<String> {
    let mut len = [0u8];
    r.read_exact(&mut len)?;
    let mut bytes = vec![0u8; usize::from(len[0])];
    r.read_exact(&mut bytes)?;
    String::from_utf8(bytes).map_err(|_| bad("method label is not UTF-8"))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl GraphLayers {
    /// Serializes the multi-layer graph to `path` (current format),
    /// recording `method`, the `<graph>:<coding>` pair it was built with.
    ///
    /// # Errors
    /// Returns any underlying I/O error.
    ///
    /// # Panics
    /// Panics if `method` is longer than 255 bytes.
    pub fn save(&self, path: &Path, method: &str) -> io::Result<()> {
        let len = u8::try_from(method.len()).expect("a method label of at most 255 bytes");
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(MAGIC)?;
        w.write_all(b"ML")?;
        w.write_all(&[len])?;
        w.write_all(method.as_bytes())?;
        write_u32(&mut w, self.entry)?;
        write_u32(&mut w, self.max_layer as u32)?;
        write_u32(&mut w, self.num_layers() as u32)?;
        for l in 0..self.num_layers() {
            write_csr_adjacency(&mut w, self.layer(l))?;
        }
        w.flush()
    }

    /// Loads a multi-layer graph from `path`, validating the header and
    /// all edge targets. Returns the graph and the method it was built
    /// with.
    ///
    /// # Errors
    /// Returns an error on I/O failure or a malformed/corrupt file.
    pub fn load(path: &Path) -> io::Result<(GraphLayers, String)> {
        let mut r = BufReader::new(File::open(path)?);
        read_magic(&mut r)?;
        let mut kind = [0u8; 2];
        r.read_exact(&mut kind)?;
        match &kind {
            b"ML" => {}
            b"FL" => {
                return Err(bad(
                    "retired graph kind `FL` (rebuild the index to rewrite the file)",
                ))
            }
            _ => return Err(bad("unknown graph kind")),
        }
        let method = read_method(&mut r)?;
        let entry = read_u32(&mut r)?;
        let max_layer = read_u32(&mut r)? as usize;
        let n_layers = read_u32(&mut r)? as usize;
        if n_layers == 0 || max_layer >= n_layers {
            return Err(bad("inconsistent layer header"));
        }
        let mut layers = bounded_vec(n_layers);
        let mut n_nodes = u32::MAX;
        for _ in 0..n_layers {
            let layer = read_csr_adjacency(&mut r, n_nodes)?;
            if n_nodes == u32::MAX {
                n_nodes = layer.len() as u32; // base layer defines the node count
                if entry >= n_nodes {
                    return Err(bad("entry point out of range"));
                }
                // Re-validate base-layer edges against the real bound.
                for list in &layer {
                    if list.iter().any(|&id| id >= n_nodes) {
                        return Err(bad("edge target out of range"));
                    }
                }
            } else if layer.len() as u32 != n_nodes {
                return Err(bad("layer node counts differ"));
            }
            layers.push(layer);
        }
        Ok((GraphLayers::from_nested(layers, entry, max_layer), method))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hnsw_flash_persist_{}_{name}", std::process::id()));
        p
    }

    fn sample_layers() -> GraphLayers {
        GraphLayers::from_nested(
            vec![
                vec![vec![1, 2], vec![0], vec![0, 1]],
                vec![vec![], vec![2], vec![1]],
            ],
            2,
            1,
        )
    }

    /// The header of a current-format file up to the method label.
    fn header(method: &str) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(b"ML");
        bytes.push(method.len() as u8);
        bytes.extend_from_slice(method.as_bytes());
        bytes
    }

    /// A graph file in the current format, written by hand so tests can
    /// forge any field: `layers[l][node]` is a neighbor row.
    fn graph_bytes(entry: u32, max_layer: u32, layers: &[Vec<Vec<u32>>]) -> Vec<u8> {
        let mut bytes = header("hnsw:flash");
        bytes.extend_from_slice(&entry.to_le_bytes());
        bytes.extend_from_slice(&max_layer.to_le_bytes());
        bytes.extend_from_slice(&(layers.len() as u32).to_le_bytes());
        for adj in layers {
            bytes.extend_from_slice(&(adj.len() as u32).to_le_bytes());
            for list in adj {
                bytes.extend_from_slice(&(list.len() as u32).to_le_bytes());
            }
            for &id in adj.iter().flatten() {
                bytes.extend_from_slice(&id.to_le_bytes());
            }
        }
        bytes
    }

    #[test]
    fn layers_roundtrip() {
        let path = tmp("a.graph");
        let g = sample_layers();
        g.save(&path, "hnsw:pq").unwrap();
        let (back, method) = GraphLayers::load(&path).unwrap();
        assert_eq!(method, "hnsw:pq");
        assert_eq!(back.entry, g.entry);
        assert_eq!(back.max_layer, g.max_layer);
        assert_eq!(back, g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flat_roundtrip() {
        // A flat builder's graph: one layer, entered off node 0.
        let path = tmp("b.graph");
        let g = GraphLayers::from_nested(vec![vec![vec![1], vec![2, 0], vec![]]], 1, 0);
        g.save(&path, "vamana:flash").unwrap();
        let (back, method) = GraphLayers::load(&path).unwrap();
        assert_eq!(method, "vamana:flash");
        assert_eq!(back.entry, 1);
        assert_eq!(back.num_layers(), 1);
        assert_eq!(back, g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hand_written_bytes_match_the_writer() {
        let path = tmp("bytes.graph");
        let layers = vec![
            vec![vec![1u32, 2], vec![0], vec![]],
            vec![vec![], vec![], vec![1]],
        ];
        GraphLayers::from_nested(layers.clone(), 2, 1)
            .save(&path, "hnsw:flash")
            .unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), graph_bytes(2, 1, &layers));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retired_versions_fail_with_an_unsupported_version_error() {
        let path = tmp("retired.graph");
        // Well-formed files of the pre-CSR format (either kind) and of the
        // CSR format without a method: only the version digit differs from
        // what `load` accepts, and the error must say so.
        for (magic, kind) in [
            (b"HFGRAPH1", b"FL"),
            (b"HFGRAPH1", b"ML"),
            (b"HFGRAPH2", b"ML"),
        ] {
            let mut bytes = magic.to_vec();
            bytes.extend_from_slice(kind);
            bytes.extend_from_slice(&[0u8; 16]);
            std::fs::write(&path, &bytes).unwrap();
            let err = GraphLayers::load(&path).map(|_| ()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let version = char::from(magic[7]);
            assert!(
                err.to_string()
                    .contains(&format!("unsupported graph format version `{version}`")),
                "{err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn method_labels_that_are_not_utf8_are_refused() {
        let path = tmp("method.graph");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(b"ML");
        bytes.extend_from_slice(&[2, 0xff, 0xfe]); // a label that is not UTF-8
        std::fs::write(&path, &bytes).unwrap();
        let err = GraphLayers::load(&path).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("UTF-8"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_wrong_magic() {
        let path = tmp("c.graph");
        std::fs::write(&path, b"NOTAGRAPHFILE").unwrap();
        assert!(GraphLayers::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retired_flat_kind_is_refused() {
        // A well-formed file of the retired `FL` kind: magic, kind, entry,
        // then one CSR layer.
        let path = tmp("d.graph");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(b"FL");
        for word in [0u32, 2, 1, 1, 1, 0] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let err = GraphLayers::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("retired graph kind `FL`"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_out_of_range_edges() {
        let path = tmp("e.graph");
        // Hand-craft a file with an edge to node 9 in a 2-node graph, on
        // the base layer and on an upper one.
        for layers in [
            vec![vec![vec![9], vec![]]],
            vec![vec![vec![1], vec![0]], vec![vec![], vec![9]]],
        ] {
            std::fs::write(&path, graph_bytes(0, 0, &layers)).unwrap();
            let err = GraphLayers::load(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_an_error() {
        let path = tmp("f.graph");
        sample_layers().save(&path, "hnsw:flash").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(GraphLayers::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn forged_huge_node_count_fails_without_oom() {
        // A 41-byte file claiming u32::MAX nodes in its one layer: the
        // reader must hit EOF with a clean error instead of preallocating
        // gigabytes.
        let path = tmp("g.graph");
        let mut bytes = header("hnsw:flash");
        bytes.extend_from_slice(&0u32.to_le_bytes()); // entry
        bytes.extend_from_slice(&0u32.to_le_bytes()); // max_layer
        bytes.extend_from_slice(&1u32.to_le_bytes()); // n_layers
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // forged n
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // forged len
        std::fs::write(&path, &bytes).unwrap();
        let err = GraphLayers::load(&path).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
            ),
            "unexpected error kind {:?}",
            err.kind()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn forged_huge_layer_count_fails_without_oom() {
        let path = tmp("h.graph");
        let mut bytes = header("hnsw:flash");
        bytes.extend_from_slice(&0u32.to_le_bytes()); // entry
        bytes.extend_from_slice(&0u32.to_le_bytes()); // max_layer
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // forged n_layers
        std::fs::write(&path, &bytes).unwrap();
        assert!(GraphLayers::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
