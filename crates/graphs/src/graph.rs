//! Flat, cache-friendly adjacency containers produced by the builders.
//!
//! Builders work on mutable node records; once construction finishes they
//! freeze into these read-only structures, which the search routines (and
//! the ADSampling / VBase variants) traverse without synchronization.
//!
//! The frozen layout is CSR (compressed sparse row), not nested vecs:
//! every neighbor list lives in one flat, 64-byte-aligned slab and starts
//! on a cache-line boundary, so expanding a candidate touches one or two
//! lines instead of chasing a `Vec<Vec<u32>>` double indirection. The
//! builders still assemble nested `Vec<Vec<u32>>` (cheap to grow one row at
//! a time) and convert once via [`CsrLayer::from_nested`].

/// `u32` slots per 64-byte cache line; neighbor rows start on multiples
/// of this so a degree-16 list occupies exactly one line.
pub const LINE_U32S: usize = 16;

/// One 64-byte-aligned line of neighbor-id storage.
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy)]
struct Line([u32; LINE_U32S]);

/// One adjacency layer in CSR form with cache-line-aligned rows.
///
/// `starts[node]` is the row's first slot in the flat id slab (always a
/// multiple of [`LINE_U32S`]) and `lens[node]` its degree; rows are padded
/// with zeros to the next line boundary, so the logical content is exactly
/// the nested adjacency it was frozen from.
#[derive(Debug, Clone, Default)]
pub struct CsrLayer {
    starts: Vec<u32>,
    lens: Vec<u32>,
    lines: Vec<Line>,
    edges: usize,
}

impl CsrLayer {
    /// Freezes nested adjacency into CSR. Row order and within-row
    /// neighbor order are preserved exactly.
    pub fn from_nested(adj: &[Vec<u32>]) -> Self {
        let total_lines: usize = adj.iter().map(|l| l.len().div_ceil(LINE_U32S)).sum();
        assert!(
            total_lines * LINE_U32S <= u32::MAX as usize,
            "adjacency too large for u32 CSR offsets"
        );
        let mut starts = Vec::with_capacity(adj.len());
        let mut lens = Vec::with_capacity(adj.len());
        let mut lines = vec![Line([0; LINE_U32S]); total_lines];
        let slab: &mut [u32] = {
            // SAFETY: `Line` is `#[repr(C)]` over `[u32; LINE_U32S]`, so a
            // `Vec<Line>` is a contiguous array of `lines.len() * LINE_U32S`
            // properly initialized `u32`s.
            unsafe {
                std::slice::from_raw_parts_mut(
                    lines.as_mut_ptr().cast::<u32>(),
                    total_lines * LINE_U32S,
                )
            }
        };
        let mut cursor = 0usize;
        let mut edges = 0usize;
        for list in adj {
            starts.push(cursor as u32);
            lens.push(list.len() as u32);
            slab[cursor..cursor + list.len()].copy_from_slice(list);
            cursor += list.len().div_ceil(LINE_U32S) * LINE_U32S;
            edges += list.len();
        }
        Self {
            starts,
            lens,
            lines,
            edges,
        }
    }

    /// Number of nodes (rows).
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the layer has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// The flat id slab (rows plus zero padding), line-aligned.
    #[inline]
    fn slab(&self) -> &[u32] {
        // SAFETY: see `from_nested` — `Vec<Line>` is a contiguous `u32` array.
        unsafe {
            std::slice::from_raw_parts(
                self.lines.as_ptr().cast::<u32>(),
                self.lines.len() * LINE_U32S,
            )
        }
    }

    /// Neighbor row of `node`.
    #[inline]
    pub fn neighbors(&self, node: usize) -> &[u32] {
        let start = self.starts[node] as usize;
        let len = self.lens[node] as usize;
        &self.slab()[start..start + len]
    }

    /// Degree of `node`.
    #[inline]
    pub fn degree(&self, node: usize) -> usize {
        self.lens[node] as usize
    }

    /// Total directed edges.
    #[inline]
    pub fn edges(&self) -> usize {
        self.edges
    }

    /// Iterates rows in node order.
    pub fn rows(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len()).map(move |i| self.neighbors(i))
    }

    /// Thaws back into nested adjacency (tests, legacy interop).
    pub fn to_nested(&self) -> Vec<Vec<u32>> {
        self.rows().map(<[u32]>::to_vec).collect()
    }
}

impl PartialEq for CsrLayer {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.rows().eq(other.rows())
    }
}

impl Eq for CsrLayer {}

/// A frozen graph: HNSW's layers, or the one layer of a flat builder (NSG,
/// τ-MG, Vamana, HCNNG) entered at its medoid.
///
/// Layer `l`, node `node` has the neighbor row `neighbors(l, node)`; nodes
/// absent from a layer have empty rows. Layer 0 contains every node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphLayers {
    /// Per-layer CSR adjacency; index 0 is the base layer.
    layers: Vec<CsrLayer>,
    /// Entry point for searches (highest-layer node).
    pub entry: u32,
    /// Index of the highest non-empty layer.
    pub max_layer: usize,
}

impl GraphLayers {
    /// Freezes nested per-layer adjacency (`layers[l][node]`) into CSR.
    pub fn from_nested(layers: Vec<Vec<Vec<u32>>>, entry: u32, max_layer: usize) -> Self {
        Self {
            layers: layers.iter().map(|l| CsrLayer::from_nested(l)).collect(),
            entry,
            max_layer,
        }
    }

    /// Number of layers (≥ 1 for a non-degenerate graph).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The CSR adjacency of `layer`.
    #[inline]
    pub fn layer(&self, layer: usize) -> &CsrLayer {
        &self.layers[layer]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.layers.first().map_or(0, CsrLayer::len)
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Neighbor list of `node` at `layer`.
    #[inline]
    pub fn neighbors(&self, layer: usize, node: u32) -> &[u32] {
        self.layers[layer].neighbors(node as usize)
    }

    /// Total directed edges in the base layer.
    pub fn base_edges(&self) -> usize {
        self.layers[0].edges()
    }

    /// Adjacency memory in bytes (ids only): the graph part of the paper's
    /// index-size metric.
    pub fn adjacency_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.edges() * std::mem::size_of::<u32>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_accounting() {
        let g = GraphLayers::from_nested(
            vec![
                vec![vec![1], vec![0], vec![0, 1]],
                vec![vec![], vec![], vec![]],
            ],
            2,
            0,
        );
        assert_eq!(g.len(), 3);
        assert_eq!(g.base_edges(), 4);
        assert_eq!(g.adjacency_bytes(), 16);
        assert_eq!(g.neighbors(0, 2), &[0, 1]);
    }

    #[test]
    fn csr_rows_are_cache_line_aligned() {
        // 20 neighbors spill into a second line; the next row must start
        // fresh on a line boundary, not right after the 20th id.
        let long: Vec<u32> = (0..20).collect();
        let csr = CsrLayer::from_nested(&[long.clone(), vec![7, 8]]);
        assert_eq!(csr.neighbors(0), &long[..]);
        assert_eq!(csr.neighbors(1), &[7, 8]);
        for node in 0..csr.len() {
            let ptr = csr.neighbors(node).as_ptr() as usize;
            assert_eq!(ptr % 64, 0, "row {node} not 64-byte aligned");
        }
        assert_eq!(csr.edges(), 22);
    }

    #[test]
    fn csr_round_trips_empty_and_uneven_rows() {
        let nested = vec![vec![], vec![3, 1, 2], vec![], (0..16).collect(), vec![0]];
        let csr = CsrLayer::from_nested(&nested);
        assert_eq!(csr.to_nested(), nested);
        assert_eq!(csr.len(), 5);
        assert_eq!(csr.degree(0), 0);
        assert_eq!(csr.degree(3), 16);
    }

    #[test]
    fn csr_equality_is_logical() {
        let a = CsrLayer::from_nested(&[vec![1, 2], vec![]]);
        let b = CsrLayer::from_nested(&[vec![1, 2], vec![]]);
        let c = CsrLayer::from_nested(&[vec![2, 1], vec![]]);
        assert_eq!(a, b);
        assert_ne!(a, c, "order is part of the contract");
    }
}
