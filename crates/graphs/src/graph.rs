//! Flat, cache-friendly adjacency containers produced by the builders.
//!
//! Builders work on mutable row records; once construction finishes they
//! freeze into these read-only structures, which the search routines (and
//! the ADSampling / VBase variants) traverse without synchronization.
//!
//! The frozen layout is CSR (compressed sparse row), not nested vecs:
//! every neighbor list lives in one flat, 64-byte-aligned slab and starts
//! on a cache-line boundary, so expanding a candidate touches one or two
//! lines instead of chasing a `Vec<Vec<u32>>` double indirection. HNSW
//! freezes straight from its fixed-stride row records; nested adjacency
//! (the flat builders' connectivity repair, `persist`'s loader) converts
//! once via [`CsrLayer::from_nested`].

/// `u32` slots per 64-byte cache line; neighbor rows start on multiples
/// of this so a degree-16 list occupies exactly one line.
pub const LINE_U32S: usize = 16;

/// One 64-byte-aligned line of neighbor-id storage (the CSR slab here, the
/// builder's fixed-stride row records in [`crate::hnsw`]).
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy)]
pub(crate) struct Line([u32; LINE_U32S]);

impl Line {
    /// A line of zeros.
    pub(crate) const ZERO: Self = Self([0; LINE_U32S]);
}

/// `lines` as one contiguous `u32` array.
#[inline]
pub(crate) fn words(lines: &[Line]) -> &[u32] {
    // SAFETY: `Line` is `#[repr(C)]` over `[u32; LINE_U32S]`, so a slice of
    // lines is a contiguous array of `lines.len() * LINE_U32S` initialized
    // `u32`s.
    unsafe { std::slice::from_raw_parts(lines.as_ptr().cast::<u32>(), lines.len() * LINE_U32S) }
}

/// [`words`], mutably.
#[inline]
pub(crate) fn words_mut(lines: &mut [Line]) -> &mut [u32] {
    // SAFETY: as in `words`; the borrow is exclusive for its lifetime.
    unsafe {
        std::slice::from_raw_parts_mut(lines.as_mut_ptr().cast::<u32>(), lines.len() * LINE_U32S)
    }
}

/// `words` as bytes, in memory order.
#[inline]
pub(crate) fn bytes(words: &[u32]) -> &[u8] {
    // SAFETY: `u8` has alignment 1 and every `u32` is four initialized
    // bytes.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), std::mem::size_of_val(words)) }
}

/// [`bytes`], mutably.
#[inline]
pub(crate) fn bytes_mut(words: &mut [u32]) -> &mut [u8] {
    // SAFETY: as in `bytes`; any byte pattern is a valid `u32`, and the
    // borrow is exclusive for its lifetime.
    unsafe {
        std::slice::from_raw_parts_mut(
            words.as_mut_ptr().cast::<u8>(),
            std::mem::size_of_val(words),
        )
    }
}

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
        Self::from_rows(adj.len(), |node| &adj[node])
    }

    /// Freezes the `n` rows `row(0..n)` into CSR, in one pass that sizes
    /// the slab and one that copies the rows.
    pub(crate) fn from_rows<'a>(n: usize, row: impl Fn(usize) -> &'a [u32]) -> Self {
        let total_lines: usize = (0..n).map(|i| row(i).len().div_ceil(LINE_U32S)).sum();
        assert!(
            total_lines * LINE_U32S <= u32::MAX as usize,
            "adjacency too large for u32 CSR offsets"
        );
        let mut starts = Vec::with_capacity(n);
        let mut lens = Vec::with_capacity(n);
        let mut lines = vec![Line::ZERO; total_lines];
        let slab = words_mut(&mut lines);
        let mut cursor = 0usize;
        let mut edges = 0usize;
        for list in (0..n).map(row) {
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

    /// Neighbor row of `node`.
    #[inline]
    pub fn neighbors(&self, node: usize) -> &[u32] {
        let start = self.starts[node] as usize;
        let len = self.lens[node] as usize;
        &words(&self.lines)[start..start + len]
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
        let layers = layers.iter().map(|l| CsrLayer::from_nested(l)).collect();
        Self::from_layers(layers, entry, max_layer)
    }

    /// Assembles frozen layers (index 0 the base) entered at `entry`.
    pub(crate) fn from_layers(layers: Vec<CsrLayer>, entry: u32, max_layer: usize) -> Self {
        Self {
            layers,
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
