//! HNSW's row records at the paper's access-aware layout (Section 3.3.4):
//! every neighbor row is one fixed-stride record holding its length, `cap`
//! neighbor id slots and then the provider's payload block for `cap` lanes,
//! so a Candidate Acquisition hop reaches a row and its block with one
//! address computation. Layer 0 is one slab indexed by node id; each
//! node's upper layers are a small record array of its own, as hnswlib
//! keeps them per element.

use crate::graph::{bytes, bytes_mut, words, words_mut, Line, LINE_U32S};
use crate::layers_search::Rows;

/// Where one row's parts sit in its record, in `u32` words: the length at
/// word 0, `cap` id slots from word 1, the block from `block_at`. The id
/// slots, the block and every record start on a cache line.
#[derive(Clone, Copy)]
pub(crate) struct RowLayout {
    cap: usize,
    block_bytes: usize,
    block_at: usize,
    /// The stride of a record, in lines.
    lines: usize,
}

impl RowLayout {
    /// Records of rows of at most `cap` ids with blocks of `block_bytes`.
    pub(crate) fn new(cap: usize, block_bytes: usize) -> Self {
        let block_at = (1 + cap).next_multiple_of(LINE_U32S);
        let words = block_at + block_bytes.div_ceil(4).next_multiple_of(LINE_U32S);
        Self {
            cap,
            block_bytes,
            block_at,
            lines: words / LINE_U32S,
        }
    }

    /// The row's ids in `record`.
    #[inline]
    fn ids<'a>(&self, record: &'a [u32]) -> &'a [u32] {
        &record[1..1 + record[0] as usize]
    }

    /// The row's block in `record`, `block_bytes` long.
    #[inline]
    fn block<'a>(&self, record: &'a [u32]) -> &'a [u8] {
        &bytes(&record[self.block_at..])[..self.block_bytes]
    }
}

/// One row record, writable.
pub(crate) struct RowMut<'a> {
    len: &'a mut u32,
    /// The row's `cap` id slots; the first `len` hold its neighbors.
    pub(crate) slots: &'a mut [u32],
    /// The row's payload block, sized for `cap` lanes.
    pub(crate) block: &'a mut [u8],
}

impl RowMut<'_> {
    /// Number of neighbors in the row.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        *self.len as usize
    }

    /// The row's neighbors.
    #[inline]
    pub(crate) fn ids(&self) -> &[u32] {
        &self.slots[..self.len()]
    }

    /// Makes the first `len` slots the row.
    #[inline]
    pub(crate) fn set_len(&mut self, len: usize) {
        debug_assert!(len <= self.slots.len());
        *self.len = len as u32;
    }
}

/// The record of row `layer` of the node at index `i` of `base` (its
/// layer-0 records) and `upper` (its upper-layer records); `None` where the
/// node has no row at `layer`.
fn row_mut<'a>(
    (base_row, upper_row): (RowLayout, RowLayout),
    base: &'a mut [Line],
    upper: &'a mut [Vec<Line>],
    layer: usize,
    i: usize,
) -> Option<RowMut<'a>> {
    let (layout, lines) = if layer == 0 {
        let n = base_row.lines;
        (base_row, base.get_mut(i * n..(i + 1) * n)?)
    } else {
        let n = upper_row.lines;
        (upper_row, upper[i].get_mut((layer - 1) * n..layer * n)?)
    };
    let (head, block) = words_mut(lines).split_at_mut(layout.block_at);
    let (len, slots) = head.split_first_mut()?;
    Some(RowMut {
        len,
        slots: &mut slots[..layout.cap],
        block: &mut bytes_mut(block)[..layout.block_bytes],
    })
}

/// Every row record of an HNSW index, allocated once for all its nodes.
pub(crate) struct Slab {
    base_row: RowLayout,
    upper_row: RowLayout,
    /// Layer 0: node `i`'s record is lines `i * base_row.lines ..`.
    base: Vec<Line>,
    /// Per node, the records of layers `1..=level` in order (none at level
    /// 0).
    upper: Vec<Vec<Line>>,
}

impl Slab {
    /// Empty rows for nodes of the given levels: `base_row` at layer 0,
    /// `upper_row` above it.
    pub(crate) fn new(levels: &[u8], base_row: RowLayout, upper_row: RowLayout) -> Self {
        Self {
            base_row,
            upper_row,
            base: vec![Line::ZERO; levels.len() * base_row.lines],
            upper: levels
                .iter()
                .map(|&level| vec![Line::ZERO; usize::from(level) * upper_row.lines])
                .collect(),
        }
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.upper.len()
    }

    fn layout(&self, layer: usize) -> RowLayout {
        if layer == 0 {
            self.base_row
        } else {
            self.upper_row
        }
    }

    /// Most neighbors a row at `layer` holds.
    pub(crate) fn cap(&self, layer: usize) -> usize {
        self.layout(layer).cap
    }

    /// `node`'s record at `layer`, if it has a row there.
    #[inline]
    fn record(&self, layer: usize, node: u32) -> Option<&[u32]> {
        let i = node as usize;
        let lines = if layer == 0 {
            let n = self.base_row.lines;
            self.base.get(i * n..(i + 1) * n)
        } else {
            let n = self.upper_row.lines;
            self.upper[i].get((layer - 1) * n..layer * n)
        };
        lines.map(words)
    }

    /// `node`'s neighbors at `layer` (empty where it has no row).
    #[inline]
    pub(crate) fn ids(&self, layer: usize, node: u32) -> &[u32] {
        self.record(layer, node)
            .map_or(&[], |record| self.layout(layer).ids(record))
    }

    /// The block of `node`'s row at `layer`, sized for the row's capacity
    /// (empty where it has no row).
    pub(crate) fn block(&self, layer: usize, node: u32) -> &[u8] {
        self.record(layer, node)
            .map_or(&[], |record| self.layout(layer).block(record))
    }

    /// `node`'s row at `layer`, writable; `None` where it has none.
    pub(crate) fn row_mut(&mut self, layer: usize, node: u32) -> Option<RowMut<'_>> {
        let layouts = (self.base_row, self.upper_row);
        row_mut(
            layouts,
            &mut self.base,
            &mut self.upper,
            layer,
            node as usize,
        )
    }

    /// The records split into ranges of `span ≥ 1` consecutive nodes, each
    /// writable on its own.
    pub(crate) fn ranges_mut(&mut self, span: usize) -> Vec<SlabRange<'_>> {
        let layouts = (self.base_row, self.upper_row);
        (self.base.chunks_mut(span * self.base_row.lines))
            .zip(self.upper.chunks_mut(span))
            .enumerate()
            .map(|(range, (base, upper))| SlabRange {
                first: (range * span) as u32,
                layouts,
                base,
                upper,
            })
            .collect()
    }
}

/// The records of nodes `first..first + len()`.
pub(crate) struct SlabRange<'a> {
    first: u32,
    layouts: (RowLayout, RowLayout),
    base: &'a mut [Line],
    upper: &'a mut [Vec<Line>],
}

impl SlabRange<'_> {
    /// The first node of the range.
    pub(crate) fn first(&self) -> u32 {
        self.first
    }

    /// Number of nodes in the range.
    pub(crate) fn len(&self) -> usize {
        self.upper.len()
    }

    /// `node`'s row at `layer`, writable; `None` where it has none.
    pub(crate) fn row_mut(&mut self, layer: usize, node: u32) -> Option<RowMut<'_>> {
        let i = (node - self.first) as usize;
        row_mut(self.layouts, self.base, self.upper, layer, i)
    }
}

/// The row source of HNSW's own searches. A search at layer `l` reaches
/// only vertices of level `l` or above, so every row it asks for exists.
/// Blocks are resident unless the provider keeps none: those rows are
/// gathered.
impl Rows for Slab {
    #[inline]
    fn row(&self, layer: usize, node: u32) -> &[u32] {
        self.ids(layer, node)
    }

    #[inline]
    fn resident(&self, layer: usize, node: u32) -> Option<&[u8]> {
        let layout = self.layout(layer);
        if layout.block_bytes == 0 {
            return None;
        }
        self.record(layer, node).map(|record| layout.block(record))
    }

    #[inline]
    fn prefetch(&self, layer: usize, node: u32) {
        if let Some(record) = self.record(layer, node) {
            simdops::prefetch_slice(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_hold_rows_and_blocks_apart() {
        // Node 1 reaches layer 2; a 40-byte block spills into a second line.
        let mut slab = Slab::new(&[0, 2, 0], RowLayout::new(20, 40), RowLayout::new(4, 0));
        assert_eq!(slab.len(), 3);
        for (layer, node, ids) in [
            (0, 1, vec![0, 2]),
            (2, 1, vec![7]),
            (0, 2, (0..20).collect()),
        ] {
            let mut row = slab.row_mut(layer, node).unwrap();
            row.slots[..ids.len()].copy_from_slice(&ids);
            row.set_len(ids.len());
            row.block.fill(node as u8 + 1);
        }
        assert!(slab.row_mut(1, 0).is_none() && slab.row_mut(3, 1).is_none());
        assert_eq!(slab.ids(0, 1), &[0, 2]);
        assert_eq!(slab.ids(2, 1), &[7]);
        assert!(slab.ids(1, 1).is_empty() && slab.ids(1, 2).is_empty());
        assert_eq!(slab.ids(0, 2), (0..20).collect::<Vec<u32>>());
        assert_eq!(slab.block(0, 2), &[3; 40]);
        assert_eq!(slab.block(0, 0), &[0; 40]);
        assert_eq!(
            slab.resident(2, 1),
            None,
            "a zero-byte block is not resident"
        );
        for node in 0..3 {
            let at = slab.record(0, node).unwrap().as_ptr() as usize;
            assert_eq!(at % 64, 0, "record {node} is off a line");
            assert_eq!(slab.block(0, node).as_ptr() as usize % 64, 0);
        }
        let ranges = slab.ranges_mut(2);
        let spans: Vec<(u32, usize)> = ranges.iter().map(|r| (r.first(), r.len())).collect();
        assert_eq!(spans, [(0, 2), (2, 1)]);
    }
}
