//! Bounded-pool chunked execution for topology-table builds.
//!
//! [`NeighborTables`](crate::NeighborTables) and
//! [`CoverageCsr`](crate::CoverageCsr) builds are embarrassingly parallel
//! over node index, but their output order is part of the determinism
//! contract (grid candidate order within a row, node order across rows).
//! This module runs per-chunk builders on the workspace's one worker pool,
//! [`peas_des::par::map_ordered`], which returns the chunk outputs **in
//! chunk order**, so splicing them back together reproduces the serial
//! build byte for byte.
//!
//! ## Memory budget
//!
//! Each chunk's scratch output covers at most [`BUILD_CHUNK_NODES`] node
//! rows. [`join_chunks`] adopts a lone chunk's buffers as the table, so a
//! build of up to [`BUILD_CHUNK_NODES`] nodes (every paper scenario)
//! allocates its rows once and never copies them. Several chunks are
//! spliced into exactly-sized buffers, consuming (and freeing) chunk
//! buffers one at a time, so transient memory beyond the final table is
//! bounded by the table size itself — the build never holds more than
//! roughly 2× the final footprint, regardless of node count.

use std::ops::Range;

use peas_des::par::{default_workers, map_ordered};

/// Node-count threshold below which builds stay serial: thread spawn and
/// splice overhead outweigh the work for small topologies (the paper's
/// 480-node scenarios never parallelize, keeping their profile unchanged).
pub const PARALLEL_BUILD_THRESHOLD: usize = 8_192;

/// Nodes per work chunk. Small enough to load-balance across workers and
/// bound per-chunk scratch memory, large enough that the claim counter is
/// not contended.
pub const BUILD_CHUNK_NODES: usize = 4_096;

/// The worker count for an `n`-node build: serial below
/// [`PARALLEL_BUILD_THRESHOLD`], otherwise the pool's
/// [`default_workers`].
pub fn build_workers(n: usize) -> usize {
    if n < PARALLEL_BUILD_THRESHOLD {
        1
    } else {
        default_workers()
    }
}

/// Runs `build` over consecutive [`BUILD_CHUNK_NODES`]-sized index chunks of
/// `0..n` on at most `workers` pooled threads, returning the outputs in
/// chunk order regardless of completion order.
///
/// With `workers <= 1` (or a single chunk) the chunks run serially on the
/// caller's thread; the outputs are identical either way because every
/// chunk is independent.
pub fn chunked_build<T, F>(n: usize, workers: usize, build: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let chunks: Vec<Range<usize>> = (0..n)
        .step_by(BUILD_CHUNK_NODES)
        .map(|lo| lo..(lo + BUILD_CHUNK_NODES).min(n))
        .collect();
    map_ordered(&chunks, workers, |range| build(range.clone()))
}

/// The per-row columns of a chunked CSR build: one `Vec`, or two or three
/// parallel `Vec`s.
pub trait Columns {
    /// Rows held.
    fn rows(&self) -> usize;
    /// Empty columns with room for exactly `rows` rows.
    fn with_capacity(rows: usize) -> Self;
    /// Appends `other`'s rows.
    fn extend_rows(&mut self, other: &Self);
}

impl<T: Copy> Columns for Vec<T> {
    fn rows(&self) -> usize {
        self.len()
    }
    fn with_capacity(rows: usize) -> Self {
        Vec::with_capacity(rows)
    }
    fn extend_rows(&mut self, other: &Self) {
        self.extend_from_slice(other);
    }
}

impl<A: Copy, B: Copy> Columns for (Vec<A>, Vec<B>) {
    fn rows(&self) -> usize {
        self.0.len()
    }
    fn with_capacity(rows: usize) -> Self {
        (Vec::with_capacity(rows), Vec::with_capacity(rows))
    }
    fn extend_rows(&mut self, other: &Self) {
        self.0.extend_from_slice(&other.0);
        self.1.extend_from_slice(&other.1);
    }
}

impl<A: Copy, B: Copy, C: Copy> Columns for (Vec<A>, Vec<B>, Vec<C>) {
    fn rows(&self) -> usize {
        self.0.len()
    }
    fn with_capacity(rows: usize) -> Self {
        (
            Vec::with_capacity(rows),
            Vec::with_capacity(rows),
            Vec::with_capacity(rows),
        )
    }
    fn extend_rows(&mut self, other: &Self) {
        self.0.extend_from_slice(&other.0);
        self.1.extend_from_slice(&other.1);
        self.2.extend_from_slice(&other.2);
    }
}

/// Joins the outputs of a [`chunked_build`] — per chunk, its rows'
/// columns and each node's row end counted from the chunk's first row —
/// into one CSR table: `(offsets, columns)`, with
/// `offsets[i]..offsets[i + 1]` indexing node `i`'s rows.
///
/// A single chunk is adopted: its buffers become the table's, so a build
/// of at most [`BUILD_CHUNK_NODES`] nodes holds its rows once and never
/// copies them. They keep the spare capacity they grew with: it is never
/// written, so it adds no resident pages, whereas shrinking a large
/// buffer in place (a `realloc` of a memory-mapped block) leaves glibc's
/// dynamic mmap threshold below the next build's growth, and every later
/// build then maps its rows afresh. Several chunks are spliced in chunk
/// order into exactly-sized buffers, each chunk freed as it is consumed.
///
/// # Panics
///
/// Panics if the rows exceed the `u32` offset range; `what` names them in
/// the message.
pub fn join_chunks<C: Columns>(chunks: Vec<(C, Vec<usize>)>, what: &str) -> (Vec<u32>, C) {
    let total: usize = chunks.iter().map(|(columns, _)| columns.rows()).sum();
    if u32::try_from(total).is_err() {
        panic!("more than u32::MAX {what}");
    }
    let nodes: usize = chunks.iter().map(|(_, row_ends)| row_ends.len()).sum();
    let mut offsets = Vec::with_capacity(nodes + 1);
    offsets.push(0);
    match <[(C, Vec<usize>); 1]>::try_from(chunks) {
        Ok([(columns, row_ends)]) => {
            push_row_ends(&mut offsets, 0, &row_ends);
            (offsets, columns)
        }
        Err(chunks) => {
            let mut columns = C::with_capacity(total);
            for (chunk, row_ends) in chunks {
                push_row_ends(&mut offsets, columns.rows(), &row_ends);
                columns.extend_rows(&chunk);
            }
            (offsets, columns)
        }
    }
}

/// Appends one chunk's row ends to `offsets`, shifted past the `base` rows
/// of the chunks before it.
fn push_row_ends(offsets: &mut Vec<u32>, base: usize, row_ends: &[usize]) {
    // peas-lint: allow(r3-unchecked-cast) -- base + end <= total, which join_chunks checks against u32
    offsets.extend(row_ends.iter().map(|&end| (base + end) as u32));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_no_chunks() {
        let out = chunked_build(0, 4, |r| r.len());
        assert!(out.is_empty());
    }

    #[test]
    fn chunks_cover_the_range_in_order() {
        let n = BUILD_CHUNK_NODES * 2 + 17;
        for workers in [1, 3] {
            let out = chunked_build(n, workers, |r| r.clone());
            assert_eq!(out.len(), 3);
            assert_eq!(out[0], 0..BUILD_CHUNK_NODES);
            assert_eq!(out[2].end, n);
            let covered: usize = out.iter().map(|r| r.len()).sum();
            assert_eq!(covered, n);
            for w in out.windows(2) {
                assert_eq!(w[0].end, w[1].start, "chunks must be contiguous");
            }
        }
    }

    /// A toy CSR build: node `i` has `i % 3` rows, each holding `i`.
    fn toy_rows(span: Range<usize>) -> (Vec<usize>, Vec<usize>) {
        let mut rows = Vec::new();
        let mut row_ends = Vec::new();
        for i in span {
            rows.extend(std::iter::repeat_n(i, i % 3));
            row_ends.push(rows.len());
        }
        (rows, row_ends)
    }

    #[test]
    fn join_adopts_one_chunk_and_splices_several_identically() {
        let n = BUILD_CHUNK_NODES * 2 + 17;
        let (offsets, rows) = join_chunks(chunked_build(n, 2, toy_rows), "rows");
        assert_eq!(offsets.len(), n + 1);
        assert_eq!(rows.capacity(), rows.len(), "a splice sizes exactly");
        for i in [0, 1, 2, BUILD_CHUNK_NODES + 5, n - 1] {
            let row = &rows[offsets[i] as usize..offsets[i + 1] as usize];
            assert_eq!(row, vec![i; i % 3].as_slice(), "node {i}");
        }
        // One chunk: the table is the chunk's own buffer, not a copy.
        let chunks = chunked_build(BUILD_CHUNK_NODES, 1, toy_rows);
        assert_eq!(chunks.len(), 1);
        let buffer = chunks[0].0.as_ptr();
        let (small_offsets, small_rows) = join_chunks(chunks, "rows");
        assert_eq!(small_rows.as_ptr(), buffer, "a lone chunk is adopted");
        assert_eq!(small_offsets[..], offsets[..=BUILD_CHUNK_NODES]);
        assert_eq!(small_rows[..], rows[..small_rows.len()]);
        // Parallel columns and an empty build.
        let (pair_offsets, (a, b)) = join_chunks(
            chunked_build(n, 2, |span| {
                let (rows, ends) = toy_rows(span);
                ((rows.clone(), rows), ends)
            }),
            "rows",
        );
        assert_eq!((pair_offsets, &a), (offsets, &rows));
        assert_eq!(a, b);
        let (empty_offsets, empty) = join_chunks(chunked_build(0, 1, toy_rows), "rows");
        assert_eq!((empty_offsets, empty.len()), (vec![0], 0));
    }

    #[test]
    fn small_builds_stay_serial() {
        assert_eq!(build_workers(480), 1);
        assert_eq!(build_workers(PARALLEL_BUILD_THRESHOLD - 1), 1);
        assert!(build_workers(PARALLEL_BUILD_THRESHOLD) >= 1);
    }
}
