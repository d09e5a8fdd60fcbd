//! Edge-list → CSR construction.
//!
//! A counting sort by source. One pass counts out-degrees, and their
//! prefix sum gives every source a bucket. A scatter drops each edge into
//! its bucket as the key `(dst << 32) | input_index`. Sorting a bucket
//! orders its row by target and, among parallel edges, by input
//! position. A compaction pass then drops self-loops and every key whose
//! target repeats its predecessor's. So the first of a group of duplicate
//! edges, in input order, is the one kept, and its weight is the one the
//! graph carries.
//!
//! Rows are independent: threads take contiguous row ranges, and the
//! output does not depend on how many threads there are.

use crate::csr::Csr;

/// Builds a CSR from a directed edge list, sorting and de-duplicating
/// parallel edges and self-loops.
pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Csr {
    let edges: Vec<(u32, u32, u32)> = edges.iter().map(|&(s, d)| (s, d, 0)).collect();
    build(n, &edges, false, pool_size())
}

/// Builds a weighted CSR. Of a group of duplicate edges, the first in
/// input order is kept, with its weight.
pub fn from_weighted_edges(n: usize, edges: &[(u32, u32, u32)]) -> Csr {
    build(n, edges, true, pool_size())
}

/// Worker threads for graph construction: one per available core.
pub(crate) fn pool_size() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Builds a CSR from `(src, dst, weight)` edges on `threads` threads,
/// attaching the weights only if `weighted`.
///
/// # Panics
/// Panics if an endpoint is not below `n`, or if there are more edges
/// than the 32-bit input index in the sort key can number.
pub(crate) fn build(n: usize, edges: &[(u32, u32, u32)], weighted: bool, threads: usize) -> Csr {
    SortedRows::sort(n, edges, weighted, threads).into_csr()
}

/// The de-duplicated rows, sorted but not yet split into the CSR's
/// target and weight arrays. They no longer borrow the edge list, so a
/// caller that owns the list can free it before those arrays exist.
pub(crate) struct SortedRows {
    /// The CSR offsets: row v is `keys[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
    /// One key per kept edge: the target in the high half and, for a
    /// weighted graph, the weight in the low half.
    keys: Vec<u64>,
    weighted: bool,
}

impl SortedRows {
    /// The counting sort of [`build`].
    pub(crate) fn sort(
        n: usize,
        edges: &[(u32, u32, u32)],
        weighted: bool,
        threads: usize,
    ) -> Self {
        assert!(n < u32::MAX as usize, "vertex count too large for u32 ids");
        assert!(
            edges.len() <= u32::MAX as usize,
            "{} edges overflow the 32-bit input index",
            edges.len()
        );
        // Degree pass and prefix sum: source v's bucket is start[v]..start[v + 1].
        let mut start = vec![0u32; n + 1];
        for &(s, d, _) in edges {
            assert!(
                (s as usize) < n && (d as usize) < n,
                "edge ({s},{d}) out of range"
            );
            start[s as usize + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }

        // Each thread takes a contiguous row range holding about its
        // share of the edges, fills, sorts and compacts those rows, and
        // leaves each row's kept count in its `start` entry.
        let bounds = row_bounds(&start, threads);
        let mut keys = vec![0u64; edges.len()];
        let kept: Vec<(usize, usize)> = std::thread::scope(|scope| {
            let mut keys_rest = keys.as_mut_slice();
            let mut start_rest = start.as_mut_slice();
            let mut workers = Vec::new();
            for w in bounds.windows(2) {
                let (first, rows) = (w[0], w[1] - w[0]);
                let (from, to) = (start_rest[0], start_rest[rows]);
                let (keys_part, tail) =
                    std::mem::take(&mut keys_rest).split_at_mut((to - from) as usize);
                keys_rest = tail;
                let (start_part, tail) = std::mem::take(&mut start_rest).split_at_mut(rows);
                start_rest = tail;
                let worker =
                    scope.spawn(move || sort_rows(edges, weighted, first, start_part, keys_part));
                workers.push((from as usize, worker));
            }
            workers
                .into_iter()
                .map(|(from, w)| (from, w.join().expect("row sort thread panicked")))
                .collect()
        });

        // Close the gaps the dropped keys left between the threads' ranges,
        // and turn the kept counts into offsets.
        let mut total = 0;
        for (from, len) in kept {
            keys.copy_within(from..from + len, total);
            total += len;
        }
        keys.truncate(total);
        let mut acc = 0;
        for x in &mut start[..n] {
            let count = *x;
            *x = acc;
            acc += count;
        }
        start[n] = acc;
        Self {
            offsets: start,
            keys,
            weighted,
        }
    }

    /// Splits the keys into the CSR's target and weight arrays.
    pub(crate) fn into_csr(self) -> Csr {
        let edges = self.keys.iter().map(|&k| (k >> 32) as u32).collect();
        let weights = self
            .weighted
            .then(|| self.keys.iter().map(|&k| k as u32).collect());
        Csr::from_raw(self.offsets, edges, weights)
    }
}

/// Splits the rows into at most `threads` contiguous ranges of about
/// equal edge count; returns the range boundaries, from 0 to `n`.
fn row_bounds(start: &[u32], threads: usize) -> Vec<usize> {
    let n = start.len() - 1;
    let m = u64::from(start[n]);
    let t = threads.max(1) as u64;
    let split = (1..t).map(|k| start.partition_point(|&x| u64::from(x) * t < k * m));
    let mut bounds = vec![0];
    for b in split.chain([n]) {
        let b = b.min(n);
        if b > bounds[bounds.len() - 1] {
            bounds.push(b);
        }
    }
    bounds
}

/// Fills, sorts and compacts the rows `first..first + start.len()`, whose
/// buckets are exactly `keys`; returns how many keys it kept.
///
/// On entry `start[r]` is where row r's bucket begins, counted from the
/// start of the whole key array. On return the kept keys of all the rows
/// lead `keys`, row after row, and `start[r]` counts row r's.
fn sort_rows(
    edges: &[(u32, u32, u32)],
    weighted: bool,
    first: usize,
    start: &mut [u32],
    keys: &mut [u64],
) -> usize {
    let base = start[0];
    let rows = first..first + start.len();
    // The scatter advances each start entry to its bucket's end.
    for (i, &(s, d, _)) in edges.iter().enumerate() {
        if rows.contains(&(s as usize)) {
            let c = &mut start[s as usize - first];
            keys[(*c - base) as usize] = (u64::from(d) << 32) | i as u64;
            *c += 1;
        }
    }
    let mut begin = 0;
    let mut out = 0;
    for (r, end) in start.iter_mut().enumerate() {
        let bucket = begin..(*end - base) as usize;
        begin = bucket.end;
        keys[bucket.clone()].sort_unstable();
        let src = (first + r) as u64;
        let row_start = out;
        for j in bucket {
            let dst = keys[j] >> 32;
            if dst == src || (out > row_start && keys[out - 1] >> 32 == dst) {
                continue; // drop self-loops and later duplicates
            }
            let low = if weighted {
                edges[keys[j] as u32 as usize].2
            } else {
                0
            };
            keys[out] = (dst << 32) | u64::from(low);
            out += 1;
        }
        *end = (out - row_start) as u32;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolpim_telemetry::rng::SplitMix64;
    use std::collections::BTreeMap;

    #[test]
    fn builds_sorted_deduplicated_csr() {
        let g = from_edges(4, &[(2, 1), (0, 3), (0, 1), (0, 1), (1, 1), (0, 3)]);
        assert_eq!(g.neighbours(0), &[1, 3]);
        assert_eq!(g.neighbours(1), &[] as &[u32]); // self-loop dropped
        assert_eq!(g.neighbours(2), &[1]);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn weights_follow_their_edges() {
        let g = from_weighted_edges(3, &[(1, 0, 9), (0, 2, 5), (0, 1, 3)]);
        assert_eq!(g.neighbours(0), &[1, 2]);
        assert_eq!(g.weights_of(0), &[3, 5]);
        assert_eq!(g.weights_of(1), &[9]);
    }

    #[test]
    fn first_duplicate_in_input_order_keeps_its_weight() {
        let edges = [
            (0, 2, 40),
            (1, 0, 7),
            (0, 2, 11),
            (0, 1, 5),
            (0, 2, 3),
            (1, 0, 8),
            (0, 1, 6),
        ];
        for threads in [1, 2, 7] {
            let g = build(3, &edges, true, threads);
            assert_eq!(g.neighbours(0), &[1, 2]);
            assert_eq!(g.weights_of(0), &[5, 40]);
            assert_eq!(g.weights_of(1), &[7]);
        }
    }

    #[test]
    fn empty_graph() {
        let g = from_edges(5, &[]);
        assert_eq!(g.vertices(), 5);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_endpoints() {
        let _ = from_weighted_edges(3, &[(0, 1, 1), (1, 3, 1)]);
    }

    /// The naïve reference: a map from (src, dst) to the first weight seen,
    /// without self-loops.
    fn reference(edges: &[(u32, u32, u32)]) -> BTreeMap<(u32, u32), u32> {
        let mut map = BTreeMap::new();
        for &(s, d, w) in edges {
            if s != d {
                map.entry((s, d)).or_insert(w);
            }
        }
        map
    }

    fn check(n: usize, edges: &[(u32, u32, u32)]) {
        let expected = reference(edges);
        for threads in [1, 2, 7] {
            let g = build(n, edges, true, threads);
            assert_eq!(g.vertices(), n);
            let mut got = BTreeMap::new();
            for v in 0..n as u32 {
                let row = g.neighbours(v);
                assert!(row.windows(2).all(|p| p[0] < p[1]), "row {v} unsorted");
                for (&d, &w) in row.iter().zip(g.weights_of(v)) {
                    got.insert((v, d), w);
                }
            }
            assert_eq!(got, expected, "n {n}, {threads} threads");
            let unweighted = build(n, edges, false, threads);
            assert!(!unweighted.is_weighted());
            for v in 0..n as u32 {
                assert_eq!(unweighted.neighbours(v), g.neighbours(v));
            }
        }
    }

    #[test]
    fn matches_first_wins_reference_at_any_thread_count() {
        let mut rng = SplitMix64::seed_from_u64(12);
        check(0, &[]);
        check(1, &[]);
        check(1, &[(0, 0, 3), (0, 0, 4)]);
        for _ in 0..40 {
            let n = rng.gen_range_u32(1, 50) as usize;
            let m = rng.gen_range_u64(400) as usize;
            let edges: Vec<_> = (0..m)
                .map(|_| {
                    (
                        rng.gen_range_u32(0, n as u32),
                        rng.gen_range_u32(0, n as u32),
                        rng.gen_range_u32(1, 64),
                    )
                })
                .collect();
            check(n, &edges);
        }
        // All duplicates of one edge, with distinct weights.
        let dups: Vec<_> = (0..100).map(|w| (3, 5, w)).collect();
        check(8, &dups);
        // One hub holds most of the edges.
        let hub: Vec<_> = (0..2000)
            .map(|i| {
                let s = if i % 10 == 0 {
                    rng.gen_range_u32(0, 64)
                } else {
                    17
                };
                (s, rng.gen_range_u32(0, 64), rng.gen_range_u32(1, 64))
            })
            .collect();
        check(64, &hub);
    }

    #[test]
    fn row_bounds_cover_every_row_in_order() {
        // The second start array ends in a hub row holding most edges.
        for start in [&[0, 0, 5, 5, 6, 20, 20][..], &[0, 1, 10]] {
            let n = start.len() - 1;
            for threads in 1..10 {
                let b = row_bounds(start, threads);
                assert_eq!((b[0], b[b.len() - 1]), (0, n));
                assert!(b.windows(2).all(|w| w[0] < w[1]), "{b:?}");
                assert!(b.len() <= threads + 1);
            }
        }
        assert_eq!(row_bounds(&[0], 4), vec![0]);
    }
}
