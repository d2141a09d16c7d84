//! Shared-memory data mapping (paper §III-B, Fig 5) — the *paper
//! point* of the generalized mapping in [`crate::geometry`].
//!
//! A `tile` is 128 points × 8 k-values (tileA: 128 rows of A; tileB:
//! 128 columns of B — both are stored point-contiguous in global
//! memory, so a *track* — the 8 k-values of one point — is 8
//! consecutive floats).
//!
//! The tile is viewed as 16 microtiles of 8 points × 8 k. To let every
//! warp read all 16 microtiles without load bank conflicts, each 8×8
//! microtile is **reshaped to 32×2**: track `c` of microtile `m` lives
//! in bank `2m + (c mod 2)`, rows `8·(c div 2) + k` (Fig 5). The 16
//! microtiles then tile the 32 banks exactly.
//!
//! These free functions are retained for the paper-default call sites
//! and the ablation tests; the geometry-parameterized engine uses
//! [`crate::geometry::TileSide`] directly, of which this module is the
//! `128/8/8` specialization (a property the tests below pin).

use crate::geometry::{TileGeometry, TileSide};

/// How a tile is placed in shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SmemLayout {
    /// Fig 5 swizzle: store and load conflict-free.
    #[default]
    Swizzled,
    /// Tile stored `[k][point]` row-major: conflicted loads (ablation).
    NaiveRowMajor,
}

/// The paper-default operand side (both sides coincide at the paper
/// point: 128-point tiles of 8×8 microtiles).
#[must_use]
fn paper_side() -> TileSide {
    TileGeometry::paper_default().side_a()
}

/// Number of microtiles in a paper-default tile.
pub const MICROTILES: usize = 16;

/// Word offset (within a tile's 1024-word shared array) of element
/// `k` of track `c` of microtile `m` (see module docs).
#[inline]
#[must_use]
pub fn tile_word(layout: SmemLayout, m: usize, c: usize, k: usize) -> u32 {
    paper_side().word(layout, m, c, k)
}

/// Store-side mapping: which (microtile, track) thread `u` (0..32) of
/// warp `w` (0..4, within the half-block assigned to this tile) fetches
/// and stores. Each of the 4 warps contributes 2 tracks per microtile.
#[inline]
#[must_use]
pub fn loader_assignment(w: usize, u: usize) -> (usize, usize) {
    paper_side().loader_track(w, u)
}

/// Global element index (within the tile's source region) of track
/// `(m, c)`: the tile covers 128 consecutive points, each
/// point-contiguous with `k_stride` elements between points; element
/// `k` of the track is `point · k_stride + k`.
#[inline]
#[must_use]
pub fn track_global_offset(m: usize, c: usize, k_stride: usize) -> usize {
    paper_side().track_global_offset(m, c, k_stride)
}

/// Word indices (pairs) read at compute time: the 8 values of
/// microtile `m` at k-step `k` as 4 aligned word pairs (LDS.64 each).
/// `pair_base(j)` is the first word; the second is `+1`.
#[inline]
#[must_use]
pub fn compute_read_pairs(layout: SmemLayout, m: usize, k: usize) -> [u32; 4] {
    let side = paper_side();
    std::array::from_fn(|j| side.pair_base(layout, m, k, j))
}

/// The track value order produced by [`compute_read_pairs`]: pair `j`
/// holds tracks `(2j, 2j+1)` in the swizzled layout and `(2j, 2j+1)`
/// in the naive layout too (contiguity), so consumers can use one
/// ordering.
#[inline]
#[must_use]
pub fn pair_tracks(j: usize) -> (usize, usize) {
    (2 * j, 2 * j + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_gpu_sim::smem::warp_transactions;

    const MICRO_TILE: usize = 8;
    const K_TILE: usize = 8;
    const TILE_WORDS: usize = 1024;

    #[test]
    fn legacy_formulas_are_the_paper_point_of_the_general_map() {
        // The hand-derived Fig 5 formulas, pinned against TileSide.
        for m in 0..MICROTILES {
            for c in 0..MICRO_TILE {
                for k in 0..K_TILE {
                    let want = ((8 * (c / 2) + k) * 32 + 2 * m + c % 2) as u32;
                    assert_eq!(tile_word(SmemLayout::Swizzled, m, c, k), want);
                    let naive = (k * 128 + m * MICRO_TILE + c) as u32;
                    assert_eq!(tile_word(SmemLayout::NaiveRowMajor, m, c, k), naive);
                }
            }
        }
        for w in 0..4 {
            for u in 0..32 {
                assert_eq!(loader_assignment(w, u), (u / 2, 2 * w + u % 2));
            }
        }
    }

    #[test]
    fn every_tile_word_is_covered_exactly_once() {
        for layout in [SmemLayout::Swizzled, SmemLayout::NaiveRowMajor] {
            let mut seen = vec![false; TILE_WORDS];
            for m in 0..MICROTILES {
                for c in 0..MICRO_TILE {
                    for k in 0..K_TILE {
                        let w = tile_word(layout, m, c, k) as usize;
                        assert!(!seen[w], "{layout:?}: word {w} covered twice");
                        seen[w] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "{layout:?}: uncovered words");
        }
    }

    #[test]
    fn loader_assignment_covers_all_tracks_once() {
        let mut seen = [[false; MICRO_TILE]; MICROTILES];
        for w in 0..4 {
            for u in 0..32 {
                let (m, c) = loader_assignment(w, u);
                assert!(!seen[m][c], "track ({m},{c}) loaded twice");
                seen[m][c] = true;
            }
        }
        assert!(seen.iter().all(|row| row.iter().all(|&s| s)));
    }

    #[test]
    fn swizzled_stores_are_conflict_free_exhaustively() {
        // §III-B: "the 32 threads in the same warp are writing to 32
        // different banks". Check every warp, every k-phase.
        for w in 0..4 {
            for k in 0..K_TILE {
                let addrs: [Option<u32>; 32] = std::array::from_fn(|u| {
                    let (m, c) = loader_assignment(w, u);
                    Some(tile_word(SmemLayout::Swizzled, m, c, k))
                });
                assert_eq!(
                    warp_transactions(&addrs, 32),
                    1,
                    "store conflict at w={w} k={k}"
                );
            }
        }
    }

    #[test]
    fn swizzled_compute_loads_are_conflict_free_exhaustively() {
        // During compute, warp lanes are (tx, ty): lane = ty*16+tx with
        // ty ∈ {2q, 2q+1}. The B-operand read of lane (tx, ty) at
        // k-step k is pair j of microtile tx. Check all warps, k, j and
        // both pair phases.
        for q in 0..8 {
            for k in 0..K_TILE {
                for j in 0..4 {
                    for phase in 0..2u32 {
                        let addrs: [Option<u32>; 32] = std::array::from_fn(|lane| {
                            let tx = lane % 16;
                            let _ty = 2 * q + lane / 16;
                            Some(compute_read_pairs(SmemLayout::Swizzled, tx, k)[j] + phase)
                        });
                        assert_eq!(
                            warp_transactions(&addrs, 32),
                            1,
                            "load conflict q={q} k={k} j={j} phase={phase}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn swizzled_a_operand_loads_broadcast_cleanly() {
        // A-operand: lane (tx, ty) reads microtile ty; 16 tx lanes
        // broadcast the same word.
        for q in 0..8 {
            for k in 0..K_TILE {
                for j in 0..4 {
                    for phase in 0..2u32 {
                        let addrs: [Option<u32>; 32] = std::array::from_fn(|lane| {
                            let ty = 2 * q + lane / 16;
                            Some(compute_read_pairs(SmemLayout::Swizzled, ty, k)[j] + phase)
                        });
                        assert_eq!(warp_transactions(&addrs, 32), 1);
                    }
                }
            }
        }
    }

    #[test]
    fn naive_compute_loads_do_conflict() {
        // The problem Fig 5 fixes: naive [k][point] placement makes the
        // 16 tx lanes hit 8·tx strides → 4-way conflicts.
        let mut worst = 0;
        for k in 0..K_TILE {
            for j in 0..4 {
                for phase in 0..2u32 {
                    let addrs: [Option<u32>; 32] = std::array::from_fn(|lane| {
                        let tx = lane % 16;
                        Some(compute_read_pairs(SmemLayout::NaiveRowMajor, tx, k)[j] + phase)
                    });
                    worst = worst.max(warp_transactions(&addrs, 32));
                }
            }
        }
        assert!(worst >= 4, "naive layout should conflict, worst={worst}");
    }

    #[test]
    fn compute_pairs_agree_with_tile_words() {
        // pair j phase p of microtile m at step k must be the word of
        // track 2j+p.
        for layout in [SmemLayout::Swizzled, SmemLayout::NaiveRowMajor] {
            for m in 0..MICROTILES {
                for k in 0..K_TILE {
                    let pairs = compute_read_pairs(layout, m, k);
                    for j in 0..4 {
                        let (c0, c1) = pair_tracks(j);
                        assert_eq!(
                            pairs[j],
                            tile_word(layout, m, c0, k),
                            "{layout:?} m={m} k={k} j={j}"
                        );
                        assert_eq!(
                            pairs[j] + 1,
                            tile_word(layout, m, c1, k),
                            "{layout:?} m={m} k={k} j={j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn track_global_offsets_are_point_contiguous() {
        assert_eq!(track_global_offset(0, 0, 8), 0);
        assert_eq!(track_global_offset(0, 1, 8), 8);
        assert_eq!(track_global_offset(2, 3, 32), (2 * 8 + 3) * 32);
    }

    #[test]
    fn warp_stores_fill_one_row_per_phase() {
        // In the swizzled layout, warp w's store phase k writes exactly
        // row 8w+k of the 32-bank array — the property that makes the
        // mapping easy to reason about.
        for w in 0..4 {
            for k in 0..K_TILE {
                for u in 0..32 {
                    let (m, c) = loader_assignment(w, u);
                    let word = tile_word(SmemLayout::Swizzled, m, c, k);
                    assert_eq!(word / 32, (8 * w + k) as u32, "w={w} k={k} u={u}");
                    assert_eq!(word % 32, u as u32);
                }
            }
        }
    }
}
