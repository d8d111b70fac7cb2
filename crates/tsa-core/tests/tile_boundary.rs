//! Tile-boundary property suite for the t×t×t tile-wavefront score
//! path: random tile edges — including edges that do **not** divide the
//! sequence lengths, so ragged boundary tiles appear on every face —
//! must produce scores bit-identical to the untiled wavefront under
//! every kernel, and cancellation landing at arbitrary tile indices
//! must stop cleanly with sane progress while leaving later runs
//! unaffected.

use std::time::Duration;

use proptest::prelude::*;
use tsa_core::sweep::{Order, Sweep};
use tsa_core::{Algorithm, Aligner, CancelToken, DurableStop, SimdKernel};
use tsa_scoring::Scoring;
use tsa_seq::Seq;

const TILES: [usize; 4] = [4, 8, 16, 32];

fn residues() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(vec![b'A', b'C', b'G', b'T']), 0..=45)
}

/// Force a residue vector's length off multiples of the tile edge, so
/// ragged boundary tiles appear on that face (length 0 stays 0: the
/// degenerate faces are their own boundary case and stay covered).
fn ragged(mut v: Vec<u8>, tile: usize) -> Seq {
    if !v.is_empty() && v.len() % tile == 0 {
        v.push(b'G');
    }
    Seq::dna(v).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Ragged boundary tiles on every face must not change a single
    /// score bit, under any kernel, relative to the untiled wavefront.
    #[test]
    fn tiled_scores_match_the_untiled_wavefront(
        va in residues(),
        vb in residues(),
        vc in residues(),
        tile_idx in 0usize..4,
        scoring_idx in 0usize..3,
    ) {
        let tile = TILES[tile_idx];
        let (a, b, c) = (ragged(va, tile), ragged(vb, tile), ragged(vc, tile));
        let scoring = ["dna", "unit", "edit"][scoring_idx];
        let scoring = Scoring::by_name(scoring).expect("preset exists");
        let reference =
            Sweep::new(Order::Planes, SimdKernel::Scalar).score(&a, &b, &c, &scoring).unwrap();
        for k in [
            SimdKernel::Scalar,
            SimdKernel::Sse2,
            SimdKernel::Avx2,
            SimdKernel::Sse2I16,
            SimdKernel::Avx2I16,
            SimdKernel::Auto,
        ] {
            let tiled_score = Sweep::new(Order::Tiles { tile }, k).score(&a, &b, &c, &scoring).unwrap();
            prop_assert_eq!(
                tiled_score,
                reference,
                "tile {} under {} diverged from the untiled wavefront",
                tile,
                k
            );
        }
        // The aligner-level entry point routes through the same pass.
        let via_aligner = Aligner::new()
            .scoring(scoring)
            .algorithm(Algorithm::TileWavefront { tile })
            .score3(&a, &b, &c)
            .expect("linear scoring");
        prop_assert_eq!(via_aligner, reference);
    }

    /// Fire the token on a deadline that lands at an arbitrary point of
    /// the sweep — before it starts, between tile planes, or after it
    /// finished. A completed run must match the untiled score exactly;
    /// an interrupted one must report coherent progress; and the
    /// cancelled pass must leave no residue that skews a fresh run.
    #[test]
    fn cancellation_at_arbitrary_tile_indices_is_clean(
        va in residues(),
        vb in residues(),
        vc in residues(),
        tile_idx in 0usize..4,
        delay_us in 0u64..400,
    ) {
        let tile = TILES[tile_idx];
        let (a, b, c) = (ragged(va, tile), ragged(vb, tile), ragged(vc, tile));
        let scoring = Scoring::dna_default();
        let reference =
            Sweep::new(Order::Planes, SimdKernel::Scalar).score(&a, &b, &c, &scoring).unwrap();
        let token = CancelToken::with_timeout(Duration::from_micros(delay_us));
        let tiles = Sweep::new(Order::Tiles { tile }, SimdKernel::Auto);
        match tiles.cancel(&token).score(&a, &b, &c, &scoring) {
            Ok(score) => prop_assert_eq!(score, reference),
            Err(DurableStop::Cancelled(progress)) => {
                prop_assert!(progress.cells_done <= progress.cells_total);
                let lattice = ((a.len() + 1) * (b.len() + 1) * (c.len() + 1)) as u64;
                prop_assert_eq!(progress.cells_total, lattice);
            }
            Err(other) => prop_assert!(false, "unexpected stop: {other}"),
        }
        // Fresh run after the (possible) cancellation still agrees.
        prop_assert_eq!(tiles.score(&a, &b, &c, &scoring).unwrap(), reference);
    }
}

/// A pre-fired token stops the sweep before any tile runs.
#[test]
fn pre_fired_token_stops_before_the_first_tile() {
    let a = Seq::dna("GATTACAGATTACAGATTACA").unwrap();
    let b = Seq::dna("GATACATTACAGGATACA").unwrap();
    let c = Seq::dna("GTTACAGGATTAGTTACA").unwrap();
    let scoring = Scoring::dna_default();
    let token = CancelToken::never();
    token.cancel();
    let stop = Sweep::new(Order::Tiles { tile: 8 }, SimdKernel::Auto)
        .cancel(&token)
        .score(&a, &b, &c, &scoring)
        .expect_err("fired token must interrupt");
    let DurableStop::Cancelled(progress) = stop else {
        panic!("unexpected stop: {stop}");
    };
    assert_eq!(progress.cells_done, 0, "no tile may have completed");
    assert!(progress.cells_total > 0);
}

/// Exhaustive sweep of every tile edge against every remainder class of
/// sequence length (len % tile ∈ {0, 1, tile-1, …}): the classic
/// off-by-one surface for boundary tiles.
#[test]
fn every_remainder_class_matches_untiled() {
    let bases = [b'G', b'A', b'T', b'C'];
    let make = |len: usize| {
        let v: Vec<u8> = (0..len).map(|i| bases[i % 4]).collect();
        Seq::dna(v).unwrap()
    };
    let scoring = Scoring::dna_default();
    for tile in TILES {
        for (la, lb, lc) in [
            (tile - 1, tile, tile + 1),
            (tile + 1, 2 * tile - 1, 1),
            (2 * tile + 1, tile - 1, tile),
            (1, 1, 2 * tile + 1),
        ] {
            let (a, b, c) = (make(la), make(lb), make(lc));
            let reference = Sweep::new(Order::Planes, SimdKernel::Scalar)
                .score(&a, &b, &c, &scoring)
                .unwrap();
            assert_eq!(
                Sweep::new(Order::Tiles { tile }, SimdKernel::Auto)
                    .score(&a, &b, &c, &scoring)
                    .unwrap(),
                reference,
                "tile {tile} over lengths ({la}, {lb}, {lc})"
            );
        }
    }
}
