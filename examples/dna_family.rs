//! Align a synthetic homologous DNA family — the workload the benchmark
//! suite is built on — with every exact algorithm, and show that they
//! agree, how long each takes, and how tight the cheap bounds are.
//!
//! ```text
//! cargo run --release --example dna_family [length]
//! ```

use std::time::Instant;
use three_seq_align::core::{bounds, Algorithm};
use three_seq_align::prelude::*;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(96);

    // A random ancestor mutated into three descendants: 15% substitutions,
    // 5% indels — a realistic divergent triple.
    let family = FamilyConfig::new(n, 0.15, 0.05).generate(2007);
    let (a, b, c) = family.triple();
    println!(
        "family of ancestor length {n}: member lengths {} / {} / {}, mean pairwise identity {:.2}",
        a.len(),
        b.len(),
        c.len(),
        family.mean_pairwise_identity()
    );

    let scoring = Scoring::dna_default();
    let br = bounds::bounds(a, b, c, &scoring);
    println!(
        "cheap bounds: center-star {} ≤ optimum ≤ pairwise-sum {}",
        br.lower, br.upper
    );

    let algorithms: &[(&str, Algorithm)] = &[
        ("sequential full DP", Algorithm::FullDp),
        ("parallel wavefront", Algorithm::Wavefront),
        (
            "tile wavefront (tile 16)",
            Algorithm::TileWavefront { tile: 16 },
        ),
        ("hirschberg (O(n²) mem)", Algorithm::Hirschberg),
        ("parallel hirschberg", Algorithm::ParallelHirschberg),
        ("carrillo-lipman pruned", Algorithm::CarrilloLipman),
    ];

    let mut reference = None;
    for (name, alg) in algorithms {
        let start = Instant::now();
        let aln = Aligner::new()
            .scoring(scoring.clone())
            .algorithm(*alg)
            .align3(a, b, c)
            .expect("valid configuration");
        let dt = start.elapsed();
        aln.validate(a, b, c).expect("valid alignment");
        assert!(br.contains(aln.score), "score escaped its bounds");
        match reference {
            None => reference = Some(aln.score),
            Some(r) => assert_eq!(r, aln.score, "{name} disagreed"),
        }
        println!(
            "{name:<26} score {:>6}  ({:>8.2} ms)",
            aln.score,
            dt.as_secs_f64() * 1e3
        );
    }
    println!("all exact algorithms agree ✓");
}
