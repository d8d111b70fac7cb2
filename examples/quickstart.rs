//! Quickstart: align three short DNA sequences and print the result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use three_seq_align::prelude::*;

fn main() {
    let a = Seq::dna("GATTACAGATTACA").unwrap().with_id("A");
    let b = Seq::dna("GATACAGATTAC").unwrap().with_id("B");
    let c = Seq::dna("GTTACAGATCACA").unwrap().with_id("C");

    // Algorithm::Auto fills the full lattice with SIMD slab rows when it
    // fits the memory budget, as it does for inputs this small.
    let aln = Aligner::new()
        .scoring(Scoring::dna_default())
        .align3(&a, &b, &c)
        .expect("configuration is valid");

    // Every alignment can be checked against its inputs.
    aln.validate(&a, &b, &c)
        .expect("alignment is structurally sound");

    println!("optimal sum-of-pairs score: {}", aln.score);
    println!(
        "columns: {}, all-match columns: {}",
        aln.len(),
        aln.full_match_columns()
    );
    println!("{}", aln.pretty());

    // The same optimum in O(n²) memory, for when the cube would not fit:
    let dc = Aligner::new()
        .algorithm(Algorithm::ParallelHirschberg)
        .align3(&a, &b, &c)
        .unwrap();
    assert_eq!(dc.score, aln.score);
    println!("(divide-and-conquer agrees: {})", dc.score);
}
