//! Sequence substrate for the `three-seq-align` workspace.
//!
//! This crate provides everything the aligner needs to *have something to
//! align*:
//!
//! * [`Alphabet`] — DNA / RNA / protein alphabets with validation and
//!   canonicalization (`alphabet` module);
//! * [`Seq`] — an owned, validated biological sequence with an id
//!   (`seq` module);
//! * FASTA parsing and emission (`fasta` module);
//! * random sequence generation (`gen` module);
//! * a mutation model and a *related-family* generator (`mutate` and
//!   `family` modules) used to synthesize realistic three-sequence
//!   workloads: a random ancestor is mutated independently into three
//!   descendants with controlled substitution and indel rates. This is the
//!   substitute for the (unavailable) biological benchmark sequences of the
//!   original evaluation — see `DESIGN.md` §3.
//!
//! # Example
//!
//! ```
//! use tsa_seq::{Alphabet, Seq, family::FamilyConfig};
//!
//! let s = Seq::dna("ACGTACGT").unwrap();
//! assert_eq!(s.len(), 8);
//!
//! let fam = FamilyConfig::new(64, 0.1, 0.02).generate(42);
//! assert_eq!(fam.members.len(), 3);
//! for m in &fam.members {
//!     assert!(Alphabet::Dna.validate(m.residues()).is_ok());
//! }
//! ```

pub mod alphabet;
pub mod error;
pub mod family;
pub mod fasta;
pub mod gen;
pub mod kimura;
pub mod kmer;
pub mod mutate;
pub mod seq;
pub mod stats;

pub use alphabet::Alphabet;
pub use error::SeqError;
pub use seq::Seq;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, SeqError>;
