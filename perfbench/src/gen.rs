//! Seeded DNA inputs: a human-like order-1 Markov background with
//! planted helical A/T ladders and A/T-skewed composition blocks, at the
//! same feature density as the repository's `scaling_sequence`. The
//! background and the ladders come from the public `perigap_seq`
//! generators.
//!
//! Each ladder is planted into a copy of its own window rather than the
//! whole sequence (`plant_periodic` copies its background), so a
//! 1 M-symbol input costs one background pass plus O(ladder span) per
//! ladder.

use perigap_seq::fasta::{write_fasta, FastaRecord};
use perigap_seq::gen::{plant_periodic, MarkovModel, PeriodicMotif};
use perigap_seq::{Alphabet, Sequence};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::io;
use std::path::Path;

/// Planted ladders per 10,011 symbols (the AX829174 substitute's density).
const LADDERS_PER_10K: usize = 55;
/// One composition block every this many symbols.
const BLOCK_STRIDE: usize = 2_500;
const BLOCK_WIDTH: usize = 300;

fn background() -> MarkovModel {
    // Rows: context A, C, G, T; columns A, C, G, T (GC ≈ 41%, CG suppressed).
    let rows = vec![
        0.36, 0.18, 0.20, 0.26, //
        0.32, 0.22, 0.06, 0.40, //
        0.28, 0.21, 0.21, 0.30, //
        0.24, 0.20, 0.22, 0.34, //
    ];
    MarkovModel::from_rows(Alphabet::Dna, 1, rows)
}

/// A `len`-symbol DNA sequence determined by `seed` alone.
pub fn dna(seed: u64, len: usize) -> Sequence {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x005E_ED0F_DA7A);
    let mut codes = background().sample(&mut rng, len).codes().to_vec();
    for i in 0..(LADDERS_PER_10K * len / 10_011).max(1) {
        let l = rng.gen_range(14..=17usize);
        // A-, T- and mixed A/T ladders in turn: stratified rather than
        // drawn, so short inputs do not swing with the draw.
        let motif: Vec<u8> = match i % 3 {
            0 => vec![0; l],
            1 => vec![3; l],
            _ => (0..l)
                .map(|_| if rng.gen::<bool>() { 0 } else { 3 })
                .collect(),
        };
        let spec = PeriodicMotif {
            motif,
            gap_min: 9,
            gap_max: 11,
            occurrences: 1,
        };
        let span = spec.max_span();
        if span > len {
            continue;
        }
        let start = rng.gen_range(0..=len - span);
        let mut window = Sequence::from_codes(Alphabet::Dna, codes[start..start + span].to_vec())
            .expect("background codes are DNA");
        plant_periodic(&mut rng, &mut window, &spec);
        codes[start..start + span].copy_from_slice(window.codes());
    }
    let mut start = 120;
    let mut a_rich = true;
    while start + BLOCK_WIDTH <= len {
        let weights = if a_rich {
            [0.50, 0.10, 0.10, 0.30]
        } else {
            [0.30, 0.10, 0.10, 0.50]
        };
        // Exactly the block's composition, shuffled: with only a few
        // blocks per input, i.i.d. draws would make the deepest levels
        // (and the BFS arena peak) depend on the seed.
        let mut block: Vec<u8> = Vec::with_capacity(BLOCK_WIDTH);
        for (code, w) in (0u8..).zip(weights) {
            let count = (w * BLOCK_WIDTH as f64).round() as usize;
            block.extend(std::iter::repeat_n(code, count));
        }
        block.shuffle(&mut rng);
        codes[start..start + BLOCK_WIDTH].copy_from_slice(&block);
        a_rich = !a_rich;
        start += BLOCK_STRIDE;
    }
    Sequence::from_codes(Alphabet::Dna, codes).expect("generated codes are DNA")
}

/// Write `seq` as a one-record FASTA file.
pub fn write(path: &Path, id: &str, seq: &Sequence) -> io::Result<()> {
    let record = FastaRecord {
        id: id.to_string(),
        description: None,
        sequence: seq.clone(),
    };
    let mut sink = io::BufWriter::new(std::fs::File::create(path)?);
    write_fasta(&mut sink, std::slice::from_ref(&record), 80)
        .map_err(|e| io::Error::other(e.to_string()))?;
    io::Write::flush(&mut sink)
}
