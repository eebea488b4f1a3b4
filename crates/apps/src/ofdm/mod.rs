//! The IEEE 802.11a OFDM transmitter front-end case study.

pub mod reference;
pub mod source;

pub use reference::{transmit, twiddles_q14, OfdmFrame};
pub use source::{OFDM_SOURCE, PAYLOAD_BITS, SYMBOLS};

use crate::Workload;
use amdrel_cdfg::synth::SplitMix64;

/// Build the OFDM workload: the mini-C source plus the paper-sized input
/// set (6 payload symbols of pseudo-random bits, Q14 twiddle tables).
///
/// `seed` drives the payload generator; the same seed always produces the
/// same workload.
pub fn workload(seed: u64) -> Workload {
    let bits = random_bits(seed);
    let (cos_tab, sin_tab) = twiddles_q14();
    Workload {
        name: "OFDM transmitter".to_owned(),
        source: OFDM_SOURCE.to_owned(),
        inputs: vec![
            ("bits".to_owned(), bits),
            ("cos_tab".to_owned(), cos_tab),
            ("sin_tab".to_owned(), sin_tab),
        ],
    }
}

/// The OFDM exploration entry point: the
/// [standard space](crate::standard_design_space) under the paper's
/// Table 2 timing constraint (60 000 cycles).
pub fn design_space() -> amdrel_explore::DesignSpace {
    crate::standard_design_space(crate::paper::OFDM_CONSTRAINT)
}

/// Deterministic pseudo-random payload bits for 6 symbols.
fn random_bits(seed: u64) -> Vec<i64> {
    let mut rng = SplitMix64::new(seed);
    (0..PAYLOAD_BITS)
        .map(|_| (rng.next_u64() & 1) as i64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdrel_minic::compile;
    use amdrel_profiler::Interpreter;

    #[test]
    fn minic_matches_reference_bit_exactly() {
        let w = workload(42);
        let program = compile(&w.source, "main").expect("OFDM source compiles");
        let exec = Interpreter::new(&program.ir)
            .run(&w.input_refs())
            .expect("OFDM source runs");
        let frame = transmit(&w.inputs[0].1);
        assert_eq!(exec.return_value, Some(frame.checksum), "checksum");
        assert_eq!(exec.global("out_re").unwrap(), &frame.re[..], "real frame");
        assert_eq!(exec.global("out_im").unwrap(), &frame.im[..], "imag frame");
    }

    #[test]
    fn workload_is_deterministic() {
        assert_eq!(workload(7).inputs, workload(7).inputs);
        assert_ne!(random_bits(1), random_bits(2));
    }

    #[test]
    fn block_count_is_paper_scale() {
        // The paper reports 18 source-level basic blocks for its OFDM
        // code (Lex counts blocks in the original functions). Our CDFG is
        // the fully-inlined whole program, so every call site carries its
        // own copy of the callee's blocks — a few dozen blocks total is
        // the equivalent scale.
        let w = workload(1);
        let program = compile(&w.source, "main").unwrap();
        let n = program.cdfg.len();
        assert!(
            (10..=90).contains(&n),
            "OFDM CDFG has {n} blocks, expected paper-scale"
        );
    }
}
