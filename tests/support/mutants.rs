//! Seeded never-panic checks for parsers of untrusted bytes: the wire
//! protocol's and the on-disk formats' unit tests each include this file
//! (`#[path = ".../tests/support/mutants.rs"] mod mutants;`), so every
//! parser is attacked the same way.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Feeds `parse` every proper prefix of `golden`, then `mutants` seeded
/// mutants of it. A mutant makes one to three edits: a byte overwrite,
/// an inserted or removed `[`, `{`, `"` or `\`, or a run of digits
/// swapped for `1e999`, `-0` or a 30-digit integer. `parse` may return
/// `Ok` or `Err`; a panic fails the test, naming the input.
pub fn never_panics(golden: &[u8], mutants: usize, seed: u64, parse: impl Fn(&[u8])) {
    let check = |input: &[u8]| {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| parse(input)));
        assert!(
            outcome.is_ok(),
            "parser panicked on {:?}",
            String::from_utf8_lossy(input)
        );
    };
    for cut in 0..golden.len() {
        check(&golden[..cut]);
    }
    const STRUCTURAL: [u8; 4] = [b'[', b'{', b'"', b'\\'];
    const NUMBERS: [&str; 3] = ["1e999", "-0", "123456789012345678901234567890"];
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..mutants {
        let mut bytes = golden.to_vec();
        for _ in 0..rng.gen_range(1..=3) {
            let at = rng.gen_range(0..=bytes.len());
            match rng.gen_range(0..4) {
                0 if at < bytes.len() => bytes[at] = rng.gen_range(0..=255u8),
                1 => bytes.insert(at, STRUCTURAL[rng.gen_range(0..4)]),
                2 => {
                    let found = bytes[at..].iter().position(|b| STRUCTURAL.contains(b));
                    if let Some(k) = found {
                        bytes.remove(at + k);
                    }
                }
                _ => {
                    let found = bytes[at..].iter().position(u8::is_ascii_digit);
                    if let Some(k) = found {
                        let start = at + k;
                        let end = bytes[start..]
                            .iter()
                            .position(|b| !b.is_ascii_digit())
                            .map_or(bytes.len(), |n| start + n);
                        let number = NUMBERS[rng.gen_range(0..NUMBERS.len())];
                        bytes.splice(start..end, number.bytes());
                    }
                }
            }
        }
        check(&bytes);
    }
}
