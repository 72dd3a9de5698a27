//! The one-pass reader's number conversion against `str::parse`, bit
//! for bit: named edge cases, then seeded random tokens (shortest
//! float representations, live-shaped measurements, random digit
//! strings with exponents, exact halfway cases and malformed runs).
//!
//! The oracle is the classification `serde::reference` makes with the
//! standard library: a token with `.`, `e`, `E`, `+` or `-` after its
//! sign is an `f64`; any other is an `i64` if it fits, else a `u64`,
//! else an `f64`; a token none of them takes is an error. The release
//! sweep of ten million tokens is ignored by default:
//! `cargo test --release -p serde -- --ignored`.

use serde::{Number, Reader};

/// What `str::parse` makes of a number token.
fn oracle(token: &str) -> Option<Number> {
    let body = token.strip_prefix('-').unwrap_or(token);
    if !body.contains(['.', 'e', 'E', '+', '-']) {
        if let Ok(i) = token.parse::<i64>() {
            return Some(Number::Int(i));
        }
        if let Ok(u) = token.parse::<u64>() {
            return Some(Number::UInt(u));
        }
    }
    token.parse::<f64>().ok().map(Number::Float)
}

/// Checks the reader against the oracle on one token (floats by bits,
/// so `-0.0` differs from `0.0`), and that it consumes the whole token.
fn check(token: &str) {
    let mut r = Reader::new(token);
    if !token.starts_with(['-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9']) {
        assert_eq!(r.number(), Ok(None), "{token:?} is no number token");
        return;
    }
    let read = r.number();
    match (read, oracle(token)) {
        (Ok(Some(Number::Float(a))), Some(Number::Float(b))) => {
            assert_eq!(a.to_bits(), b.to_bits(), "{token}: read {a:e}, parse {b:e}")
        }
        (Ok(Some(a)), Some(b)) => assert_eq!(a, b, "{token}"),
        (Err(e), None) => {
            assert_eq!(
                e.to_string(),
                format!("invalid number {token:?}"),
                "{token}"
            )
        }
        (a, b) => panic!("{token}: read {a:?}, parse {b:?}"),
    }
    if oracle(token).is_some() {
        r.finish().unwrap_or_else(|e| panic!("{token}: {e}"));
    }
}

#[test]
fn named_edge_cases() {
    let tokens = [
        // Around 2^53, where Clinger's path ends.
        "9007199254740991",
        "9007199254740992",
        "9007199254740993",
        "9007199254740993.0",
        "9007199254740995.0",
        "9007199254740993e0",
        "900719925474099.3e1",
        "-9007199254740993.0",
        "9007199254740993.000000000001",
        "18014398509481986.0",
        "18014398509481990.0",
        // 19 and 20 significant digits: the last the scan converts,
        // the first it leaves to `str::parse`.
        "1234567890123456789.0",
        "9999999999999999999.0",
        "12345678901234567890.0",
        "0.1234567890123456789",
        "0.12345678901234567891",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "-9223372036854775809",
        "18446744073709551615",
        "18446744073709551616",
        "-18446744073709551615",
        // Leading zeros are not significant digits.
        "0.00012345678901234567",
        "0.000123456789012345678",
        "000000000000000000001",
        "0000000000000000000012345678901234567.5",
        "007",
        "-0",
        "-0.0",
        "0.0",
        "0e999999",
        "-0e-999999",
        "0.000000000000000000000000000000",
        // Shortest representations with a mantissa above 2^53.
        "6.576535566971131e-5",
        "0.30000000000000004",
        "0.012345678901234568",
        "2.2250738585072014e-27",
        "1.7976931348623157e55",
        // Powers of ten at and past the exact ones.
        "1E22",
        "1e23",
        "1e-22",
        "1e-23",
        "1e-27",
        "1e-28",
        "1e55",
        "1e56",
        "123456789e47",
        // Subnormals, overflow and underflow: outside the table.
        "5e-324",
        "2.2250738585072011e-308",
        "4.9406564584124654e-324",
        "2.4703282292062327e-324",
        "1.7976931348623157e308",
        "1.7976931348623159e308",
        "1e309",
        "-1e400",
        "1e-400",
        "1e99999999999999999999",
        // Forms `str::parse` takes or refuses.
        "1.",
        "1.e5",
        "-.5",
        "1E+2",
        "1e-0",
        "-",
        "--1",
        "1-2",
        "1.2.3",
        "1e",
        "1e+",
        "1e5e5",
        "1e5.5",
        "-e5",
        "1+",
    ];
    for token in tokens {
        check(token);
    }
}

/// SplitMix64: a small seeded generator, so the test needs no crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn digits(&mut self, n: u64) -> String {
        (0..n)
            .map(|_| (b'0' + self.below(10) as u8) as char)
            .collect()
    }
}

/// One random token of a random kind.
fn token(rng: &mut Rng) -> String {
    match rng.below(8) {
        // Any finite double, shortest representation.
        0 => loop {
            let f = f64::from_bits(rng.next());
            if f.is_finite() {
                break if rng.below(2) == 0 {
                    format!("{f:?}")
                } else {
                    format!("{f:e}")
                };
            }
        },
        // Live-shaped measurements: 1e-6 to 1e3, full precision.
        1 => format!("{:?}", 10f64.powf(rng.unit() * 9.0 - 6.0)),
        // Integers of every width.
        2 => {
            let bits = rng.below(65);
            let u = if bits == 0 {
                0
            } else {
                rng.next() >> (64 - bits)
            };
            match rng.below(3) {
                0 => u.to_string(),
                1 => format!("-{u}"),
                _ => format!("{u}.0"),
            }
        }
        // Random digit strings with optional point and exponent.
        3 | 4 => {
            let mut t = String::new();
            if rng.below(2) == 0 {
                t.push('-');
            }
            t += &"0".repeat(rng.below(3) as usize);
            let int_len = rng.below(22);
            t += &rng.digits(int_len);
            if rng.below(3) != 0 {
                t.push('.');
                t += &"0".repeat(rng.below(4) as usize);
                let frac_len = rng.below(22);
                t += &rng.digits(frac_len);
            }
            if rng.below(2) == 0 {
                t.push(['e', 'E'][rng.below(2) as usize]);
                t += ["", "+", "-"][rng.below(3) as usize];
                let exp = if rng.below(4) == 0 {
                    rng.below(400)
                } else {
                    rng.below(40)
                };
                t += &exp.to_string();
            }
            t
        }
        // Exactly halfway between two doubles, and one unit either side.
        5 => {
            let odd = (1u64 << 53) | rng.next() >> 11 | 1;
            let (w, q) = if rng.below(2) == 0 {
                // odd × 2^s, an integer.
                ((odd as u128) << rng.below(11), 0)
            } else {
                // odd / 2^s = odd × 5^s × 10^-s.
                let s = 1 + rng.below(4) as u32;
                (odd as u128 * 5u128.pow(s), -(s as i64))
            };
            let w = w + rng.below(3) as u128 - 1;
            format!("{w}e{q}")
        }
        // Halfway cases with a positive exponent: an odd 54-bit
        // multiple of 5^j, written as its cofactor times 10^j.
        6 => {
            let j = 1 + rng.below(22) as u32;
            let p = 5u64.pow(j);
            let lo = (1u64 << 53).div_ceil(p);
            let hi = (1u64 << 54) / p;
            if lo >= hi {
                return "1e23".to_string();
            }
            let mut u = lo + rng.below(hi - lo);
            u |= 1;
            let s = rng.below(3) as u32;
            // (u × 2^s) × 10^j = (u × 5^j) × 2^(s+j), an odd 54-bit
            // integer times a power of two.
            format!("{}e{j}", (u << s) as i128 + rng.below(3) as i128 - 1)
        }
        // Runs of number bytes that may not be numbers.
        _ => {
            let n = 1 + rng.below(6);
            let mut t: String = (0..n)
                .map(|_| b"0123456789.eE+-"[rng.below(15) as usize] as char)
                .collect();
            if t.starts_with(['.', 'e', 'E', '+']) {
                t.insert(0, '1');
            }
            t
        }
    }
}

fn sweep(seed: u64, n: usize) {
    let mut rng = Rng(seed);
    for _ in 0..n {
        check(&token(&mut rng));
    }
}

#[test]
fn random_tokens_convert_like_str_parse() {
    sweep(0x5eed, 200_000);
}

#[test]
#[ignore = "ten million tokens: run with --release -- --ignored"]
fn ten_million_tokens_convert_like_str_parse() {
    sweep(0x1e7, 10_000_000);
}
