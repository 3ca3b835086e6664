//! Every codec's frame bytes against a recorded fixture.
//!
//! `frame_bytes.txt` holds, one frame a line, the exact bytes the
//! two-buffer frame writer (payload `Vec` grown by each push, then
//! copied after the header into a second buffer) produced for the
//! raw, q8, `topk:3` and sign codecs at n ∈ {0, 7, 257}. The
//! single-buffer writer must reproduce them byte for byte, and the
//! frame it hands out must be allocated at its exact length.
//!
//! Line format: `<codec spec> <n> <lowercase hex of the frame>`.

use oasis_wire::CodecSpec;

const FIXTURE: &str = include_str!("frame_bytes.txt");

const CODECS: [&str; 4] = ["raw", "q8", "topk:3", "sign"];
const LENGTHS: [usize; 3] = [0, 7, 257];

/// A deterministic update with positive, negative and signed-zero
/// entries and no magnitude ties among the largest values.
fn update(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| match i % 11 {
            0 => 0.0,
            5 => -0.0,
            _ => ((i * 7919) % 1009) as f32 * 0.01 - 5.0 + i as f32 * 1e-4,
        })
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn frames() -> Vec<(String, usize, Vec<u8>)> {
    let mut out = Vec::new();
    for spec in CODECS {
        let codec = spec.parse::<CodecSpec>().unwrap().build();
        for n in LENGTHS {
            let encoded = codec.encode(&update(n)).unwrap();
            out.push((spec.to_owned(), n, encoded.payload));
        }
    }
    out
}

#[test]
fn frames_reproduce_the_recorded_bytes() {
    let got = frames();
    let recorded: Vec<&str> = FIXTURE.lines().collect();
    assert_eq!(recorded.len(), got.len(), "one fixture line per frame");
    for (line, (spec, n, bytes)) in recorded.iter().zip(&got) {
        let mut fields = line.split(' ');
        assert_eq!(fields.next(), Some(spec.as_str()));
        assert_eq!(fields.next(), Some(n.to_string().as_str()));
        assert_eq!(
            fields.next(),
            Some(hex(bytes).as_str()),
            "{spec} frame at n={n} differs from the recorded bytes"
        );
    }
}

#[test]
fn frames_are_allocated_at_their_exact_length() {
    for spec in CODECS {
        let codec = spec.parse::<CodecSpec>().unwrap().build();
        for n in LENGTHS {
            let encoded = codec.encode(&update(n)).unwrap();
            assert_eq!(encoded.payload.len(), codec.encoded_len(n), "{spec} n={n}");
            assert_eq!(
                encoded.payload.capacity(),
                encoded.payload.len(),
                "{spec} n={n}: frame buffer over-allocated"
            );
        }
    }
}
