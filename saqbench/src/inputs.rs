//! Seeded inputs: the ECG corpus, the query pools and the live ECG
//! streams. Everything here is a pure function of the workload seed, so
//! the same seed gives the same archive, the same queries and the same
//! append waves; the program under test only ever sees the results.

use saq_ecg::synth::{synthesize, EcgSpec};
use saq_sequence::generators::{goalpost, peaks, GoalpostSpec, PeaksSpec};
use saq_sequence::{Point, Sequence};

/// SplitMix64: a small, well-mixed generator for input choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0DE5_A11D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Samples in one archived ECG segment (the paper's Fig. 9 segments).
pub const ECG_SAMPLES: usize = 500;

/// The archive corpus: ids `0..n`. Three in four are 500-sample ECG
/// segments with seeded rhythm, amplitude, noise and baseline wander;
/// the rest are goal-post fevers and one-to-three-peak series.
pub fn corpus(seed: u64, n: usize) -> Vec<(u64, Sequence)> {
    let mut rng = Rng::new(seed);
    (0..n as u64)
        .map(|id| {
            let item_seed = rng.next_u64();
            let seq = match id % 8 {
                3 => goalpost(GoalpostSpec {
                    peak1: rng.range(5.0, 10.0),
                    peak2: rng.range(14.0, 20.0),
                    noise: rng.range(0.05, 0.2),
                    seed: item_seed,
                    ..GoalpostSpec::default()
                }),
                7 => {
                    let count = 1 + rng.below(3);
                    let centers = (0..count).map(|k| 4.0 + 7.0 * k as f64 + rng.unit()).collect();
                    peaks(PeaksSpec {
                        centers,
                        noise: rng.range(0.05, 0.2),
                        seed: item_seed,
                        ..PeaksSpec::default()
                    })
                }
                _ => synthesize(EcgSpec {
                    n: ECG_SAMPLES,
                    first_r: rng.range(20.0, 120.0),
                    rr: rng.range(120.0, 160.0),
                    rr_jitter: rng.range(0.0, 6.0),
                    r_amp: rng.range(90.0, 160.0),
                    noise: rng.range(0.0, 3.0),
                    wander: rng.range(0.0, 8.0),
                    seed: item_seed,
                }),
            };
            (id, seq)
        })
        .collect()
}

/// A `band` leaf centred on `seq`, with values rounded so the query text
/// stays short enough to read.
fn band(seq: &Sequence, delta: f64) -> String {
    let points: Vec<String> = seq.points().iter().map(|p| format!("{}:{:.1}", p.t, p.v)).collect();
    format!("band [{}] delta {delta}", points.join(", "))
}

/// Scan-heavy SAQL for ecg-scan: steepness and band leaves have no index,
/// so every query fetches and derives every entry it cannot find cached.
pub fn scan_queries(seed: u64, corpus: &[(u64, Sequence)]) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x5CA7);
    let pick_ecg = |rng: &mut Rng| loop {
        let (_, seq) = &corpus[rng.below(corpus.len())];
        if seq.len() == ECG_SAMPLES {
            return seq.clone();
        }
    };
    let mut out = Vec::new();
    for _ in 0..4 {
        out.push(format!("steepness any >= {:.1}", rng.range(14.0, 30.0)));
        out.push(format!(
            "steepness all >= {:.2} slack {:.2}",
            rng.range(0.05, 0.5),
            rng.range(0.5, 4.0)
        ));
        out.push(format!(
            "steepness any >= {:.1} and not steepness any >= {:.1} or peaks = {}",
            rng.range(10.0, 18.0),
            rng.range(22.0, 30.0),
            1 + rng.below(3)
        ));
        out.push(format!(
            "(steepness any >= {:.1} or steepness all >= {:.2}) and id in [{}..{}]",
            rng.range(14.0, 24.0),
            rng.range(0.1, 0.4),
            0,
            corpus.len() / 2 + rng.below(corpus.len() / 2)
        ));
    }
    for _ in 0..2 {
        let center = pick_ecg(&mut rng);
        out.push(format!("{} slack 1", band(&center, rng.range(15.0, 40.0).round())));
        let center = pick_ecg(&mut rng);
        out.push(format!(
            "{} or steepness any >= {:.1}",
            band(&center, rng.range(20.0, 50.0).round()),
            rng.range(25.0, 35.0)
        ));
    }
    out
}

/// Index-answerable SAQL for ecg-hot (peak counts, RR intervals, id
/// ranges), plus steepness scans confined to id ranges whose entries are
/// all cached.
pub fn hot_queries(seed: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x407);
    let id_range = |rng: &mut Rng| {
        let lo = rng.below(n);
        let hi = (lo + 1 + rng.below(n / 4)).min(n - 1);
        (lo, hi)
    };
    let mut out = Vec::new();
    for _ in 0..4 {
        out.push(format!("peaks = {} tol {}", 2 + rng.below(4), rng.below(2)));
        out.push(format!("interval = {} tol {}", 120 + rng.below(40), 1 + rng.below(5)));
        let (lo, hi) = id_range(&mut rng);
        out.push(format!("id in [{lo}..{hi}]"));
        let (lo, hi) = id_range(&mut rng);
        out.push(format!("peaks = {} and id in [{lo}..{hi}]", 3 + rng.below(3)));
        let (lo, hi) = id_range(&mut rng);
        out.push(format!("steepness any >= {:.1} and id in [{lo}..{hi}]", rng.range(14.0, 30.0)));
    }
    out
}

/// One live ECG monitor: a long seeded recording whose first
/// [`ECG_SAMPLES`] points are archived at set-up and whose remainder
/// arrives in `chunk`-point append waves.
#[derive(Debug, Clone)]
pub struct LiveStream {
    pub id: u64,
    pub points: Vec<Point>,
}

impl LiveStream {
    /// The archived prefix.
    pub fn initial(&self) -> Sequence {
        Sequence::new(self.points[..ECG_SAMPLES].to_vec()).expect("synthesized prefix is valid")
    }

    /// The `k`-th append wave (0-based), or `None` once the recording is
    /// exhausted.
    pub fn wave(&self, k: usize, chunk: usize) -> Option<&[Point]> {
        let start = ECG_SAMPLES + k * chunk;
        self.points.get(start..start + chunk)
    }
}

/// Live monitors with ids `first_id..first_id + count`, each long enough
/// for `waves_each` appends of `chunk` points. One beat per `chunk`
/// samples with no jitter or noise, so every wave adds the same peaks.
pub fn live_streams(
    seed: u64,
    first_id: u64,
    count: usize,
    waves_each: usize,
    chunk: usize,
) -> Vec<LiveStream> {
    let mut rng = Rng::new(seed ^ 0x11FE);
    (0..count as u64)
        .map(|k| {
            let seq = synthesize(EcgSpec {
                n: ECG_SAMPLES + waves_each * chunk,
                first_r: rng.range(30.0, 100.0),
                rr: chunk as f64,
                rr_jitter: 0.0,
                r_amp: rng.range(110.0, 150.0),
                noise: 0.0,
                wander: 0.0,
                seed: rng.next_u64(),
            });
            LiveStream { id: first_id + k, points: seq.points().to_vec() }
        })
        .collect()
}
