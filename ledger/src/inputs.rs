//! Seeded inputs: the PRNG, the samplers the workloads draw from, and
//! the synthetic sources built with `objectrunner-webgen`. Everything
//! here is a pure function of the seed, and all of it runs before any
//! clock starts.

use objectrunner_store::Json;
use objectrunner_webgen::{generate_site_with, Domain, Drift, PageKind, Quirk, SiteSpec};

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// An independent stream for one named purpose, so adding draws to
    /// one input never shifts another.
    pub fn fork(seed: u64, stream: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The `u`-quantile (`u` in `[0, 1)`) of the integers `lo..=hi` drawn
/// log-uniformly: each doubling of the size about as likely as the
/// last.
pub fn log_uniform_at(lo: usize, hi: usize, u: f64) -> usize {
    let (a, b) = ((lo as f64).ln(), ((hi + 1) as f64).ln());
    ((a + u * (b - a)).exp() as usize).clamp(lo, hi)
}

/// `n` evenly spaced points of `[0, 1)`, one in the middle of each of
/// `n` equal strata. Drawing through them gives every seed exactly the
/// same distribution of sizes and ranks; the seed then decides which
/// request gets which, and what the pages hold.
pub fn strata(n: usize) -> impl Iterator<Item = f64> {
    (0..n).map(move |i| (i as f64 + 0.5) / n as f64)
}

/// Draws from `0..n` that deal every index once, in a fresh seeded
/// order, before any repeats: a phase gets the pool's mix exactly, not
/// a sample of it.
pub struct Deck {
    order: Vec<usize>,
    next: usize,
}

impl Deck {
    pub fn new(n: usize) -> Deck {
        Deck {
            order: (0..n).collect(),
            next: n,
        }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.order.len() {
            rng.shuffle(&mut self.order);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank at quantile `u` in `[0, 1)`.
    pub fn at(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One synthetic source: a site spec and its generated pages.
pub struct Source {
    pub name: String,
    pub domain: Domain,
    pub spec: SiteSpec,
    pub pages: Vec<String>,
}

/// The `k`-th list-page site of a mix of template styles, cell markup
/// and navigation/ad noise — the variety real sources show. The mix is
/// stratified by `k` (every combination recurs every 12 sources), so a
/// fleet's shape does not swing with the seed; the seed picks the
/// records each site renders.
pub fn mixed_spec(name: &str, domain: Domain, pages: usize, k: usize, rng: &mut Rng) -> SiteSpec {
    let mut spec = SiteSpec::clean(name, domain, PageKind::List, pages, rng.next_u64() >> 16);
    spec.style = k % 3;
    spec.distinct_markup = (k / 3) % 2 == 1;
    if (k / 6) % 2 == 1 {
        spec = spec.with_quirk(Quirk::NoiseBlocks);
    }
    spec
}

/// Generate a source's pages, optionally through a template drift.
pub fn generate(name: &str, spec: SiteSpec, drift: f64) -> Source {
    let site = generate_site_with(&spec, &Drift::new(drift));
    Source {
        name: name.to_owned(),
        domain: spec.domain,
        pages: site.pages,
        spec,
    }
}

/// Append a protocol line's newline and hand back the bytes a client
/// writes.
pub fn wire(line: String) -> Vec<u8> {
    let mut bytes = line.into_bytes();
    bytes.push(b'\n');
    bytes
}

pub fn induce_line(source: &str, domain: Domain, pages: &[String]) -> String {
    Json::Obj(vec![
        ("cmd".into(), Json::str("induce")),
        ("source".into(), Json::str(source)),
        ("domain".into(), Json::str(domain.name())),
        (
            "pages".into(),
            Json::Arr(pages.iter().map(|p| Json::str(p.as_str())).collect()),
        ),
    ])
    .render()
}

pub fn extract_line<'a>(source: &str, pages: impl IntoIterator<Item = &'a String>) -> String {
    Json::Obj(vec![
        ("cmd".into(), Json::str("extract")),
        ("source".into(), Json::str(source)),
        (
            "pages".into(),
            Json::Arr(pages.into_iter().map(|p| Json::str(p.as_str())).collect()),
        ),
    ])
    .render()
}

/// `n` consecutive pages of a pool starting at `start`, wrapping.
pub fn window(pool: &[String], start: usize, n: usize) -> impl Iterator<Item = &String> {
    (0..n).map(move |i| &pool[(start + i) % pool.len()])
}
