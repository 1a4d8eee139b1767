//! Seeded, smooth CM1-like fields: the only inputs the node receives.
//!
//! Every variable is a `rows × cols` grid of f64 around a potential-
//! temperature base (≈300 K) with a few travelling waves and a small
//! fine-scale perturbation, so the bytes look like real model output
//! to the checksum, the copy and the compressor — not like the constant
//! vectors older benches wrote. Each field is a pure function of
//! `(seed, variable, iteration)`: the verifier regenerates what any
//! iteration wrote instead of keeping it.

/// SplitMix64: tiny, seedable, good enough to place waves and pick keys.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
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

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Shape of one iteration: `vars` variables of `rows × cols` f64 each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    pub vars: usize,
    pub rows: usize,
    pub cols: usize,
}

impl Geometry {
    pub fn var_bytes(&self) -> usize {
        self.rows * self.cols * 8
    }

    pub fn iter_bytes(&self) -> usize {
        self.vars * self.var_bytes()
    }
}

/// Per-variable wave parameters, drawn once from the seed.
#[derive(Debug, Clone)]
struct Waves {
    base: f64,
    amp: [f64; 3],
    kx: [f64; 3],
    ky: [f64; 3],
    phase: [f64; 3],
    speed: [f64; 3],
    noise: f64,
}

/// Generates every variable of every iteration for one seed.
#[derive(Debug, Clone)]
pub struct FieldGen {
    geometry: Geometry,
    seed: u64,
    waves: Vec<Waves>,
}

impl FieldGen {
    pub fn new(seed: u64, geometry: Geometry) -> FieldGen {
        let mut rng = Rng::new(seed ^ 0xD1B5_4A32_D192_ED03);
        let tau = std::f64::consts::TAU;
        let waves = (0..geometry.vars)
            .map(|_| {
                let mut w = Waves {
                    base: 290.0 + 20.0 * rng.unit(),
                    amp: [0.0; 3],
                    kx: [0.0; 3],
                    ky: [0.0; 3],
                    phase: [0.0; 3],
                    speed: [0.0; 3],
                    noise: 1e-3 + 1e-2 * rng.unit(),
                };
                for k in 0..3 {
                    w.amp[k] = (4.0 + 6.0 * rng.unit()) / (k + 1) as f64;
                    w.kx[k] = tau * (1 + rng.below(4)) as f64 / geometry.cols as f64;
                    w.ky[k] = tau * (1 + rng.below(4)) as f64 / geometry.rows as f64;
                    w.phase[k] = tau * rng.unit();
                    w.speed[k] = 0.01 + 0.05 * rng.unit();
                }
                w
            })
            .collect();
        FieldGen {
            geometry,
            seed,
            waves,
        }
    }

    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Writes variable `var` of `iteration` as little-endian f64 bytes
    /// into `out` (resized to [`Geometry::var_bytes`]).
    pub fn fill(&self, var: usize, iteration: u32, out: &mut Vec<u8>) {
        let g = self.geometry;
        let w = &self.waves[var];
        out.clear();
        out.reserve(g.var_bytes());
        // sin(a + b) = sin a·cos b + cos a·sin b: every wave is separable,
        // so a grid costs O(rows + cols) transcendentals.
        let t = f64::from(iteration);
        let col_tab: Vec<[f64; 6]> = (0..g.cols)
            .map(|j| {
                let x = j as f64;
                let mut r = [0.0; 6];
                for k in 0..3 {
                    let a = w.kx[k] * x + w.phase[k] + w.speed[k] * t;
                    r[2 * k] = a.sin();
                    r[2 * k + 1] = a.cos();
                }
                r
            })
            .collect();
        let mut noise = Rng::new(
            self.seed
                ^ (var as u64).wrapping_mul(0x1000_0000_01B3)
                ^ u64::from(iteration).wrapping_mul(0x9E37_79B9),
        );
        for i in 0..g.rows {
            let y = i as f64;
            let mut row = [0.0; 6];
            for k in 0..3 {
                let b = w.ky[k] * y;
                row[2 * k] = w.amp[k] * b.cos();
                row[2 * k + 1] = w.amp[k] * b.sin();
            }
            for c in &col_tab {
                let mut v = w.base;
                for k in 0..3 {
                    v += c[2 * k] * row[2 * k] + c[2 * k + 1] * row[2 * k + 1];
                }
                v += w.noise * (noise.unit() - 0.5);
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }

    /// Variable `var` of `iteration` as a fresh buffer.
    pub fn field(&self, var: usize, iteration: u32) -> Vec<u8> {
        let mut out = Vec::new();
        self.fill(var, iteration, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: Geometry = Geometry {
        vars: 2,
        rows: 8,
        cols: 16,
    };

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = FieldGen::new(7, G);
        let b = FieldGen::new(7, G);
        let c = FieldGen::new(8, G);
        assert_eq!(a.field(1, 3), b.field(1, 3));
        assert_ne!(a.field(1, 3), c.field(1, 3));
        assert_ne!(a.field(0, 3), a.field(1, 3));
        assert_ne!(a.field(1, 3), a.field(1, 4));
        assert_eq!(a.field(0, 0).len(), G.var_bytes());
    }

    #[test]
    fn fields_are_smooth_and_not_constant() {
        let f = FieldGen::new(1, G).field(0, 0);
        let v: Vec<f64> = f
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
        assert!(hi - lo > 1.0, "field must vary");
        assert!((250.0..350.0).contains(&lo) && (250.0..350.0).contains(&hi));
        let max_step = v
            .windows(2)
            .map(|p| (p[1] - p[0]).abs())
            .fold(0.0, f64::max);
        assert!(max_step < hi - lo, "neighbours stay close");
    }
}
