//! BRUSS2D — spatial discretisation of the two-dimensional Brusselator
//! reaction–diffusion equation (the paper's *sparse* test system, its ref.\[21]).
//!
//! On an `N×N` grid with grid spacing `1/(N−1)` and Neumann boundary, the
//! method of lines yields `n = 2N²` ODEs for the concentrations `u`, `v`:
//!
//! ```text
//! u' = B + u²v − (A+1)u + α ∇²u
//! v' = A u − u²v + α ∇²v
//! ```
//!
//! Evaluation cost is linear in `n` (5-point stencil), which is what makes
//! the ODE system "sparse" in the paper's terminology.

use crate::system::OdeSystem;
use std::ops::Range;

/// The 2D Brusselator system.
#[derive(Debug, Clone)]
pub struct Bruss2d {
    /// Grid points per dimension.
    pub n_grid: usize,
    /// Diffusion coefficient `α`.
    pub alpha: f64,
    /// Reaction parameter `A`.
    pub a: f64,
    /// Reaction parameter `B`.
    pub b: f64,
    /// Cost-model hint: effective flops charged per component evaluation.
    /// The raw stencil is ~13 flops, but the paper's generated solvers
    /// evaluate `f` through a generic per-component callback whose
    /// indexing/call overhead dominates; 50 effective flops reproduces the
    /// compute/communication balance of their measurements.  The 50 model
    /// those callback solvers, not this crate's row-walking kernel
    /// ([`OdeSystem::eval_range`]), which runs close to the raw stencil;
    /// the value stays 50 so that simulated times do not move.
    pub flops_hint: f64,
}

impl Bruss2d {
    /// Standard parameters (`A = 3.4`, `B = 1`, `α = 2·10⁻³`, Hairer et
    /// al.).
    pub fn new(n_grid: usize) -> Bruss2d {
        assert!(n_grid >= 2, "need at least a 2×2 grid");
        Bruss2d {
            n_grid,
            alpha: 2e-3,
            a: 3.4,
            b: 1.0,
            flops_hint: 50.0,
        }
    }

    #[inline]
    fn idx(&self, x: usize, y: usize) -> usize {
        y * self.n_grid + x
    }
}

/// Evaluate the non-empty columns `xs` of grid row `y` of one field into
/// `out`.
///
/// `field` is the field being differentiated (`u` or `v`), and
/// `react(u, v, lap)` its right-hand side at one cell, given the scaled
/// 5-point Laplacian `lap` with Neumann (reflecting) boundary.  The rows
/// above and below are clamped once per call; within the row, `x = 0` and
/// `x = n − 1` take their clamped neighbours and every interior cell reads
/// `row[x - 1]` and `row[x + 1]` without a branch.
#[allow(clippy::too_many_arguments)] // one row segment's inputs, hoisted by the caller
#[inline(always)]
fn row_segment(
    field: &[f64],
    u: &[f64],
    v: &[f64],
    n: usize,
    y: usize,
    xs: Range<usize>,
    h2: f64,
    out: &mut [f64],
    react: impl Fn(f64, f64, f64) -> f64,
) {
    let row = &field[y * n..][..n];
    let down = &field[y.saturating_sub(1) * n..][..n];
    let up = &field[(y + 1).min(n - 1) * n..][..n];
    let (ur, vr) = (&u[y * n..][..n], &v[y * n..][..n]);
    let cell = |x: usize, left: f64, right: f64| {
        let c = row[x];
        react(
            ur[x],
            vr[x],
            (left + right + up[x] + down[x] - 4.0 * c) / h2,
        )
    };
    let mut lo = xs.start;
    let mut out = &mut out[..xs.len()];
    if lo == 0 {
        let (first, rest) = out.split_first_mut().expect("non-empty segment");
        *first = cell(0, row[0], row[1]);
        (out, lo) = (rest, 1);
    }
    if xs.end == n {
        let (last, rest) = out.split_last_mut().expect("x = n - 1 is in the segment");
        *last = cell(n - 1, row[n - 2], row[n - 1]);
        out = rest;
    }
    // Interior: every slice has the output's length, so the loop carries
    // no bounds checks either.
    let len = out.len();
    let (left, right) = (&row[lo - 1..][..len], &row[lo + 1..][..len]);
    let (mid, up, down) = (&row[lo..][..len], &up[lo..][..len], &down[lo..][..len]);
    let (ur, vr) = (&ur[lo..][..len], &vr[lo..][..len]);
    for k in 0..len {
        let c = mid[k];
        out[k] = react(
            ur[k],
            vr[k],
            (left[k] + right[k] + up[k] + down[k] - 4.0 * c) / h2,
        );
    }
}

impl OdeSystem for Bruss2d {
    fn dim(&self) -> usize {
        2 * self.n_grid * self.n_grid
    }

    /// Walks `range` one grid-row segment of one field at a time (a block
    /// split may start or end a segment mid-row; `u` rows end where `v`
    /// rows begin), with the field, the neighbouring rows, `h²` and `A + 1`
    /// hoisted out of the segment's loop.  Each component keeps the
    /// expression and evaluation order of the per-component form, so the
    /// output is bit-identical to it (tested against that form as an
    /// oracle).
    fn eval_range(&self, _t: f64, yv: &[f64], range: Range<usize>, out: &mut [f64]) {
        let n = self.n_grid;
        let n2 = n * n;
        let (u, v) = yv.split_at(n2);
        let h = 1.0 / (n as f64 - 1.0);
        let h2 = h * h;
        let (a, a1, b, alpha) = (self.a, self.a + 1.0, self.b, self.alpha);
        let mut out = &mut out[..range.len()];
        let mut i = range.start;
        while i < range.end {
            let (field_v, cell) = if i < n2 { (false, i) } else { (true, i - n2) };
            let (y, x0) = (cell / n, cell % n);
            let x1 = n.min(x0 + (range.end - i));
            let (seg, rest) = std::mem::take(&mut out).split_at_mut(x1 - x0);
            // The closures capture by value: capturing by reference, the
            // `v` loop reloaded `alpha` for every cell and did not vectorise.
            if field_v {
                row_segment(v, u, v, n, y, x0..x1, h2, seg, move |uu, vv, lap| {
                    a * uu - uu * uu * vv + alpha * lap
                });
            } else {
                row_segment(u, u, v, n, y, x0..x1, h2, seg, move |uu, vv, lap| {
                    b + uu * uu * vv - a1 * uu + alpha * lap
                });
            }
            out = rest;
            i += x1 - x0;
        }
    }

    fn flops_per_component(&self) -> f64 {
        self.flops_hint
    }

    fn implicit_solve_flops(&self) -> f64 {
        // Banded elimination: bandwidth ≈ 2·n_grid (the u/v coupling and
        // the grid stencil), cost ≈ 2·n·b².
        let n = self.dim() as f64;
        let b = 2.0 * self.n_grid as f64;
        2.0 * n * b * b
    }

    fn elimination_row_bytes(&self) -> f64 {
        8.0 * 2.0 * self.n_grid as f64
    }

    fn initial_value(&self) -> Vec<f64> {
        // Smooth non-equilibrium initial condition (Hairer's choice).
        let n = self.n_grid;
        let mut y = vec![0.0; self.dim()];
        for gy in 0..n {
            for gx in 0..n {
                let xf = gx as f64 / (n as f64 - 1.0);
                let yf = gy as f64 / (n as f64 - 1.0);
                y[self.idx(gx, gy)] = 0.5 + yf; // u
                y[n * n + self.idx(gx, gy)] = 1.0 + 5.0 * xf; // v
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The per-component form of the right-hand side: find each component's
    /// cell with a div and a mod, branch on its field and clamp its
    /// neighbours one by one.  The oracle the row walk must match bit for
    /// bit.
    fn eval_range_per_component(s: &Bruss2d, yv: &[f64], range: Range<usize>, out: &mut [f64]) {
        let n = s.n_grid;
        let laplacian = |field: &[f64], x: usize, y: usize| {
            let c = field[s.idx(x, y)];
            let left = field[s.idx(x.saturating_sub(1), y)];
            let right = field[s.idx(if x + 1 < n { x + 1 } else { x }, y)];
            let down = field[s.idx(x, y.saturating_sub(1))];
            let up = field[s.idx(x, if y + 1 < n { y + 1 } else { y })];
            let h = 1.0 / (n as f64 - 1.0);
            (left + right + up + down - 4.0 * c) / (h * h)
        };
        let n2 = n * n;
        let (u, v) = yv.split_at(n2);
        for (o, i) in out.iter_mut().zip(range) {
            let (field_v, cell) = if i < n2 { (false, i) } else { (true, i - n2) };
            let x = cell % n;
            let y = cell / n;
            let uu = u[cell];
            let vv = v[cell];
            *o = if !field_v {
                s.b + uu * uu * vv - (s.a + 1.0) * uu + s.alpha * laplacian(u, x, y)
            } else {
                s.a * uu - uu * uu * vv + s.alpha * laplacian(v, x, y)
            };
        }
    }

    /// A sub-range of `0..dim` of the given kind: a single component, part
    /// of one row, a range across the u/v boundary, the whole vector, or
    /// any range.
    fn sub_range(s: &Bruss2d, kind: u8, p: u64, q: u64) -> Range<usize> {
        let (n, dim) = (s.n_grid, s.dim());
        let n2 = n * n;
        let pick = |m: usize, r: u64| (r % m as u64) as usize;
        match kind {
            0 => {
                let i = pick(dim, p);
                i..i + 1
            }
            1 => {
                let row = pick(2 * n, p) * n;
                let (a, b) = (pick(n + 1, p >> 32), pick(n + 1, q));
                row + a.min(b)..row + a.max(b)
            }
            2 => n2 - pick(n2 + 1, p)..n2 + pick(n2 + 1, q),
            3 => 0..dim,
            _ => {
                let (a, b) = (pick(dim + 1, p), pick(dim + 1, q));
                a.min(b)..a.max(b)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn row_walk_matches_per_component_oracle_bit_for_bit(
            grid in 2usize..41,
            seed in any::<u64>(),
            kind in 0u8..5,
            p in any::<u64>(),
            q in any::<u64>(),
        ) {
            let s = Bruss2d::new(grid);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let y: Vec<f64> = s
                .initial_value()
                .into_iter()
                .map(|c| c * rng.gen_range(0.5..1.5))
                .collect();
            let range = sub_range(&s, kind, p, q);
            let mut got = vec![f64::NAN; range.len()];
            let mut want = vec![f64::NAN; range.len()];
            s.eval_range(0.0, &y, range.clone(), &mut got);
            eval_range_per_component(&s, &y, range.clone(), &mut want);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want), "grid {} range {:?}", grid, range);
        }
    }

    #[test]
    fn dimension_is_two_fields() {
        let s = Bruss2d::new(10);
        assert_eq!(s.dim(), 200);
    }

    #[test]
    fn eval_range_matches_full_eval() {
        let s = Bruss2d::new(6);
        let y = s.initial_value();
        let mut full = vec![0.0; s.dim()];
        s.eval(0.0, &y, &mut full);
        let mut part = vec![0.0; 13];
        s.eval_range(0.0, &y, 20..33, &mut part);
        assert_eq!(&full[20..33], &part[..]);
    }

    #[test]
    fn uniform_state_has_no_diffusion() {
        // With u, v spatially constant the Laplacian vanishes and all cells
        // evolve identically.
        let s = Bruss2d::new(5);
        let n2 = 25;
        let mut y = vec![0.0; s.dim()];
        y[..n2].fill(1.2);
        y[n2..].fill(3.0);
        let mut d = vec![0.0; s.dim()];
        s.eval(0.0, &y, &mut d);
        let du0 = d[0];
        let dv0 = d[n2];
        for c in 0..n2 {
            assert!((d[c] - du0).abs() < 1e-12);
            assert!((d[n2 + c] - dv0).abs() < 1e-12);
        }
        // Reaction terms at (u,v) = (1.2, 3): u' = 1 + 4.32·… check exact.
        let expect_du = 1.0 + 1.2 * 1.2 * 3.0 - 4.4 * 1.2;
        assert!((du0 - expect_du).abs() < 1e-12);
    }

    #[test]
    fn equilibrium_is_stationary_reactionwise() {
        // (u, v) = (B, A/B) is the homogeneous equilibrium.
        let s = Bruss2d::new(4);
        let n2 = 16;
        let mut y = vec![0.0; s.dim()];
        y[..n2].fill(s.b);
        y[n2..].fill(s.a / s.b);
        let mut d = vec![0.0; s.dim()];
        s.eval(0.0, &y, &mut d);
        for &v in &d {
            assert!(v.abs() < 1e-10, "equilibrium should be stationary: {v}");
        }
    }

    #[test]
    fn cost_is_linear() {
        let s = Bruss2d::new(8);
        assert_eq!(s.eval_flops(), s.flops_hint * 128.0);
    }
}
