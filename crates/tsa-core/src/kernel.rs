//! Runtime-dispatched SIMD row kernels for the score-only passes.
//!
//! The hot loops of [`crate::sweep`] update one lattice *row* at a
//! time — `k = 0..=n3` at fixed `(i, j)` for the slab sweep, a contiguous
//! `j`-run at fixed `i` on an anti-diagonal plane for the wavefront sweep.
//! Both rows read all seven DP predecessors from unit-stride slices, so
//! they vectorize with plain unaligned loads:
//!
//! * **slab rows** carry a serial dependency on the previous cell of the
//!   same row (`cur[k−1] + g2`). The kernel splits the recurrence into the
//!   six *independent* predecessor terms (vectorized directly) and a
//!   max-plus prefix scan with constant increment `g2`, computed with
//!   `log₂(lanes)` shift-and-max steps per vector (Hillis–Steele over the
//!   `(max, +)` semiring). `max` is associative and `+` distributes over it
//!   (`max(a,b)+c = max(a+c, b+c)` exactly in `i32`), so the result is
//!   **bit-identical** to the sequential loop.
//! * **plane rows** have no intra-row dependency at all: every predecessor
//!   lives on one of the three previous planes, so the kernel is a pure
//!   element-wise maximum over seven shifted loads.
//!
//! Dispatch is by [`SimdKernel`]: `auto` picks the widest instruction set
//! the CPU reports at runtime (`AVX2` → `SSE2` → scalar), explicit requests
//! degrade to the best available subset, and the scalar implementation in
//! `sweep.rs` stays the reference the differential tests compare
//! against. Non-`x86_64` targets always resolve to scalar.

use tsa_scoring::Scoring;

/// Which SIMD implementation of the inner row kernels to use: the
/// `kernel={auto,scalar,sse2,avx2}` knob of [`crate::Aligner::kernel`]
/// and `tsa align --kernel`. Every kernel computes the same `i32`
/// arithmetic, so the choice changes throughput only;
/// [`SimdKernel::resolve`] maps a request to what the running CPU
/// actually supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimdKernel {
    /// Pick the widest supported instruction set at runtime (the default).
    #[default]
    Auto,
    /// The scalar reference loops, exactly as written in `sweep.rs`.
    Scalar,
    /// 128-bit SSE2 lanes (4 cells per step; baseline on `x86_64`).
    Sse2,
    /// 256-bit AVX2 lanes (8 cells per step; runtime-detected).
    Avx2,
}

impl SimdKernel {
    /// Look up a kernel by its canonical name — the spelling of the
    /// `tsa align --kernel` flag and the benchmark's row ids.
    pub fn by_name(name: &str) -> Option<SimdKernel> {
        Some(match name {
            "auto" => SimdKernel::Auto,
            "scalar" => SimdKernel::Scalar,
            "sse2" => SimdKernel::Sse2,
            "avx2" => SimdKernel::Avx2,
            _ => return None,
        })
    }

    /// The canonical name accepted by [`SimdKernel::by_name`].
    pub fn name(&self) -> &'static str {
        match self {
            SimdKernel::Auto => "auto",
            SimdKernel::Scalar => "scalar",
            SimdKernel::Sse2 => "sse2",
            SimdKernel::Avx2 => "avx2",
        }
    }

    /// Resolve the request against the running CPU. `Auto` walks the
    /// ladder `avx2 → sse2 → scalar`. Explicit requests degrade
    /// gracefully (`avx2` on a non-AVX2 part runs `sse2`; any x86 request
    /// on a non-x86 target runs scalar). The effective choice is what job
    /// spans and benchmarks record.
    pub fn resolve(&self) -> ResolvedKernel {
        match self {
            SimdKernel::Scalar => ResolvedKernel(Resolved::Scalar),
            SimdKernel::Auto | SimdKernel::Avx2 if avx2_available() => {
                ResolvedKernel(Resolved::Avx2)
            }
            SimdKernel::Auto | SimdKernel::Avx2 | SimdKernel::Sse2 => {
                if cfg!(target_arch = "x86_64") {
                    ResolvedKernel(Resolved::Sse2)
                } else {
                    ResolvedKernel(Resolved::Scalar)
                }
            }
        }
    }

    /// True when the request runs natively (no degradation) on this CPU.
    pub fn is_native(&self) -> bool {
        match self {
            SimdKernel::Auto | SimdKernel::Scalar => true,
            SimdKernel::Sse2 => cfg!(target_arch = "x86_64"),
            SimdKernel::Avx2 => avx2_available(),
        }
    }
}

impl std::fmt::Display for SimdKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

/// The implementation a [`SimdKernel`] request resolved to on this CPU.
///
/// Deliberately not constructible outside the crate: the SIMD entry points
/// are `unsafe` on the promise that the instruction set is present, and
/// funnelling construction through [`SimdKernel::resolve`] keeps that
/// promise checked exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedKernel(pub(crate) Resolved);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resolved {
    Scalar,
    Sse2,
    Avx2,
}

impl ResolvedKernel {
    /// The canonical name of the implementation that actually runs
    /// (`"scalar"`, `"sse2"`, or `"avx2"`).
    pub fn name(&self) -> &'static str {
        match self.0 {
            Resolved::Scalar => "scalar",
            Resolved::Sse2 => "sse2",
            Resolved::Avx2 => "avx2",
        }
    }

    /// True when this is the scalar reference implementation.
    pub fn is_scalar(&self) -> bool {
        self.0 == Resolved::Scalar
    }
}

impl std::fmt::Display for ResolvedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Sentinel shifted into vacated prefix-scan lanes. It must lose every
/// `max` against any value a real DP chain can produce: cell values are
/// bounded below by `NEG_INF + (path length) · (worst column score)`
/// ≈ `i32::MIN/4 − O(n)`, while the sentinel sits at `i32::MIN/2` and only
/// ever has `O(lanes · |g2|)` added to it — far below, with no risk of
/// wrapping past `i32::MIN`.
const SENTINEL: i32 = i32::MIN / 2;

/// Substitution-score profile rows, so the row kernels read `sub(x, ·)` as
/// contiguous vector loads instead of per-cell 2D table lookups. Rows are
/// built once per score pass for the residues that actually occur (≤ the
/// alphabet size), `O(|Σ|·n)` space and time — negligible against `n³`.
pub(crate) struct Profiles {
    /// Every pair's rows, back to back in one allocation.
    rows: Box<[i32]>,
    /// `ab(r)[j-1] = sub(r, b[j-1])` for residues `r` of `a`.
    ab: RowMap,
    /// `ac(r)[k-1] = sub(r, c[k-1])` for residues `r` of `a`.
    ac: RowMap,
    /// `bc(r)[k-1] = sub(r, c[k-1])` for residues `r` of `b`.
    bc: RowMap,
}

/// Where one pair's rows sit in [`Profiles::rows`]: a row per distinct
/// residue of the pair's first sequence, in residue-byte order.
struct RowMap {
    /// `1 +` the row of each residue byte; `0` for residues that never
    /// occur.
    row_of: [u8; 256],
    /// Offset of the pair's first row.
    base: usize,
    /// Row length: the length of the pair's second sequence.
    len: usize,
}

impl RowMap {
    fn new(from: &[u8], len: usize, base: usize) -> RowMap {
        let mut row_of = [0u8; 256];
        for &r in from {
            row_of[r as usize] = 1;
        }
        let mut rows = 0u8;
        for slot in row_of.iter_mut().filter(|slot| **slot != 0) {
            // Residues come from an alphabet, far below 255 symbols.
            rows = rows.checked_add(1).expect("≤ 255 distinct residues");
            *slot = rows;
        }
        RowMap { row_of, base, len }
    }

    /// The residues with a row, in row order.
    fn residues(&self) -> impl Iterator<Item = u8> + '_ {
        (0..=u8::MAX).filter(|&r| self.row_of[r as usize] != 0)
    }
}

impl Profiles {
    pub(crate) fn new(scoring: &Scoring, ra: &[u8], rb: &[u8], rc: &[u8]) -> Profiles {
        let pairs = [(ra, rb), (ra, rc), (rb, rc)];
        let mut base = 0;
        let maps = pairs.map(|(from, against)| {
            let map = RowMap::new(from, against.len(), base);
            base += map.residues().count() * against.len();
            map
        });
        let mut rows = Vec::with_capacity(base);
        for (map, (_, against)) in maps.iter().zip(pairs) {
            for r in map.residues() {
                rows.extend(against.iter().map(|&x| scoring.sub(r, x)));
            }
        }
        let [ab, ac, bc] = maps;
        Profiles {
            rows: rows.into_boxed_slice(),
            ab,
            ac,
            bc,
        }
    }

    #[inline(always)]
    fn row<'a>(&'a self, map: &RowMap, r: u8) -> &'a [i32] {
        match map.row_of[r as usize] {
            0 => &[],
            row => &self.rows[map.base + (row as usize - 1) * map.len..][..map.len],
        }
    }

    /// Profile of residue `r` (from `a`) against all of `b`.
    #[inline(always)]
    pub(crate) fn ab(&self, r: u8) -> &[i32] {
        self.row(&self.ab, r)
    }

    /// Profile of residue `r` (from `a`) against all of `c`.
    #[inline(always)]
    pub(crate) fn ac(&self, r: u8) -> &[i32] {
        self.row(&self.ac, r)
    }

    /// Profile of residue `r` (from `b`) against all of `c`.
    #[inline(always)]
    pub(crate) fn bc(&self, r: u8) -> &[i32] {
        self.row(&self.bc, r)
    }
}

/// Per-thread scratch for the plane-row kernel: the four per-cell score
/// terms, prefilled scalar then consumed by vector loads.
#[derive(Default)]
pub(crate) struct PlaneScratch {
    /// `sab + sac + sbc` (the δ=111 column score).
    pub t111: Vec<i32>,
    /// `sab + g2` (δ=110).
    pub t110: Vec<i32>,
    /// `sac + g2` (δ=101).
    pub t101: Vec<i32>,
    /// `sbc + g2` (δ=011).
    pub t011: Vec<i32>,
}

impl PlaneScratch {
    pub(crate) fn ensure(&mut self, len: usize) {
        self.t111.resize(len, 0);
        self.t110.resize(len, 0);
        self.t101.resize(len, 0);
        self.t011.resize(len, 0);
    }
}

/// Borrowed inputs of one interior slab row `(i, j)`: the row is
/// `k = 0..=n3` with `cur_j[0]` already computed by the caller; the kernel
/// fills `cur_j[1..=n3]`.
pub(crate) struct SlabRow<'a> {
    /// Doubled linear gap penalty (two pair gaps per single-residue move).
    pub g2: i32,
    /// `sub(a[i-1], b[j-1])`, constant along the row.
    pub sab: i32,
    /// `sub(a[i-1], c[k-1])` at index `k-1`, length `n3`.
    pub sac: &'a [i32],
    /// `sub(b[j-1], c[k-1])` at index `k-1`, length `n3`.
    pub sbc: &'a [i32],
    /// Previous slab, row `j-1` (length `n3+1`).
    pub prev_j1: &'a [i32],
    /// Previous slab, row `j` (length `n3+1`).
    pub prev_j: &'a [i32],
    /// Current slab, row `j-1` (length `n3+1`, fully computed).
    pub cur_j1: &'a [i32],
}

/// Fill `cur_j[1..=n3]` of an interior slab row. `rk` must come from
/// [`SimdKernel::resolve`] on this process, which guarantees the selected
/// instruction set is present.
pub(crate) fn slab_row(rk: ResolvedKernel, row: &SlabRow<'_>, cur_j: &mut [i32]) {
    match rk.0 {
        Resolved::Scalar => slab_row_scalar(row, cur_j),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Resolved::Sse2`/`Avx2` are only constructed by
        // `SimdKernel::resolve`, which checks the feature at runtime
        // (SSE2 is unconditionally part of the x86_64 baseline).
        Resolved::Sse2 => unsafe { x86::slab_row_sse2(row, cur_j) },
        #[cfg(target_arch = "x86_64")]
        Resolved::Avx2 => unsafe { x86::slab_row_avx2(row, cur_j) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => slab_row_scalar(row, cur_j),
    }
}

/// Scalar tail/fallback of the slab row: the exact recurrence of the
/// reference loop in `sweep::compute_slab`, starting at `k = from`.
#[inline(always)]
pub(crate) fn slab_row_tail(row: &SlabRow<'_>, cur_j: &mut [i32], from: usize) {
    let n3 = row.sac.len();
    let (g2, sab) = (row.g2, row.sab);
    for k in from..=n3 {
        let sac = row.sac[k - 1];
        let sbc = row.sbc[k - 1];
        let p111 = row.prev_j1[k - 1] + sab + sac + sbc;
        let p110 = row.prev_j1[k] + sab + g2;
        let p101 = row.prev_j[k - 1] + sac + g2;
        let p011 = row.cur_j1[k - 1] + sbc + g2;
        let single = row.prev_j[k].max(row.cur_j1[k]).max(cur_j[k - 1]) + g2;
        cur_j[k] = p111.max(p110).max(p101).max(p011).max(single);
    }
}

fn slab_row_scalar(row: &SlabRow<'_>, cur_j: &mut [i32]) {
    slab_row_tail(row, cur_j, 1);
}

/// Borrowed inputs of one interior plane row segment: `len` consecutive
/// cells `(i, j, d−i−j)` for `j = js..js+len`, all with `i, j, k ≥ 1`.
/// Predecessor slices come from the three previous plane buffers at the
/// slot offsets worked out in `sweep::compute_plane_rows`.
pub(crate) struct PlaneRow<'a> {
    /// Doubled linear gap penalty.
    pub g2: i32,
    /// Per-cell δ=111 column scores (`sab+sac+sbc`).
    pub t111: &'a [i32],
    /// Per-cell `sab + g2`.
    pub t110: &'a [i32],
    /// Per-cell `sac + g2`.
    pub t101: &'a [i32],
    /// Per-cell `sbc + g2`.
    pub t011: &'a [i32],
    /// Plane `d−3`, predecessor `(i−1, j−1, k−1)`.
    pub p3_111: &'a [i32],
    /// Plane `d−2`, predecessor `(i−1, j−1, k)`.
    pub p2_110: &'a [i32],
    /// Plane `d−2`, predecessor `(i−1, j, k−1)`.
    pub p2_101: &'a [i32],
    /// Plane `d−2`, predecessor `(i, j−1, k−1)`.
    pub p2_011: &'a [i32],
    /// Plane `d−1`, predecessor `(i−1, j, k)`.
    pub p1_100: &'a [i32],
    /// Plane `d−1`, predecessor `(i, j−1, k)`.
    pub p1_010: &'a [i32],
    /// Plane `d−1`, predecessor `(i, j, k−1)`.
    pub p1_001: &'a [i32],
}

/// Compute `out[x]` for every cell of an interior plane row segment.
pub(crate) fn plane_row(rk: ResolvedKernel, row: &PlaneRow<'_>, out: &mut [i32]) {
    match rk.0 {
        Resolved::Scalar => plane_row_tail(row, out, 0),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see `slab_row` — resolution guarantees the feature.
        Resolved::Sse2 => unsafe { x86::plane_row_sse2(row, out) },
        #[cfg(target_arch = "x86_64")]
        Resolved::Avx2 => unsafe { x86::plane_row_avx2(row, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => plane_row_tail(row, out, 0),
    }
}

/// Scalar tail/fallback of the plane row, starting at cell `from`.
#[inline(always)]
fn plane_row_tail(row: &PlaneRow<'_>, out: &mut [i32], from: usize) {
    for (x, cell) in out.iter_mut().enumerate().skip(from) {
        let diag = (row.p3_111[x] + row.t111[x])
            .max(row.p2_110[x] + row.t110[x])
            .max(row.p2_101[x] + row.t101[x])
            .max(row.p2_011[x] + row.t011[x]);
        let single = row.p1_100[x].max(row.p1_010[x]).max(row.p1_001[x]) + row.g2;
        *cell = diag.max(single);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{PlaneRow, SlabRow, SENTINEL};
    use std::arch::x86_64::*;

    /// 32-bit signed max for SSE2 (`pmaxsd` needs SSE4.1).
    #[inline(always)]
    unsafe fn max_epi32_sse2(a: __m128i, b: __m128i) -> __m128i {
        let gt = _mm_cmpgt_epi32(a, b);
        _mm_or_si128(_mm_and_si128(gt, a), _mm_andnot_si128(gt, b))
    }

    #[inline(always)]
    unsafe fn load128(s: &[i32], at: usize) -> __m128i {
        debug_assert!(at + 4 <= s.len());
        _mm_loadu_si128(s.as_ptr().add(at) as *const __m128i)
    }

    #[inline(always)]
    unsafe fn load256(s: &[i32], at: usize) -> __m256i {
        debug_assert!(at + 8 <= s.len());
        _mm256_loadu_si256(s.as_ptr().add(at) as *const __m256i)
    }

    /// Slab row, 4 lanes: vectorized independent terms + in-register
    /// max-plus prefix scan, then the scalar reference recurrence for the
    /// tail.
    pub(super) unsafe fn slab_row_sse2(row: &SlabRow<'_>, cur_j: &mut [i32]) {
        let n3 = row.sac.len();
        let g2 = row.g2;
        let vg2 = _mm_set1_epi32(g2);
        let vsab = _mm_set1_epi32(row.sab);
        // Lane-0 (resp. lanes 0–1) sentinel corrections for the scan
        // shifts; `_mm_slli_si128` shifts in zeros, OR-ing rewrites them.
        let sent1 = _mm_set_epi32(0, 0, 0, SENTINEL);
        let sent2 = _mm_set_epi32(0, 0, SENTINEL, SENTINEL);
        let vg2x2 = _mm_set1_epi32(2 * g2);
        let ramp = _mm_set_epi32(4 * g2, 3 * g2, 2 * g2, g2);
        let mut carry = cur_j[0];
        let mut k = 1usize;
        while k + 4 <= n3 + 1 {
            let o = k - 1;
            let vsac = load128(row.sac, o);
            let vsbc = load128(row.sbc, o);
            let p111 = _mm_add_epi32(
                load128(row.prev_j1, o),
                _mm_add_epi32(vsab, _mm_add_epi32(vsac, vsbc)),
            );
            let p110 = _mm_add_epi32(load128(row.prev_j1, k), _mm_add_epi32(vsab, vg2));
            let p101 = _mm_add_epi32(load128(row.prev_j, o), _mm_add_epi32(vsac, vg2));
            let p011 = _mm_add_epi32(load128(row.cur_j1, o), _mm_add_epi32(vsbc, vg2));
            let pair = _mm_add_epi32(
                max_epi32_sse2(load128(row.prev_j, k), load128(row.cur_j1, k)),
                vg2,
            );
            let mut v = max_epi32_sse2(
                max_epi32_sse2(p111, p110),
                max_epi32_sse2(max_epi32_sse2(p101, p011), pair),
            );
            // Inclusive max-plus scan within the vector …
            let sh1 = _mm_or_si128(_mm_slli_si128::<4>(v), sent1);
            v = max_epi32_sse2(v, _mm_add_epi32(sh1, vg2));
            let sh2 = _mm_or_si128(_mm_slli_si128::<8>(v), sent2);
            v = max_epi32_sse2(v, _mm_add_epi32(sh2, vg2x2));
            // … then fold in the carry chain from the previous block.
            v = max_epi32_sse2(v, _mm_add_epi32(_mm_set1_epi32(carry), ramp));
            _mm_storeu_si128(cur_j.as_mut_ptr().add(k) as *mut __m128i, v);
            carry = _mm_cvtsi128_si32(_mm_shuffle_epi32::<0xFF>(v));
            k += 4;
        }
        super::slab_row_tail(row, cur_j, k);
    }

    /// Slab row, 8 lanes. Same scheme as [`slab_row_sse2`]; the
    /// cross-128-bit-lane shifts use the `permute2x128` + `alignr` idiom.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn slab_row_avx2(row: &SlabRow<'_>, cur_j: &mut [i32]) {
        let n3 = row.sac.len();
        let g2 = row.g2;
        let vg2 = _mm256_set1_epi32(g2);
        let vsab = _mm256_set1_epi32(row.sab);
        let vsent = _mm256_set1_epi32(SENTINEL);
        let vg2x2 = _mm256_set1_epi32(2 * g2);
        let vg2x4 = _mm256_set1_epi32(4 * g2);
        let ramp = _mm256_set_epi32(8 * g2, 7 * g2, 6 * g2, 5 * g2, 4 * g2, 3 * g2, 2 * g2, g2);
        let mut carry = cur_j[0];
        let mut k = 1usize;
        while k + 8 <= n3 + 1 {
            let o = k - 1;
            let vsac = load256(row.sac, o);
            let vsbc = load256(row.sbc, o);
            let p111 = _mm256_add_epi32(
                load256(row.prev_j1, o),
                _mm256_add_epi32(vsab, _mm256_add_epi32(vsac, vsbc)),
            );
            let p110 = _mm256_add_epi32(load256(row.prev_j1, k), _mm256_add_epi32(vsab, vg2));
            let p101 = _mm256_add_epi32(load256(row.prev_j, o), _mm256_add_epi32(vsac, vg2));
            let p011 = _mm256_add_epi32(load256(row.cur_j1, o), _mm256_add_epi32(vsbc, vg2));
            let pair = _mm256_add_epi32(
                _mm256_max_epi32(load256(row.prev_j, k), load256(row.cur_j1, k)),
                vg2,
            );
            let mut v = _mm256_max_epi32(
                _mm256_max_epi32(p111, p110),
                _mm256_max_epi32(_mm256_max_epi32(p101, p011), pair),
            );
            // Inclusive max-plus scan: shift by 1, 2, then 4 lanes. A
            // `__m256i` shift across the 128-bit halves needs the shifted-in
            // half from `permute2x128` ([0, v.lo]); vacated lanes are
            // re-blended with the sentinel.
            let low = _mm256_permute2x128_si256::<0x08>(v, v);
            let sh1 = _mm256_blend_epi32::<0b0000_0001>(_mm256_alignr_epi8::<12>(v, low), vsent);
            v = _mm256_max_epi32(v, _mm256_add_epi32(sh1, vg2));
            let low = _mm256_permute2x128_si256::<0x08>(v, v);
            let sh2 = _mm256_blend_epi32::<0b0000_0011>(_mm256_alignr_epi8::<8>(v, low), vsent);
            v = _mm256_max_epi32(v, _mm256_add_epi32(sh2, vg2x2));
            let low = _mm256_permute2x128_si256::<0x08>(v, v);
            let sh4 = _mm256_blend_epi32::<0b0000_1111>(low, vsent);
            v = _mm256_max_epi32(v, _mm256_add_epi32(sh4, vg2x4));
            v = _mm256_max_epi32(v, _mm256_add_epi32(_mm256_set1_epi32(carry), ramp));
            _mm256_storeu_si256(cur_j.as_mut_ptr().add(k) as *mut __m256i, v);
            carry = _mm256_extract_epi32::<7>(v);
            k += 8;
        }
        super::slab_row_tail(row, cur_j, k);
    }

    /// Plane row, 4 lanes: pure element-wise seven-way max.
    pub(super) unsafe fn plane_row_sse2(row: &PlaneRow<'_>, out: &mut [i32]) {
        let vg2 = _mm_set1_epi32(row.g2);
        let mut x = 0usize;
        while x + 4 <= out.len() {
            let diag = max_epi32_sse2(
                max_epi32_sse2(
                    _mm_add_epi32(load128(row.p3_111, x), load128(row.t111, x)),
                    _mm_add_epi32(load128(row.p2_110, x), load128(row.t110, x)),
                ),
                max_epi32_sse2(
                    _mm_add_epi32(load128(row.p2_101, x), load128(row.t101, x)),
                    _mm_add_epi32(load128(row.p2_011, x), load128(row.t011, x)),
                ),
            );
            let single = _mm_add_epi32(
                max_epi32_sse2(
                    max_epi32_sse2(load128(row.p1_100, x), load128(row.p1_010, x)),
                    load128(row.p1_001, x),
                ),
                vg2,
            );
            let v = max_epi32_sse2(diag, single);
            _mm_storeu_si128(out.as_mut_ptr().add(x) as *mut __m128i, v);
            x += 4;
        }
        super::plane_row_tail(row, out, x);
    }

    /// Plane row, 8 lanes.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn plane_row_avx2(row: &PlaneRow<'_>, out: &mut [i32]) {
        let vg2 = _mm256_set1_epi32(row.g2);
        let mut x = 0usize;
        while x + 8 <= out.len() {
            let diag = _mm256_max_epi32(
                _mm256_max_epi32(
                    _mm256_add_epi32(load256(row.p3_111, x), load256(row.t111, x)),
                    _mm256_add_epi32(load256(row.p2_110, x), load256(row.t110, x)),
                ),
                _mm256_max_epi32(
                    _mm256_add_epi32(load256(row.p2_101, x), load256(row.t101, x)),
                    _mm256_add_epi32(load256(row.p2_011, x), load256(row.t011, x)),
                ),
            );
            let single = _mm256_add_epi32(
                _mm256_max_epi32(
                    _mm256_max_epi32(load256(row.p1_100, x), load256(row.p1_010, x)),
                    load256(row.p1_001, x),
                ),
                vg2,
            );
            let v = _mm256_max_epi32(diag, single);
            _mm256_storeu_si256(out.as_mut_ptr().add(x) as *mut __m256i, v);
            x += 8;
        }
        super::plane_row_tail(row, out, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::NEG_INF;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn kernels_under_test() -> Vec<ResolvedKernel> {
        let mut ks = vec![SimdKernel::Scalar.resolve()];
        #[cfg(target_arch = "x86_64")]
        {
            ks.push(SimdKernel::Sse2.resolve());
            if SimdKernel::Avx2.is_native() {
                ks.push(SimdKernel::Avx2.resolve());
            }
        }
        ks.dedup();
        ks
    }

    #[test]
    fn names_round_trip() {
        for k in [
            SimdKernel::Auto,
            SimdKernel::Scalar,
            SimdKernel::Sse2,
            SimdKernel::Avx2,
        ] {
            assert_eq!(SimdKernel::by_name(k.name()), Some(k));
            assert_eq!(format!("{k}"), k.name());
        }
        assert_eq!(SimdKernel::by_name("neon"), None);
        assert_eq!(SimdKernel::default(), SimdKernel::Auto);
    }

    #[test]
    fn resolution_is_sane() {
        let auto = SimdKernel::Auto.resolve();
        assert!(["scalar", "sse2", "avx2"].contains(&auto.name()));
        assert!(SimdKernel::Scalar.resolve().is_scalar());
        assert_eq!(format!("{auto}"), auto.name());
    }

    /// The `auto` ladder is `avx2 → sse2 → scalar`, decided by the CPU alone.
    #[test]
    fn auto_ladder_follows_the_cpu() {
        let auto = SimdKernel::Auto.resolve();
        if cfg!(target_arch = "x86_64") && avx2_available() {
            assert_eq!(auto.name(), "avx2");
        } else if cfg!(target_arch = "x86_64") {
            assert_eq!(auto, SimdKernel::Sse2.resolve());
        } else {
            assert!(auto.is_scalar());
        }
        // An explicit `avx2` request degrades exactly as `auto` does.
        assert_eq!(SimdKernel::Avx2.resolve(), auto);
    }

    /// Random slab rows: every SIMD width must reproduce the scalar
    /// reference bit for bit, including rows shorter than one vector.
    #[test]
    fn slab_row_matches_scalar_reference() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0001);
        for trial in 0..200 {
            let n3 = rng.gen_range(0..40);
            let w3 = n3 + 1;
            let g2 = rng.gen_range(-30..0);
            let sab = rng.gen_range(-20..10);
            let mut vals = |n: usize, lo: i32| -> Vec<i32> {
                (0..n)
                    .map(|_| {
                        if rng.gen_range(0..8) == 0 {
                            NEG_INF
                        } else {
                            rng.gen_range(lo..200)
                        }
                    })
                    .collect()
            };
            let sac = vals(n3, -20);
            let sbc = vals(n3, -20);
            let prev_j1 = vals(w3, -5000);
            let prev_j = vals(w3, -5000);
            let cur_j1 = vals(w3, -5000);
            let first = rng.gen_range(-5000..200);
            let row = SlabRow {
                g2,
                sab,
                sac: &sac,
                sbc: &sbc,
                prev_j1: &prev_j1,
                prev_j: &prev_j,
                cur_j1: &cur_j1,
            };
            let mut want = vec![0; w3];
            want[0] = first;
            slab_row(SimdKernel::Scalar.resolve(), &row, &mut want);
            for rk in kernels_under_test() {
                let mut got = vec![0; w3];
                got[0] = first;
                slab_row(rk, &row, &mut got);
                assert_eq!(got, want, "trial {trial}, kernel {rk}");
            }
        }
    }

    /// Random plane rows: element-wise kernel must match the scalar
    /// reference bit for bit at every length.
    #[test]
    fn plane_row_matches_scalar_reference() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0002);
        for trial in 0..200 {
            let len = rng.gen_range(0..40);
            let g2 = rng.gen_range(-30..0);
            let mut vals = |lo: i32| -> Vec<i32> {
                (0..len)
                    .map(|_| {
                        if rng.gen_range(0..8) == 0 {
                            NEG_INF
                        } else {
                            rng.gen_range(lo..300)
                        }
                    })
                    .collect()
            };
            let (t111, t110, t101, t011) = (vals(-60), vals(-60), vals(-60), vals(-60));
            let (p3, p2a, p2b, p2c) = (vals(-5000), vals(-5000), vals(-5000), vals(-5000));
            let (p1a, p1b, p1c) = (vals(-5000), vals(-5000), vals(-5000));
            let row = PlaneRow {
                g2,
                t111: &t111,
                t110: &t110,
                t101: &t101,
                t011: &t011,
                p3_111: &p3,
                p2_110: &p2a,
                p2_101: &p2b,
                p2_011: &p2c,
                p1_100: &p1a,
                p1_010: &p1b,
                p1_001: &p1c,
            };
            let mut want = vec![0; len];
            plane_row(SimdKernel::Scalar.resolve(), &row, &mut want);
            for rk in kernels_under_test() {
                let mut got = vec![0; len];
                plane_row(rk, &row, &mut got);
                assert_eq!(got, want, "trial {trial}, kernel {rk}");
            }
        }
    }

    #[test]
    fn profiles_mirror_the_scoring_table() {
        let s = Scoring::blosum62();
        let (ra, rb, rc) = (b"ARND".as_slice(), b"NDCQ".as_slice(), b"QEGH".as_slice());
        let p = Profiles::new(&s, ra, rb, rc);
        for &r in ra {
            for (j, &x) in rb.iter().enumerate() {
                assert_eq!(p.ab(r)[j], s.sub(r, x));
            }
            for (k, &x) in rc.iter().enumerate() {
                assert_eq!(p.ac(r)[k], s.sub(r, x));
            }
        }
        for &r in rb {
            for (k, &x) in rc.iter().enumerate() {
                assert_eq!(p.bc(r)[k], s.sub(r, x));
            }
        }
        // Residues that never occur have no profile row.
        assert!(p.ab(b'Z').is_empty());
    }
}
