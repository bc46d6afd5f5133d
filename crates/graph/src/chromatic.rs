//! Sequential chromatic-polynomial baselines.
//!
//! The paper's Theorem 6 gives a Camelot algorithm with proof size and time
//! `O*(2^{n/2})`; the best sequential algorithm it halves runs in `O*(2^n)`
//! via the inclusion–exclusion identity of Björklund–Husfeldt–Koivisto:
//!
//! ```text
//! χ_G(t) = Σ_{S ⊆ V} (-1)^{n - |S|} i(S)^t ,
//! ```
//!
//! where `i_S(z) = Σ_{X ⊆ S independent} z^{|X|}` is the size-tracking
//! independent-set polynomial and the coefficient extraction `[z^n]`
//! forces the `t` covering sets to be disjoint (the same weight-tracking
//! idea the paper's template of §7 uses with the `w_E, w_B`
//! indeterminates). That baseline lives here (mod-`q` flavor for oracle
//! duty), next to a brute force coloring counter for tiny instances.

use crate::graph::Graph;
use camelot_ff::PrimeField;

/// `χ_G(t) mod q` by the `O*(2^n)` inclusion–exclusion baseline with size
/// tracking.
///
/// # Panics
///
/// Panics if `n > 22` (the `2^n × (n+1)` table would not fit in memory).
#[must_use]
pub fn chromatic_value_mod(g: &Graph, t: u64, field: &PrimeField) -> u64 {
    let n = g.vertex_count();
    assert!(n <= 22, "sequential chromatic baseline limited to n <= 22");
    let table = independent_size_table(g, field);
    let width = n + 1;
    let mut acc = 0u64;
    let mut scratch = vec![0u64; width];
    for s in 0..1usize << n {
        let poly = &table[s * width..(s + 1) * width];
        // [z^n] poly(z)^t by square-and-multiply on truncated polynomials.
        let top = pow_coeff_top(field, poly, t, n, &mut scratch);
        if (n - (s as u64).count_ones() as usize).is_multiple_of(2) {
            acc = field.add(acc, top);
        } else {
            acc = field.sub(acc, top);
        }
    }
    acc
}

/// Flat `2^n × (n+1)` table of the independent-set size polynomials
/// `i_S(z)` via the DP `i_S = i_{S∖v} + z · i_{S∖(N(v)∪v)}`.
fn independent_size_table(g: &Graph, field: &PrimeField) -> Vec<u64> {
    let n = g.vertex_count();
    let width = n + 1;
    let mut table = vec![0u64; (1usize << n) * width];
    table[0] = 1; // i_∅ = 1
    for s in 1usize..1 << n {
        let v = s.trailing_zeros() as usize;
        let without = s & !(1 << v);
        let shrunk = without & !(g.neighbors(v) as usize);
        for j in 0..width {
            let mut val = table[without * width + j];
            if j > 0 {
                val = field.add(val, table[shrunk * width + j - 1]);
            }
            table[s * width + j] = val;
        }
    }
    table
}

/// `[z^top] p(z)^t` for a dense polynomial `p` truncated at degree `top`.
fn pow_coeff_top(
    field: &PrimeField,
    p: &[u64],
    mut t: u64,
    top: usize,
    scratch: &mut [u64],
) -> u64 {
    let width = top + 1;
    // acc = 1, base = p; truncated square-and-multiply.
    let mut acc = vec![0u64; width];
    acc[0] = 1;
    let mut base = p.to_vec();
    while t > 0 {
        if t & 1 == 1 {
            mul_trunc(field, &acc, &base, scratch);
            acc.copy_from_slice(scratch);
        }
        t >>= 1;
        if t > 0 {
            mul_trunc(field, &base.clone(), &base, scratch);
            base.copy_from_slice(scratch);
        }
    }
    acc[top]
}

/// `out = a * b` truncated to the length of `out`.
fn mul_trunc(field: &PrimeField, a: &[u64], b: &[u64], out: &mut [u64]) {
    out.fill(0);
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            if i + j >= out.len() {
                break;
            }
            out[i + j] = field.mul_add(out[i + j], ai, bj);
        }
    }
}

/// Exact `χ_G(t)` for tiny graphs by enumerating all `t^n` colorings.
///
/// # Panics
///
/// Panics if `t^n` exceeds `2^40` (keep it tiny).
#[must_use]
pub fn chromatic_value_brute(g: &Graph, t: u64) -> u64 {
    let n = g.vertex_count() as u32;
    let total = (t as u128).pow(n);
    assert!(total <= 1 << 40, "brute-force coloring space too large");
    if t == 0 {
        return u64::from(n == 0);
    }
    let mut count = 0u64;
    let mut coloring = vec![0u64; n as usize];
    'outer: loop {
        let proper = g.edges().iter().all(|&(u, v)| coloring[u] != coloring[v]);
        if proper {
            count += 1;
        }
        // odometer increment
        for slot in coloring.iter_mut() {
            *slot += 1;
            if *slot < t {
                continue 'outer;
            }
            *slot = 0;
        }
        break;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn f() -> PrimeField {
        PrimeField::new(1_000_000_007).unwrap()
    }

    #[test]
    fn complete_graph_falling_factorial() {
        // χ_{K_n}(t) = t (t-1) ... (t-n+1)
        let field = f();
        let g = gen::complete(5);
        for t in 1..=8u64 {
            let expect: u64 = (0..5).map(|i| t.saturating_sub(i)).product();
            assert_eq!(chromatic_value_mod(&g, t, &field), expect % field.modulus());
        }
    }

    #[test]
    fn cycle_closed_form() {
        // χ_{C_n}(t) = (t-1)^n + (-1)^n (t-1)
        let field = f();
        for n in [3usize, 4, 5, 6] {
            let g = gen::cycle(n);
            for t in 1..=5u64 {
                let base = (t as i128 - 1).pow(n as u32)
                    + if n % 2 == 0 { t as i128 - 1 } else { -(t as i128 - 1) };
                let expect = base.rem_euclid(i128::from(field.modulus())) as u64;
                assert_eq!(chromatic_value_mod(&g, t, &field), expect, "n={n} t={t}");
            }
        }
    }

    #[test]
    fn tree_closed_form() {
        // Any tree on n vertices: t (t-1)^{n-1}
        let field = f();
        for g in [gen::path(6), gen::star(6)] {
            for t in 1..=5u64 {
                let expect = (t as u128 * (t as u128 - 1).pow(5)) % u128::from(field.modulus());
                assert_eq!(chromatic_value_mod(&g, t, &field), expect as u64);
            }
        }
    }

    #[test]
    fn petersen_three_colorings() {
        let field = f();
        assert_eq!(chromatic_value_mod(&gen::petersen(), 3, &field), 120);
        assert_eq!(chromatic_value_mod(&gen::petersen(), 2, &field), 0);
        assert_eq!(chromatic_value_mod(&gen::petersen(), 1, &field), 0);
    }

    #[test]
    fn inclusion_exclusion_matches_brute_force() {
        let field = f();
        for seed in 0..4 {
            let g = gen::gnm(7, 10, seed);
            for t in 0..=4u64 {
                assert_eq!(
                    chromatic_value_mod(&g, t, &field),
                    chromatic_value_brute(&g, t) % field.modulus(),
                    "seed {seed} t {t}"
                );
            }
        }
    }

    #[test]
    fn empty_graph_is_t_to_the_n() {
        let field = f();
        let g = Graph::new(4);
        for t in 1..=5u64 {
            assert_eq!(chromatic_value_mod(&g, t, &field), t.pow(4) % field.modulus());
        }
    }
}
