"""The acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to watch
them); tolerances are pinned here, not deferred.  The heavy kernels are
shared with the CLI `suite` subcommand via kemplab.suites.
"""

import time
from fractions import Fraction

import numpy as np

from kemplab import (Arc, PipelineConfig, SignContext, Subset, alpha_lambda,
                     bohr_preimage, enumerate_characters, inverse_pipeline,
                     loop_quantization_check, make_cyclic, make_product,
                     product_set, fast_product_set, pseudometric_from_set)
from kemplab.suites import (cauchy_davenport_suite, kernel_equivalence_suite,
                            nonexpander_suite, sequence_suite,
                            sign_algebra_suite, spillover_suite,
                            submodularity_suite, transfer_suite, vosper_suite)


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_cauchy_davenport():
    res = cauchy_davenport_suite(random_pairs=100_000, seed=0)
    assert res.total == 2510 ** 2 + 100_000     # 2510 normalized sets of size <= 7
    ok = res.passed and res.elapsed < 60
    _report(1, ok, f"{res.total} pairs, {res.failures} violations, "
                   f"{res.elapsed:.1f}s (< 60s)")


def test_criterion_2_vosper():
    res = vosper_suite()
    assert res.total == res.detail["equality_cases"] == 5220
    ok = res.passed and res.elapsed < 300
    _report(2, ok, f"{res.detail['equality_cases']} equality cases, "
                   f"{res.failures} misses, {res.elapsed:.1f}s (< 5min)")


def test_criterion_3_submodularity_and_spillover():
    sub = submodularity_suite(trials=10_000, seed=1)
    spill = spillover_suite(trials=10_000, seed=1)
    ok = sub.passed and spill.passed
    _report(3, ok, f"submodularity {sub.failures}/{sub.total} violations; "
                   f"spillover {spill.failures}/{spill.total} violations "
                   f"(certified discrete bound, tolerance 0)")


def test_criterion_4_transfer_certificates():
    res = transfer_suite(trials=1000, seed=2)
    ok = res.passed
    _report(4, ok, f"{res.total} perturbed pairs, {res.failures} certificate "
                   f"failures, max measured delta {res.detail['max_measured_delta']}"
                   f" (<= 1/50)")


def test_criterion_5_sign_and_sequence_suites():
    t0 = time.time()
    sign = sign_algebra_suite()
    seq = sequence_suite(samples=1000, seed=3)
    elapsed = time.time() - t0
    ok = sign.passed and seq.passed and elapsed < 120
    _report(5, ok, f"sign identities {sign.failures}/{sign.total} failures; "
                   f"sequence bounds {seq.failures}/{seq.total} failures; "
                   f"{elapsed:.1f}s (< 2min)")


def test_criterion_6_alpha_exactness():
    z36 = make_cyclic(36)
    d36 = pseudometric_from_set(z36, Subset.from_indices(z36, range(16)))
    res36 = alpha_lambda(d36, Fraction(1, 36), 0, mode="exhaustive")
    single_wrap = (res36.alpha == 1 and res36.exhaustive_complete
                   and len(res36.witness.entries) == 36
                   and res36.witness.product == 0)

    z360 = make_cyclic(360)
    d360 = pseudometric_from_set(z360, Subset.from_indices(z360, range(160)))
    res360 = alpha_lambda(d360, Fraction(5, 360), 0, mode="beam", seed=1)
    beam_ok = (res360.alpha == 1
               and res360.lower <= res360.alpha <= res360.upper)

    ctx = SignContext(d360, 0)
    quant = loop_quantization_check(ctx, Fraction(5, 360), res360.alpha,
                                    trials=1000, seed=4)
    quant_ok = quant.holds and quant.max_residual == 0 and quant.checked >= 900
    ok = single_wrap and beam_ok and quant_ok
    _report(6, ok, f"Z_36 exhaustive alpha={res36.alpha} single wrap; "
                   f"Z_360 beam alpha={res360.alpha} in "
                   f"[{res360.lower},{res360.upper}]; "
                   f"{quant.checked} loops quantized exactly")


def test_criterion_7_end_to_end_recovery():
    g = make_product(make_cyclic(48), make_cyclic(5))
    chi = next(c for c in enumerate_characters(g, 48)
               if np.array_equal(c.image, np.arange(240) // 5 % 48))
    a = bohr_preimage(g, chi, Arc(48, 0, 10))
    b = bohr_preimage(g, chi, Arc(48, 0, 12))

    exact = inverse_pipeline(g, a, b, Fraction(1, 10),
                             PipelineConfig(target_modulus=48))
    exact_ok = (exact.eps_a == 0 and exact.eps_b == 0
                and np.array_equal(exact.character.image, chi.image)
                and exact.arc_a == Arc(48, 0, 10)
                and exact.arc_b == Arc(48, 0, 12))

    rng = np.random.default_rng(11)

    def perturb(s, k, cols):
        drop = rng.choice(s.indices(), size=k, replace=False)
        avail = [x for x in range(240) if not s.contains(x) and (x // 5) in cols]
        add = rng.choice(avail, size=k, replace=False)
        return s.difference(Subset.from_indices(g, drop)).union(
            Subset.from_indices(g, add))

    eps_by_noise = {}
    noisy_ok = True
    kernel_ok = True
    for noise in (1, 2, 3, 4):
        a1 = perturb(a, noise, [10, 11])
        b1 = perturb(b, noise, [12, 13])
        res = inverse_pipeline(g, a1, b1, Fraction(1, 2),
                               PipelineConfig(target_modulus=48))
        bound = 50 * res.diagnostics["delta_abs"]
        if not (np.array_equal(res.character.image, chi.image)
                and res.eps_a <= bound and res.eps_b <= bound):
            noisy_ok = False
        if not res.diagnostics["kernel_norm_ok"]:
            kernel_ok = False
        eps_by_noise[noise] = max(res.eps_a, res.eps_b)
    vals = [eps_by_noise[k] for k in sorted(eps_by_noise)]
    monotone = all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))
    ok = exact_ok and noisy_ok and kernel_ok and monotone
    _report(7, ok, f"exact eps=0; noisy eps by noise "
                   f"{[str(v) for v in vals]} (<= 50 delta, monotone); "
                   f"kernel norm bound 2 lambda/3 holds")


def test_criterion_8_kernel_equivalence_and_performance():
    eq = kernel_equivalence_suite(trials=1000, seed=5)
    n = 65536
    g = make_cyclic(n)
    rng = np.random.default_rng(6)
    a = Subset.from_indices(g, rng.choice(n, 2048, replace=False))
    b = Subset.from_indices(g, rng.choice(n, 2048, replace=False))
    t0 = time.time()
    naive = product_set(g, a, b)
    naive_t = time.time() - t0
    t0 = time.time()
    fast = fast_product_set(g, a, b)
    fast_t = time.time() - t0
    ratio = naive_t / fast_t
    ok = eq.passed and naive == fast and ratio >= 5
    _report(8, ok, f"{eq.total} random instances bit-exact; n=2^16 FFT "
                   f"speedup {ratio:.0f}x (target 20x, gate 5x)")


def test_criterion_9_nonexpander_anchor():
    res = nonexpander_suite(budget=150, seed=7)
    ok = res.passed
    _report(9, ok, f"best toric 2-nonexpander measures: "
                   f"Z60xZ60 {res.detail['Z60xZ60']}, "
                   f"S3xZ20 {res.detail['S3xZ20']} (none < 1/4), seed 7")
