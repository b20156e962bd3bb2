"""Command-line harness: instance generation, analyses, suites, benchmarks.

One subcommand per operation family, batch-oriented, no interactive
mode.  Exit codes: 0 ok, 1 verdict failure, 2 usage error (any
malformed file or flag), 3 internal error.  Reports are JSON (rationals
as "p/q") with timings segregated under a clearly labeled float field;
identical seeds and configs give byte-identical reports modulo that
field.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import io as kio
from .errors import KemplabError, ParseError
from .expansion import deficit, nonexpander_probe
from .fibers import transfer
from .groups import Arc, Character, cyclic_subgroup, make_cyclic
from .homextract import PipelineConfig, _auto_lambda, inverse_pipeline
from .pseudometric import (alpha_lambda, gamma_linearity, gamma_monotonicity,
                           pseudometric_from_set, verify_pseudometric)
from .sumset import Subset, bohr_preimage, fast_product_set, product_set
from . import suites as suite_mod

EXIT_OK, EXIT_VERDICT, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3


def _base_report(args, command):
    return {
        "command": command,
        "config": {k: str(v) for k, v in vars(args).items() if k != "func"},
    }


def _emit(report, args, verdict_ok=True):
    text = kio.write_report(report, getattr(args, "out", None),
                            getattr(args, "format", "json"))
    if not getattr(args, "out", None):
        sys.stdout.write(text)
    return EXIT_OK if verdict_ok else EXIT_VERDICT


def cmd_gen(args):
    f, line = kio.read_fields(args.spec, kio.PLANTING_FIELDS)
    g = kio.group_from_fields(f, line)
    shape = g.cyclic_shape
    factor_idx = f["char-factor"]
    if not 0 <= factor_idx < len(shape):
        raise ParseError(line["char-factor"], f"char-factor = {factor_idx} names no factor "
                                              f"of {g.label} (0..{len(shape) - 1})")
    m = shape[factor_idx]
    image = (np.arange(g.order) // math.prod(shape[factor_idx + 1:])) % m
    # the projection onto a cyclic factor is a surjective character
    chi = Character(g, m, image, True)
    if not chi.verify():
        raise AssertionError(f"projection onto factor {factor_idx} is not a character")
    rng = np.random.default_rng(f["seed"])

    def planted(side):
        # the arc's preimage, then k cells dropped and (unless trimmed)
        # k added in the two columns after the arc
        (start, length), key = f["arc-" + side], "noise-" + side
        if not 0 <= length <= m:
            raise ParseError(line["arc-" + side], f"arc-{side} length {length} not in 0..{m}")
        s, k = bohr_preimage(g, chi, Arc(m, start, length)), f[key]
        if k == 0:
            return s
        if k > s.size:
            raise ParseError(line[key], f"{key} = {k} exceeds the {s.size} cells "
                                        f"available to drop")
        drop = rng.choice(s.indices(), size=k, replace=False)
        out = s.difference(Subset.from_indices(g, drop))
        if f["strata"] == "trim":
            return out
        cols = [(start + length) % m, (start + length + 1) % m]
        avail = [x for x in range(g.order)
                 if not s.contains(x) and int(image[x]) in cols]
        if k > len(avail):
            raise ParseError(line[key], f"{key} = {k} exceeds the {len(avail)} cells "
                                        f"available to add next to the arc")
        add = rng.choice(avail, size=k, replace=False)
        return out.union(Subset.from_indices(g, add))

    a, b = planted("a"), planted("b")
    prefix = args.out_prefix
    kio.save_group(prefix + ".group", g)
    kio.save_subset(prefix + ".a", a, style="indices")
    kio.save_subset(prefix + ".b", b, style="indices")
    report = _base_report(args, "gen")
    report.update({"group": g.label, "mu_a": kio.frac_str(a.measure()),
                   "mu_b": kio.frac_str(b.measure()), "seed": f["seed"],
                   "files": [prefix + ".group", prefix + ".a", prefix + ".b"]})
    return _emit(report, args)


def _load_pair(args):
    g = kio.load_group(args.group)
    a = kio.load_subset(args.set_a, g)
    b = kio.load_subset(args.set_b, g) if getattr(args, "set_b", None) else None
    return g, a, b


def cmd_deficit(args):
    g, a, b = _load_pair(args)
    t0 = time.time()
    rep = deficit(g, a, b)
    report = _base_report(args, "deficit")
    report.update({
        "mu_a": kio.frac_str(rep.mu_a), "mu_b": kio.frac_str(rep.mu_b),
        "mu_ab": kio.frac_str(rep.mu_ab), "deficit": kio.frac_str(rep.deficit),
        "discretization_slack": kio.frac_str(rep.discretization_slack),
    })
    ok = True
    if args.delta is not None:
        ok = rep.nearly_minimal(args.delta)
        report["nearly_minimal"] = ok
    report["timings"] = {"seconds_float": time.time() - t0}
    return _emit(report, args, ok)


def cmd_transfer(args):
    g, a, b = _load_pair(args)
    if args.subgroup_gen >= g.order:
        raise ParseError(None, f"--subgroup-gen = {args.subgroup_gen} names no element "
                               f"of {g.label} (0..{g.order - 1})")
    h = cyclic_subgroup(g, args.subgroup_gen)
    t0 = time.time()
    res = transfer(g, h, a, b, args.delta)
    report = _base_report(args, "transfer")
    report.update({
        "quotient_order": res.quotient.order,
        "pullback_gap_a": kio.frac_str(res.pullback_gap_a),
        "pullback_gap_b": kio.frac_str(res.pullback_gap_b),
        "quotient_excess": kio.frac_str(res.quotient_excess),
        "gaps_certified": res.gaps_certified,
        "deficit_certified": res.deficit_certified,
        "timings": {"seconds_float": time.time() - t0},
    })
    return _emit(report, args, res.gaps_certified and res.deficit_certified)


def cmd_pseudo(args):
    g, a, _ = _load_pair(args)
    t0 = time.time()
    table = pseudometric_from_set(g, a)
    rep = verify_pseudometric(g, table.dense_num())
    gamma = Fraction(0) if args.gamma == "exact" else args.gamma
    lin = gamma_linearity(table, gamma)
    mono = gamma_monotonicity(table, gamma)
    report = _base_report(args, "pseudo")
    report.update({
        "radius": kio.frac_str(table.radius),
        "axioms_ok": rep.all_ok, "witness": rep.witness,
        "gamma": kio.frac_str(gamma),
        "linear": lin.holds, "worst_linearity": kio.frac_str(lin.worst_violation),
        "monotone": mono.holds, "worst_monotonicity": kio.frac_str(mono.worst_violation),
        "timings": {"seconds_float": time.time() - t0},
    })
    if args.csv:
        kio.pseudometric_csv(table, args.csv)
        report["csv"] = args.csv
    return _emit(report, args, rep.all_ok)


def cmd_alpha(args):
    g, a, _ = _load_pair(args)
    table = pseudometric_from_set(g, a)
    gamma = Fraction(0) if args.gamma == "exact" else args.gamma
    lam = _auto_lambda(table, g) if args.lam == "auto" else args.lam
    t0 = time.time()
    res = alpha_lambda(table, lam, gamma, mode=args.mode, seed=args.seed)
    report = _base_report(args, "alpha")
    report.update({
        "lambda": kio.frac_str(lam), "alpha": kio.frac_str(res.alpha),
        "lower": kio.frac_str(res.lower), "upper": kio.frac_str(res.upper),
        "witness_length": len(res.witness.entries),
        "witness": [int(x) for x in res.witness.entries],
        "mode": res.mode, "exhaustive_complete": res.exhaustive_complete,
        "range_notice": res.range_notice,
        "timings": {"seconds_float": time.time() - t0},
    })
    ok = res.lower <= res.alpha <= res.upper
    return _emit(report, args, ok)


def _pipeline_config_from_file(path: str, cfg: PipelineConfig):
    """Set cfg from a pipeline config file and return its delta (or None)."""
    f, _ = kio.read_fields(path, kio.PIPELINE_FIELDS)
    for key, attr in (("lambda", "lam"), ("gamma", "gamma_policy"), ("shrink", "shrink_target"),
                      ("target-modulus", "target_modulus"), ("seed", "seed")):
        if f[key] is not None:
            setattr(cfg, attr, None if f[key] == "auto" else f[key])
    return f["delta"]


def cmd_pipeline(args):
    g, a, b = _load_pair(args)
    cfg = PipelineConfig(seed=args.seed)
    file_delta = _pipeline_config_from_file(args.config, cfg) if args.config else None
    if args.lam != "auto":
        cfg.lam = args.lam
    if args.gamma == "fitted":
        cfg.gamma_policy = "fitted"
    if args.target_modulus:
        cfg.target_modulus = args.target_modulus
    if args.shrink != "auto":
        cfg.shrink_target = args.shrink
    delta = file_delta if args.delta is None else args.delta
    if delta is None:
        raise ParseError(None, "pipeline needs --delta or a config file with delta")
    t0 = time.time()
    res = inverse_pipeline(g, a, b, delta, cfg)
    report = _base_report(args, "pipeline")
    report.update({
        "character_modulus": res.character.modulus,
        "character_image_head": [int(x) for x in res.character.image[:16]],
        "character_surjective": res.character.surjective,
        "arc_a": {"start": res.arc_a.start, "length": res.arc_a.length},
        "arc_b": {"start": res.arc_b.start, "length": res.arc_b.length},
        "eps_a": kio.frac_str(res.eps_a), "eps_b": kio.frac_str(res.eps_b),
        "contained_a": res.contained_a, "contained_b": res.contained_b,
        "diagnostics": {k: str(v) for k, v in res.diagnostics.items()},
        "timings": {"seconds_float": time.time() - t0},
    })
    return _emit(report, args)


def cmd_probe(args):
    g = kio.load_group(args.group)
    t0 = time.time()
    res = nonexpander_probe(g, args.k_ratio, args.budget, seed=args.seed)
    report = _base_report(args, "probe")
    report.update({
        "k": kio.frac_str(res.k), "budget": res.budget,
        "evaluations": res.evaluations,
        "best_measure": kio.frac_str(res.best_measure),
        "best_size": len(res.best_indices),
        "seed": res.seed, "trace": res.trace,
        "timings": {"seconds_float": time.time() - t0},
    })
    return _emit(report, args)


def cmd_suite(args):
    fn = suite_mod.SUITES[args.suite]
    params = inspect.signature(fn).parameters
    kwargs = {"seed": args.seed} if "seed" in params else {}
    kwargs.update({k: args.budget for k in ("trials", "budget") if k in params and args.budget})
    res = fn(**kwargs)
    report = _base_report(args, "suite")
    report.update({
        "suite": res.name, "total": res.total, "failures": res.failures,
        "passed": res.passed, "detail": res.detail,
        "timings": {"seconds_float": res.elapsed},
    })
    return _emit(report, args, res.passed)


def cmd_bench(args):
    n, size, trials = args.n, args.size, args.trials
    if size > n:
        raise ParseError(None, f"--size = {size} exceeds --n = {n}")
    g = make_cyclic(n)
    rng = np.random.default_rng(args.seed)
    naive_t = 0.0
    fast_t = 0.0
    for _ in range(trials):
        a = Subset.from_indices(g, rng.choice(n, size, replace=False))
        b = Subset.from_indices(g, rng.choice(n, size, replace=False))
        t0 = time.time()
        res_naive = product_set(g, a, b)
        naive_t += time.time() - t0
        t0 = time.time()
        res_fast = fast_product_set(g, a, b)
        fast_t += time.time() - t0
        if res_naive != res_fast:
            return EXIT_INTERNAL
    ratio = naive_t / fast_t if fast_t > 0 else float("inf")
    report = _base_report(args, "bench")
    report.update({
        "n": n, "set_size": size, "trials": trials, "bit_exact": True,
        "timings": {"naive_seconds_float": naive_t,
                    "fast_seconds_float": fast_t,
                    "speedup_float": ratio},
    })
    # loose target 20x; gate only below 5x
    return _emit(report, args, ratio >= 5)


def build_parser():
    p = argparse.ArgumentParser(prog="kemplab",
                                description="measure-expansion laboratory on finite group models")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, pair=True):
        sp.add_argument("--group", required=True, help="group spec file")
        if pair:
            sp.add_argument("--set-a", required=True, dest="set_a")
            sp.add_argument("--set-b", dest="set_b")
        sp.add_argument("--out", help="report file (default stdout)")
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("--seed", type=kio.nonneg_int, default=0)

    sp = sub.add_parser("gen", help="write planted instance files")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--out-prefix", required=True, dest="out_prefix")
    sp.add_argument("--out")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("deficit", help="expansion deficit of a pair")
    common(sp)
    sp.add_argument("--delta", type=kio.fraction(), help="near-minimality threshold p/q")
    sp.set_defaults(func=cmd_deficit)

    sp = sub.add_parser("transfer", help="quotient transfer certificates")
    common(sp)
    sp.add_argument("--subgroup-gen", type=kio.nonneg_int, required=True, dest="subgroup_gen")
    sp.add_argument("--delta", type=kio.fraction(), required=True)
    sp.set_defaults(func=cmd_transfer)

    sp = sub.add_parser("pseudo", help="pseudometric table checks")
    common(sp, pair=False)
    sp.add_argument("--set-a", required=True, dest="set_a")
    sp.add_argument("--gamma", type=kio.fraction("exact"), default="exact")
    sp.add_argument("--csv", help="dump the table as rational CSV")
    sp.set_defaults(func=cmd_pseudo)

    sp = sub.add_parser("alpha", help="loop weight unit search")
    common(sp, pair=False)
    sp.add_argument("--set-a", required=True, dest="set_a")
    sp.add_argument("--lambda", dest="lam", type=kio.fraction("auto"), default="auto")
    sp.add_argument("--gamma", type=kio.fraction("exact"), default="exact")
    sp.add_argument("--mode", choices=["exhaustive", "beam"], default="beam")
    sp.set_defaults(func=cmd_alpha)

    sp = sub.add_parser("pipeline", help="end-to-end character recovery")
    common(sp)
    sp.add_argument("--delta", type=kio.fraction())
    sp.add_argument("--config", help="pipeline config file (delta, lambda, "
                                     "gamma, target-modulus, shrink, seed)")
    sp.add_argument("--lambda", dest="lam", type=kio.fraction("auto"), default="auto")
    sp.add_argument("--gamma", choices=["exact", "fitted"], default="exact")
    sp.add_argument("--target-modulus", type=kio.pos_int, dest="target_modulus")
    sp.add_argument("--shrink", type=kio.fraction("auto"), default="auto")
    sp.set_defaults(func=cmd_pipeline)

    sp = sub.add_parser("probe", help="toric nonexpander search")
    common(sp, pair=False)
    sp.add_argument("--k-ratio", type=kio.fraction(), default="2", dest="k_ratio")
    sp.add_argument("--budget", type=kio.pos_int, default=100)
    sp.set_defaults(func=cmd_probe)

    sp = sub.add_parser("suite", help="run a named verification suite")
    sp.add_argument("--suite", required=True, choices=sorted(suite_mod.SUITES))
    sp.add_argument("--seed", type=kio.nonneg_int, default=0)
    sp.add_argument("--budget", type=kio.pos_int)
    sp.add_argument("--out")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(func=cmd_suite)

    sp = sub.add_parser("bench", help="sumset kernel throughput")
    sp.add_argument("--n", type=kio.pos_int, default=65536)
    sp.add_argument("--size", type=kio.pos_int, default=2048)
    sp.add_argument("--trials", type=kio.pos_int, default=3)
    sp.add_argument("--seed", type=kio.nonneg_int, default=0)
    sp.add_argument("--out")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(func=cmd_bench)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ParseError as e:
        sys.stderr.write(f"parse error: {e}\n")
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as e:     # a missing, unreadable or binary file
        sys.stderr.write(f"file error: {e}\n")
        return EXIT_USAGE
    except KemplabError as e:
        sys.stderr.write(f"{type(e).__name__}: {e}\n")
        return EXIT_VERDICT
    except Exception as e:
        sys.stderr.write(f"internal error: {type(e).__name__}: {e}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
