"""Command-line interface: analyze, spectrum, chernoff, correlate, corpus, verify."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import correlate as corr
from . import harness, spectral
from .bfcore import TABLE_CAP, FunctionSpec
from .chernoff import EATON_BOUND, check_local_chernoff, gaussian_tail_ratio
from .halfspace import parse_halfspace
from .influence import boundary_measures, influences
from .rational import as_fraction, format_fraction


def _fr(x) -> str:
    return format_fraction(x) if isinstance(x, Fraction) else str(x)


def cmd_analyze(args) -> int:
    spec = FunctionSpec.parse(args.spec)
    h = spec.halfspace()
    f = spec.build() if h is None or h.arity <= TABLE_CAP else None
    if h is not None:
        infl = h.influences()
        mean, total = h.mean(), sum(infl, Fraction(0))
        best, arg = h.max_influence()
        vb = (h.vertex_boundary(0), h.vertex_boundary(1))
    else:
        prof, veils = influences(f), boundary_measures(f)
        mean, infl, total = f.mean, prof.per_coordinate, prof.total
        best, arg = prof.max_value, prof.argmax
        vb = (veils.vb0, veils.vb1)
    out = {"spec": spec.to_text(), "mean": _fr(mean),
           "influences": [_fr(v) for v in infl],
           "max_influence": {"value": _fr(best), "coordinate": arg},
           "total_influence": _fr(total),
           "vertex_boundary": {"vb0": _fr(vb[0]), "vb1": _fr(vb[1])}}
    if f is not None:
        weights = spectral.fwht_spectrum(f).level_weights()
        out["level_weights"] = [_fr(weights.level(k)) for k in range(f.n + 1)]
    if args.json:
        print(json.dumps(out, indent=1))
    else:
        for key, value in out.items():
            print(f"{key}: {value}")
    return 0


def _write_spectrum(fh, spec: spectral.FourierSpectrum) -> None:
    """The CSV header, then one LF-ended row mask,numerator,n per mask (the
    coefficient is numerator / 2^n), one write per block of 2^16 rows."""
    fh.write("mask,numerator,denominator_log2\n")
    tail = f",{spec.n}\n"
    for start in range(0, 1 << spec.n, 1 << 16):
        block = spec.numerators[start : start + (1 << 16)].tolist()
        fh.write("".join(f"{start + i},{v}{tail}" for i, v in enumerate(block)))


def cmd_spectrum(args) -> int:
    f = FunctionSpec.parse(args.spec).build()
    spec = spectral.fwht_spectrum(f)
    if args.csv:
        with open(args.csv, "w") as fh:
            _write_spectrum(fh, spec)
        print(f"wrote {1 << f.n} rows to {args.csv}")
    else:
        _write_spectrum(sys.stdout, spec)
    return 0


def cmd_chernoff(args) -> int:
    h = parse_halfspace(args.ltf)
    t = as_fraction(args.t) if args.t is not None else h.threshold
    c = as_fraction(args.c)
    if not 0 < c <= 1:
        raise ValueError(f"--c={_fr(c)}: decay factor must be in (0, 1]")
    print(f"halfspace: {h.to_text()}")
    print(f"tail F(t) at t={_fr(t)}: {_fr(h.tail(t))}")
    delta = h.delta_query(c, t)
    print(f"delta for factor {_fr(c)}: {_fr(delta)}")
    thr = h.decay_thresholds(t)
    print(f"beta={_fr(thr.beta)} gamma={_fr(thr.gamma)} "
          f"delta={_fr(thr.delta)} m={_fr(thr.m)}")
    strong = check_local_chernoff(h, t, "strong")
    print(f"strong statistic (half-decay x sqrt log): {strong.lhs:.6g}")
    weak = check_local_chernoff(h, t, "weak", c=c)
    print(f"weak statistic at c={_fr(c)}: {weak.lhs:.6g}")
    if t >= 0:
        gauss = gaussian_tail_ratio(h, t)
        print(f"gaussian tail ratio: {gauss.ratio:.6g} "
              f"({'<=' if gauss.passed else 'EXCEEDS'} {EATON_BOUND})")
    return 0


def cmd_correlate(args) -> int:
    f = FunctionSpec.parse(args.spec).build()
    first = corr.FirstLevel(f)
    best = corr.best_halfspace_over_form(first)
    print(f"best threshold cut: cov={_fr(best.covariance)} "
          f"at t={_fr(best.threshold) if best.threshold is not None else 'n/a'}")
    unb = corr.unbiased_correlator(first, full_scan=args.full_scan)
    print(f"best zero cut: cov={_fr(unb.covariance)} ({unb.notes})")
    if 0 < f.mean < 1:
        rep = corr.noise_resistance_class(first, c0=args.c0, c=args.c)
        print(f"fourier statistic: {rep.fourier_stat:.6g} "
              f"(resistant at c0={args.c0}: {rep.fourier_resistant})")
        print(f"stability at rho={rep.rho:.6g}: {rep.stability:.6g} "
              f"(/mean^2: {rep.prob_stat:.6g})")
    return 0


def cmd_corpus(args) -> int:
    params = {key: value for key, value in vars(args).items()
              if key in ("count", "n", "n_lo", "n_hi", "weight_bits") and value is not None}
    if args.eps_lo is not None or args.eps_hi is not None:
        params["eps_band"] = (args.eps_lo, args.eps_hi)
    corpus = harness.corpus_gen(args.kind, params, seed=args.seed)
    corpus.save(args.out)
    print(f"wrote {len(corpus.entries)} entries to {args.out} (digest {corpus.digest})")
    return 0


def cmd_verify(args) -> int:
    corpus = harness.load_corpus(args.corpus)
    constants = None
    if not args.pin:
        if args.constants:
            constants = harness.PinnedConstants.load(args.constants)
        else:
            constants = harness.PinnedConstants.load_default()
    report, fresh = harness.run_suite(args.suite, corpus, constants=constants,
                                      pin=args.pin)
    if args.pin:
        path = args.constants or "pinned_constants.json"
        fresh.save(path)
        print(f"pinned constants written to {path}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json())
        print(f"report written to {args.out}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.to_csv())
    for cid, slot in sorted(report.summary().items()):
        print(f"{cid}: pass={slot['pass']} fail={slot['fail']} "
              f"skipped={slot['hypothesis-not-met']} report={slot['report']}")
    print(f"total: {len(report.records)} records, {report.failures} failures")
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubelab",
        description="Exact analysis of Boolean functions and halfspaces on the cube")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="mean, influences, boundaries, level weights")
    p.add_argument("spec", help="function descriptor, e.g. maj:5 or ltf:3,2,1;1/2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("spectrum", help="all Fourier coefficients, exact")
    p.add_argument("spec")
    p.add_argument("--csv", help="write rows to this path")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("chernoff", help="tail decay queries for a halfspace")
    p.add_argument("ltf", help="halfspace literal ltf:w1,w2,...;t")
    p.add_argument("--t", help="threshold override (rational)")
    p.add_argument("--c", default="1/2", help="decay factor (rational in (0,1])")
    p.set_defaults(fn=cmd_chernoff)

    p = sub.add_parser("correlate", help="halfspace correlation searches")
    p.add_argument("spec")
    p.add_argument("--full-scan", action="store_true",
                   help="scan all sign patterns (n <= 16)")
    p.add_argument("--c0", type=float, default=1.0)
    p.add_argument("--c", type=float, default=0.05)
    p.set_defaults(fn=cmd_correlate)

    p = sub.add_parser("corpus", help="corpus file operations")
    csub = p.add_subparsers(dest="corpus_command", required=True)
    g = csub.add_parser("gen", help="generate a deterministic corpus")
    g.add_argument("--kind", required=True, choices=list(harness.CORPUS_KINDS))
    g.add_argument("--seed", type=int, default=0)
    for option in ("--count", "--n", "--n-lo", "--n-hi", "--weight-bits"):
        g.add_argument(option, type=int)
    g.add_argument("--eps-lo")
    g.add_argument("--eps-hi")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_corpus)

    p = sub.add_parser("verify", help="run a theorem-check suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--corpus", default=harness.DEFAULT_CORPUS,
                   help=" | ".join(harness.NAMED_CORPORA) + " | path to a corpus file")
    p.add_argument("--pin", action="store_true",
                   help="record pinned constants instead of asserting")
    p.add_argument("--constants", help="constants file (default: packaged)")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--csv", help="write the flat CSV export here")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
