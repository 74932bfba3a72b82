"""Command-line interface: analyze, spectrum, chernoff, correlate, corpus, verify."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import correlate as corr
from . import harness, spectral
from .bfcore import FunctionSpec, max_arity
from .chernoff import EATON_BOUND, check_local_chernoff, gaussian_tail_ratio
from .halfspace import parse_halfspace
from .influence import boundary_measures, influences
from .rational import as_fraction, format_fraction


def _fr(x) -> str:
    return format_fraction(x) if isinstance(x, Fraction) else str(x)


def _load_corpus(name: str) -> harness.Corpus:
    if name == "builtin":
        return harness.corpus_gen("builtin-all")
    if name == "standard":
        return harness.standard_corpus()
    if name == "tail":
        return harness.tail_lemma_corpus()
    return harness.Corpus.load(name)


def cmd_analyze(args) -> int:
    spec = FunctionSpec.parse(args.spec)
    h = spec.halfspace()
    out: dict = {"spec": spec.to_text()}
    if h is not None:
        out["mean"] = _fr(h.mean())
        out["influences"] = [_fr(v) for v in h.influences()]
        best, arg = h.max_influence()
        out["max_influence"] = {"value": _fr(best), "coordinate": arg}
        out["total_influence"] = _fr(sum(h.influences(), Fraction(0)))
        out["vertex_boundary"] = {"vb0": _fr(h.vertex_boundary(0)),
                                  "vb1": _fr(h.vertex_boundary(1))}
        if h.arity <= max_arity():
            f = spec.build()
            weights = spectral.fwht_spectrum(f).level_weights()
            out["level_weights"] = [_fr(weights.level(k)) for k in range(f.n + 1)]
    else:
        f = spec.build()
        out["mean"] = _fr(f.mean)
        prof = influences(f)
        out["influences"] = [_fr(v) for v in prof.per_coordinate]
        out["max_influence"] = {"value": _fr(prof.max_value), "coordinate": prof.argmax}
        out["total_influence"] = _fr(prof.total)
        veils = boundary_measures(f)
        out["vertex_boundary"] = {"vb0": _fr(veils.vb0), "vb1": _fr(veils.vb1)}
        weights = spectral.fwht_spectrum(f).level_weights()
        out["level_weights"] = [_fr(weights.level(k)) for k in range(f.n + 1)]
    if args.json:
        print(json.dumps(out, indent=1))
    else:
        for key, value in out.items():
            print(f"{key}: {value}")
    return 0


def cmd_spectrum(args) -> int:
    f = FunctionSpec.parse(args.spec).build()
    spec = spectral.fwht_spectrum(f)
    rows = spec.export_rows()
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["mask", "numerator", "denominator_log2"])
            writer.writerows(rows)
        print(f"wrote {1 << f.n} rows to {args.csv}")
    else:
        print("mask,numerator,denominator_log2")
        for row in rows:
            print(f"{row[0]},{row[1]},{row[2]}")
    return 0


def cmd_chernoff(args) -> int:
    h = parse_halfspace(args.ltf)
    t = as_fraction(args.t) if args.t is not None else h.threshold
    c = as_fraction(args.c)
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
    spec = spectral.fwht_spectrum(f)
    best = corr.best_halfspace_over_form(f, spec=spec)
    print(f"best threshold cut: cov={_fr(best.covariance)} "
          f"at t={_fr(best.threshold) if best.threshold is not None else 'n/a'}")
    unb = corr.unbiased_correlator(f, full_scan=args.full_scan, spec=spec)
    print(f"best zero cut: cov={_fr(unb.covariance)} ({unb.notes})")
    if 0 < f.mean < 1:
        rep = corr.noise_resistance_class(f, c0=args.c0, c=args.c, spec=spec)
        print(f"fourier statistic: {rep.fourier_stat:.6g} "
              f"(resistant at c0={args.c0}: {rep.fourier_resistant})")
        print(f"stability at rho={rep.rho:.6g}: {rep.stability:.6g} "
              f"(/mean^2: {rep.prob_stat:.6g})")
    return 0


def cmd_corpus(args) -> int:
    params = {}
    if args.count is not None:
        params["count"] = args.count
    if args.n is not None:
        params["n"] = args.n
    if args.n_lo is not None:
        params["n_lo"] = args.n_lo
    if args.n_hi is not None:
        params["n_hi"] = args.n_hi
    if args.weight_bits is not None:
        params["weight_bits"] = args.weight_bits
    if args.eps_lo is not None or args.eps_hi is not None:
        params["eps_band"] = (as_fraction(args.eps_lo or "1/256"),
                              as_fraction(args.eps_hi or "1/16"))
    corpus = harness.corpus_gen(args.kind, params, seed=args.seed)
    corpus.save(args.out)
    print(f"wrote {len(corpus.entries)} entries to {args.out} (digest {corpus.digest})")
    return 0


def cmd_verify(args) -> int:
    corpus = _load_corpus(args.corpus)
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
    g.add_argument("--kind", required=True,
                   choices=["builtin-all", "random-halfspace",
                            "random-rational-halfspace", "random-function",
                            "monotone-random"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--count", type=int)
    g.add_argument("--n", type=int)
    g.add_argument("--n-lo", type=int)
    g.add_argument("--n-hi", type=int)
    g.add_argument("--weight-bits", type=int)
    g.add_argument("--eps-lo")
    g.add_argument("--eps-hi")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_corpus)

    p = sub.add_parser("verify", help="run a theorem-check suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--corpus", default="builtin",
                   help="builtin | standard | tail | path to a corpus file")
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
