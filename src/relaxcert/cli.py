"""Batch command-line front end.

Subcommands build the library's relaxations, re-verify stored systems
against stored point sets on finite boxes, run the mixed-integer
certification, emit facet-cover reports, and tabulate facet-count bounds.
All artifacts are exact JSON or CSV; identical arguments and seeds yield
byte-identical files.  Exit codes: 0 certified/pass, 1 refuted/fail
(witness on stderr), 2 usage or resource errors and partial certificates.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from .construct import (DEFAULT_EPS, RelaxationBundle, composed_simplex_relaxation,
                        pipeline_run, relaxation_bound_table, simplex5_relaxation,
                        stretched_simplex_relaxation)
from .cover import cover_facets, cover_generators, dominating_family
from .errors import CertificationError, ResourceLimitError, ValidationError
from .field import as_fraction
from .lift import HeightFunction
from .poly import Box, DEFAULT_POINT_CAP, LinearSystem, PointSet
from .verify import box_check, certify_mixed


def _write_json(path: str, data: dict) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _print_provenance(provenance: dict) -> None:
    print(json.dumps({"provenance": provenance}, indent=2, sort_keys=True))


def _parse_box(spec: str, dimension: int) -> Box:
    parts = spec.split(",")
    ranges = []
    for part in parts:
        lo, _, hi = part.partition(":")
        try:
            ranges.append((int(lo), int(hi)))
        except ValueError:
            raise ValidationError(f"bad box range {part!r}, expected lo:hi") from None
    if len(ranges) == 1:
        ranges = ranges * dimension
    if len(ranges) != dimension:
        raise ValidationError(
            f"box has {len(ranges)} ranges for {dimension} variables")
    return Box(tuple(ranges))


def _load_json(path: str, key: str | None, load):
    """load(data) on the JSON object at path, or on its `key` entry; every
    ValidationError names the path of a file that cannot be read, is not a
    JSON object, lacks a field or holds values that load refuses."""
    try:
        data = json.loads(Path(path).read_text())
        if isinstance(data, dict) and key in data:
            data = data[key]
        if not isinstance(data, dict):
            raise ValidationError("not a JSON object")
        return load(data)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not JSON: {exc}") from exc
    except KeyError as exc:
        raise ValidationError(f"{path} has no field {exc}") from exc
    except (TypeError, ValueError) as exc:  # ValidationError, or a value of the wrong type
        raise ValidationError(f"{path}: {exc}") from exc


def _load_system(path: str) -> LinearSystem:
    return _load_json(path, "system", LinearSystem.from_json_dict)


def _load_points(path: str) -> PointSet:
    return _load_json(path, "target", PointSet.from_json_dict)


def _cmd_build(args) -> int:
    mixed = heights = None
    if args.what == "dim5":
        bundle = simplex5_relaxation(as_fraction(args.eps), cap=args.cap)
    elif args.what == "xa":
        bundle = stretched_simplex_relaxation(args.a, as_fraction(args.eps), cap=args.cap)
    elif args.what == "corollary":
        bundle = composed_simplex_relaxation(args.d, as_fraction(args.eps), cap=args.cap)
    else:
        run = pipeline_run(args.k, cap=args.cap)
        bundle = run.bundle
        mixed, heights = run.mixed_system, run.perturbed
    if args.what in ("dim5", "xa") and (args.mixed_out or args.heights_out):
        from .construct import (projected_simplex_heights, projected_simplex_relaxation)
        mixed = projected_simplex_relaxation(as_fraction(args.eps))
        heights = projected_simplex_heights()
    if args.mixed_out:
        if mixed is None:
            raise ValidationError(f"build {args.what} has no mixed system to write")
        _write_json(args.mixed_out, mixed.to_json_dict())
    if args.heights_out:
        if heights is None:
            raise ValidationError(f"build {args.what} has no heights to write")
        _write_json(args.heights_out, heights.to_json_dict())
    out = args.out or f"{args.what}.json"
    _write_json(out, bundle.to_json_dict())
    _print_provenance(bundle.provenance)
    print(f"wrote {out} ({bundle.claimed_facets} rows)")
    return 0


def _cmd_verify(args) -> int:
    system = _load_system(args.system)
    points = _load_points(args.points)
    box = _parse_box(args.box, system.num_vars)
    bundle = RelaxationBundle(system, points, {"construction": "loaded"}, box)
    result = box_check(bundle, box, cap=args.cap, jobs=args.jobs)
    _print_provenance({"construction": "verify", "box": str(box),
                       "points_found": result.points_found})
    if result.passed:
        print(f"pass: {result.points_found} lattice points match the target")
        return 0
    print(f"fail: witness {result.witness} "
          f"(spurious={list(result.spurious)}, missing={list(result.missing)})",
          file=sys.stderr)
    return 1


def _cmd_certify_mixed(args) -> int:
    system = _load_system(args.system)
    heights = _load_json(args.heights, None, HeightFunction.from_json_dict)
    certificate = certify_mixed(system, heights, cap=args.cap)
    _print_provenance({"construction": "certify-mixed",
                       "field_degree": system.context.degree,
                       "verdict": certificate.verdict})
    if args.out:
        _write_json(args.out, certificate.to_json_dict())
    certificate.require_certified(f"mixed certificate of {args.system}", stage="mixed-system")
    print("certified")
    return 0


def _cmd_cover(args) -> int:
    if args.k < 2:
        raise ValidationError("cover construction needs k >= 2")
    family = (dominating_family(args.k - 1, "randomized", seed=args.seed, require_empty=False)
              if args.method == "random" else None)
    generators = cover_generators(args.k, family)
    cover_facets(args.k, generators)  # validates every facet
    perm_count = sum(not root for root, _ in generators)
    dom_count = len(generators) - perm_count
    bound = 2.0 ** (args.k + 3) * math.log(args.k) / (args.k + 1)
    rows = [{"k": args.k, "f_pi": perm_count, "f_b": dom_count,
             "upper_total": perm_count + dom_count, "bound": f"{bound:.3f}"}]
    _print_provenance({"construction": "cover", "k": args.k,
                       "method": args.method, "seed": args.seed})
    _write_csv(args.out, ["k", "f_pi", "f_b", "upper_total", "bound"], rows)
    return 0


def _cmd_bounds(args) -> int:
    table = relaxation_bound_table(args.dmax)
    rows = [{"d": r.d, "trivial": r.trivial, "corollary": r.composed,
             "pipeline": r.pipeline, "best": r.best} for r in table]
    _print_provenance({"construction": "bounds", "dmax": args.dmax})
    _write_csv(args.out, ["d", "trivial", "corollary", "pipeline", "best"], rows)
    return 0


def _write_csv(path: str | None, fields: list[str], rows: list[dict]) -> None:
    if path:
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {path} ({len(rows)} rows)")
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaxcert",
        description="Build and exactly certify small polyhedral relaxations "
                    "of lattice point sets.")
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct a relaxation and write it as JSON")
    build_sub = build.add_subparsers(dest="what", required=True)
    for name, extra in (("dim5", ("eps",)), ("xa", ("a", "eps")), ("corollary", ("d", "eps")),
                        ("pipeline", ("k",))):
        p = build_sub.add_parser(name)
        if "eps" in extra:
            p.add_argument("--eps", default=str(DEFAULT_EPS),
                           help="rational parameter for the five-row block (default 1/8)")
        if "a" in extra:
            p.add_argument("--a", type=int, required=True,
                           help="positive stretch factor of the last generator")
        if "d" in extra:
            p.add_argument("--d", type=int, required=True, help="target dimension")
        if "k" in extra:
            p.add_argument("--k", type=int, required=True,
                           help="cube dimension; the target has dimension 2^k - 1")
        p.add_argument("--out", help="output path (default <name>.json)")
        p.add_argument("--mixed-out", dest="mixed_out",
                       help="also write the mixed system used for certification")
        p.add_argument("--heights-out", dest="heights_out",
                       help="also write the certified heights")
        p.add_argument("--cap", type=int, default=DEFAULT_POINT_CAP,
                       help="cap on the points of the box whose fibers certification "
                       f"decides (default {DEFAULT_POINT_CAP})")
        p.set_defaults(func=_cmd_build)

    verify = sub.add_parser("verify", help="box-check a stored system against points")
    verify.add_argument("--system", required=True, help="system or bundle JSON file")
    verify.add_argument("--points", required=True, help="point set or bundle JSON file")
    verify.add_argument("--box", required=True,
                        help="box spec lo:hi[,lo:hi...]; one range broadcasts")
    verify.add_argument("--cap", type=int, default=DEFAULT_POINT_CAP)
    verify.add_argument("--jobs", type=int, default=1,
                        help="enumeration worker processes (at least 1, at most the CPU count)")
    verify.set_defaults(func=_cmd_verify)

    certify = sub.add_parser("certify-mixed",
                             help="certify a mixed system against stored heights")
    certify.add_argument("--system", required=True)
    certify.add_argument("--heights", required=True)
    certify.add_argument("--out", help="write the certificate JSON here")
    certify.add_argument("--cap", type=int, default=DEFAULT_POINT_CAP)
    certify.set_defaults(func=_cmd_certify_mixed)

    cover = sub.add_parser("cover", help="facet cover report as CSV")
    cover.add_argument("--k", type=int, required=True)
    cover.add_argument("--method", choices=("greedy", "random"), default="greedy")
    cover.add_argument("--seed", type=int, default=0)
    cover.add_argument("--out", help="CSV path (default stdout)")
    cover.set_defaults(func=_cmd_cover)

    bounds = sub.add_parser("bounds", help="facet-count bound table as CSV")
    bounds.add_argument("--dmax", type=int, required=True)
    bounds.add_argument("--out", help="CSV path (default stdout)")
    bounds.set_defaults(func=_cmd_bounds)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        for out in (getattr(args, name, None) for name in ("out", "mixed_out", "heights_out")):
            if out and not Path(out).parent.is_dir():
                raise ValidationError(f"cannot write {out}: no directory {Path(out).parent}")
        return args.func(args)
    except (ValidationError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"refuted ({exc.stage}): {exc}", file=sys.stderr)
        return 1


def main() -> None:  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
