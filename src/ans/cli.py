"""Command-line front end.

Subcommands: enumerate, generators, green, eggbox, counts, verify.
Exit codes: 0 success / all checks pass, 1 verification mismatch,
2 usage or input error.  The ANS_CACHE_DIR environment variable overrides
--cache-dir; closures are cached as .npz per (n, format version).
"""

import argparse
import json
import os
import sys
import zipfile
from pathlib import Path
from typing import Optional

import numpy as np

from . import closure as closure_mod
from . import eggbox as eggbox_mod
from . import formulas, generators, green, verify

REDUCTS = ("additive", "multiplicative")


def cache_path(cache_dir: Path, n: int) -> Path:
    return cache_dir / f"a_plus_bn_n{n}_v{closure_mod.FORMAT_VERSION}.npz"


def resolve_cache_dir(arg_value: Optional[str]) -> Optional[Path]:
    env = os.environ.get("ANS_CACHE_DIR")
    chosen = env if env else arg_value
    return Path(chosen) if chosen else None


def _read_cache(path: Path, n: int) -> closure_mod.NearSemiring:
    """Each member is parsed as it streams out of the zip, and must end where
    its array ends: that refuses a header that stops short, and reading to
    the member's end makes zip check its CRC-32.  No unpickling."""
    d = {}
    try:
        with zipfile.ZipFile(path) as zf:
            for name in zf.namelist():
                with zf.open(name) as member:
                    v = np.lib.format.read_array(member, allow_pickle=False)
                    if member.read():
                        raise ValueError(f"{name} has bytes past its array")
                d[name.removesuffix(".npy")] = v.item() if v.ndim == 0 else v
    except Exception as e:  # damaged zip and .npy headers raise many error types
        raise ValueError(f"unreadable cache {path}: {type(e).__name__}: {e}") from None
    if not isinstance(d.get("n"), int) or d["n"] != n:
        raise ValueError(f"cache {path} holds n={d.get('n')!r}, not n={n}")
    try:
        return closure_mod.from_dict(d)
    except (AttributeError, KeyError, TypeError) as e:
        raise ValueError(f"malformed cache {path}: {type(e).__name__}: {e}") from None


def load_or_build(n: int, cache_dir: Optional[Path]) -> closure_mod.NearSemiring:
    path = None if cache_dir is None else cache_path(cache_dir, n)
    if path is not None and path.exists():
        return _read_cache(path, n)
    ns = closure_mod.additive_closure(generators.enumerate_aff(n))
    if path is not None:
        cache_dir.mkdir(parents=True, exist_ok=True)
        # write beside the target and rename, so a failed write leaves no cache
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, allow_pickle=False, **closure_mod.to_dict(ns))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    return ns


def _emit(text: str, out: Optional[str]):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n"


def cmd_enumerate(args) -> int:
    ns = load_or_build(args.n, resolve_cache_dir(args.cache_dir))
    hist = closure_mod.support_histogram(ns)
    if args.format == "json":
        _emit(_json_text(closure_mod.to_dict(ns)), args.out)
        return 0
    lines = [f"{len(ns)} elements",
             "support histogram: "
             + ", ".join(f"{k}: {v}" for k, v in sorted(hist.items()))]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_generators(args) -> int:
    gs = generators.enumerate_kind(args.kind, args.n)
    d = generators.generators_dict(gs)
    if args.format == "json":
        _emit(_json_text(d), args.out)
        return 0
    lines = [f"{d['kind']} generators for n={d['n']}: {d['count']} members"]
    lines += [f"  {m}" for m in d["members"]]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_green(args) -> int:
    ns = load_or_build(args.n, resolve_cache_dir(args.cache_dir))
    sg = ns.reduct(args.reduct)
    gs = green.green_brute(sg)
    rec = green.class_counts(gs)
    if args.format == "json":
        d = gs.to_dict()
        d["n"] = args.n
        d["reduct"] = args.reduct
        d["counts"] = rec.classes
        _emit(_json_text(d), args.out)
        return 0
    lines = [f"Green structure: {args.reduct} reduct, n={args.n}, {len(sg)} elements"]
    for rel in green.RELATIONS:
        sizes = rec.class_sizes[rel]
        lines.append(f"  {rel}-classes: {rec.classes[rel]} "
                     f"(sizes min {sizes[0]}, max {sizes[-1]})")
    lines.append(f"  idempotents: {rec.idempotents}")
    lines.append(f"  regular elements: {rec.regular}")
    lines.append(f"  max eventual-regularity index: {max(gs.eventual_index)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_eggbox(args) -> int:
    ns = load_or_build(args.n, resolve_cache_dir(args.cache_dir))
    eb = eggbox_mod.build_eggbox(ns, args.reduct)
    _emit(eggbox_mod.render(eb, args.format), args.out)
    return 0


def cmd_counts(args) -> int:
    ct = formulas.counts(args.n)
    if args.format == "json":
        _emit(_json_text(ct.to_dict()), args.out)
        return 0
    d = ct.to_dict()
    lines = [f"closed-form counts for n={ct.n}"]
    for key in ("end_count", "aut_count", "aff_count", "a_plus_total"):
        lines.append(f"  {key:<22} {d[key]}")
    for section in ("breakup", "additive", "multiplicative"):
        lines.append(f"  {section}:")
        for k, v in d[section].items():
            lines.append(f"    {k:<20} {v}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def parse_n_range(text: str):
    """Either a single n ("3") or an inclusive range ("1..3")."""
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or lo..hi range, got {text!r}")
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    return list(range(lo, hi + 1))


def cmd_verify(args) -> int:
    closure_mod.check_n_cap(max(args.n))
    cache_dir = resolve_cache_dir(args.cache_dir)
    all_results = []
    for n in args.n:
        print(f"verifying n={n}")
        results = None
        try:
            ns = load_or_build(n, cache_dir)
        except ValueError as e:
            results = [verify.CheckResult(
                "cached closure loads and validates", n, False, str(e))]
        if results is None:
            results = verify.run_battery(n, ns=ns)
        for r in results:
            print(f"  {r.line()}")
        all_results += results
    failed = [r for r in all_results if not r.passed]
    print(f"{len(all_results) - len(failed)}/{len(all_results)} checks passed")
    if args.out:
        Path(args.out).write_text(_json_text(verify.battery_dict(all_results)))
    return 1 if failed else 0


def _add_common(p, formats, default_fmt, reduct=False, cache=True):
    p.add_argument("--n", type=int, required=True, help="Brandt semigroup size")
    if reduct:
        p.add_argument("--reduct", choices=REDUCTS, default="additive")
    p.add_argument("--format", choices=formats, default=default_fmt)
    p.add_argument("--out", help="write output to this path instead of stdout")
    if cache:
        p.add_argument("--cache-dir",
                       help="closure cache directory (ANS_CACHE_DIR overrides)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ans",
        description="Affine near-semiring over a Brandt semigroup: "
                    "enumeration, Green structure, egg-box diagrams, verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="build the closure; print census or JSON")
    _add_common(p, ("text", "json"), "text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("generators", help="list a generator set")
    p.add_argument("--kind", choices=generators.KINDS, default="aff")
    _add_common(p, ("text", "json"), "json", cache=False)
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("green", help="Green class structure of one reduct")
    _add_common(p, ("text", "json"), "text", reduct=True)
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("eggbox", help="egg-box diagram of one reduct")
    _add_common(p, ("text", "dot", "json"), "text", reduct=True)
    p.set_defaults(func=cmd_eggbox)

    p = sub.add_parser("counts", help="closed-form count table")
    _add_common(p, ("text", "json"), "text", cache=False)
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("verify", help="run the full verification battery")
    p.add_argument("--n", type=parse_n_range, required=True,
                   help='single n ("2") or inclusive range ("1..3")')
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--cache-dir",
                   help="closure cache directory (ANS_CACHE_DIR overrides)")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        # an internal invariant failed, e.g. on tables read from a corrupted cache
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
