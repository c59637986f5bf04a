"""Command-line front end.

Subcommands: enumerate, generators, green, eggbox, counts, verify.
Exit codes: 0 success / all checks pass, 1 verification mismatch,
2 usage or input error.  With --cache-dir, closures are cached there as
deflated .npz per (n, format version); without it nothing is cached.
Each command imports the layers it runs when it runs, so `counts` loads
no numpy.
"""

import argparse
import bisect
import json
import os
import sys
import zipfile
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from . import formulas

if TYPE_CHECKING:
    from .closure import NearSemiring

REDUCTS = ("additive", "multiplicative")

# The version of `enumerate --format json`'s schema, kept apart from the cache's.
ENUMERATE_VERSION = 1


def cache_path(cache_dir: Path, n: int) -> Path:
    from . import closure as closure_mod
    return cache_dir / f"a_plus_bn_n{n}_v{closure_mod.FORMAT_VERSION}.npz"


def _read_cache(path: Path, n: int) -> "NearSemiring":
    """A member that declares more bytes than the widest array `from_dict`
    accepts (a .npy header and int64 rows at every orbit representative) is
    refused before it is opened, and zip inflates no more than a member
    declares.  Each member is parsed as it streams out of the zip, and must
    end where its array ends: that refuses a header that stops short, and
    reading to the member's end makes zip check its CRC-32.  No unpickling."""
    from . import closure as closure_mod
    from ._numpy import np
    closure_mod.check_n_cap(n)
    # numpy's max_header_size, then R rows of m cells at 8 bytes (int64)
    widest = 10_000 + 8 * sum(formulas.orbit_counts(n).values()) * formulas.counts(n).a_plus_total
    d = {}
    try:
        with zipfile.ZipFile(path) as zf:
            for info in zf.infolist():
                name = info.filename
                if info.file_size > widest:
                    raise ValueError(f"{name} declares {info.file_size} bytes, more than "
                                     f"the {widest} of the widest array a closure has")
                with zf.open(info) as member:
                    v = np.lib.format.read_array(member, allow_pickle=False)
                    if member.read():
                        raise ValueError(f"{name} has bytes past its array")
                d[name.removesuffix(".npy")] = v.item() if v.ndim == 0 else v
    except Exception as e:  # damaged zip and .npy headers raise many error types
        raise ValueError(f"unreadable cache {path}: {type(e).__name__}: {e}") from None
    if type(d.get("n")) is not int or d["n"] != n:  # a bool is an int, and True == 1
        raise ValueError(f"cache {path} holds n={d.get('n')!r}, not n={n}")
    try:
        return closure_mod.from_dict(d)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ValueError(f"malformed cache {path}: {type(e).__name__}: {e}") from None


def load_or_build(n: int, cache_dir: Optional[Path]) -> "NearSemiring":
    """The closure at n, read from its cache file if there is one; else built,
    and written deflated when `cache_dir` is given."""
    path = None if cache_dir is None else cache_path(cache_dir, n)
    if path is not None and path.exists():
        return _read_cache(path, n)
    if path is not None:  # an unusable cache directory fails here, before the build
        cache_dir.mkdir(parents=True, exist_ok=True)
    from . import closure as closure_mod, generators
    from ._numpy import np
    ns = closure_mod.additive_closure(generators.enumerate_aff(n))
    if path is not None:
        # write beside the target and rename, so a failed write leaves no cache
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                np.savez_compressed(fh, allow_pickle=False, **closure_mod.to_dict(ns))
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
    def tolist(a):  # only a command that loaded numpy holds an array
        from ._numpy import np
        return np.ndarray.tolist(a)
    return json.dumps(obj, indent=2, sort_keys=True, default=tolist) + "\n"


def cmd_enumerate(args) -> int:
    from . import closure as closure_mod, maps
    ns = load_or_build(args.n, args.cache_dir)
    hist = closure_mod.support_histogram(ns)
    if args.format == "json":
        _emit(_json_text({"format_version": ENUMERATE_VERSION, "n": ns.n, "count": len(ns),
                          "elements": maps.tokens(range(len(ns)), ns.n),
                          "add_table": ns.reduct("additive").op.dense(),
                          "mul_table": ns.reduct("multiplicative").op.dense()}), args.out)
        return 0
    lines = [f"{len(ns)} elements",
             "support histogram: "
             + ", ".join(f"{k}: {v}" for k, v in sorted(hist.items()))]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_generators(args) -> int:
    from . import generators
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
    from . import green
    sg = load_or_build(args.n, args.cache_dir).reduct(args.reduct)
    gs = green.green_brute(sg)
    if args.format == "json":
        d = gs.to_dict()
        d["n"] = args.n
        d["reduct"] = args.reduct
        d["counts"] = {rel: len(gs.classes[rel]) for rel in green.RELATIONS}
        _emit(_json_text(d), args.out)
        return 0
    lines = [f"Green structure: {args.reduct} reduct, n={args.n}, {len(sg)} elements"]
    for rel in green.RELATIONS:
        sizes = [len(c) for c in gs.classes[rel]]
        lines.append(f"  {rel}-classes: {len(sizes)} "
                     f"(sizes min {min(sizes)}, max {max(sizes)})")
    lines.append(f"  idempotents: {sum(gs.idempotent)}")
    lines.append(f"  regular elements: {sum(gs.regular)}")
    lines.append(f"  max eventual-regularity index: {max(gs.eventual_index)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_eggbox(args) -> int:
    from . import eggbox as eggbox_mod
    eb = eggbox_mod.build_eggbox(load_or_build(args.n, args.cache_dir), args.reduct)
    _emit(eggbox_mod.render(eb, args.format), args.out)
    return 0


def cmd_counts(args) -> int:
    limit = sys.get_int_max_str_digits()
    top = max(limit, 24)  # from n = 25 on, n! alone has more than n digits

    def fits(n):  # a_plus_total is the largest count; no n! is computed over `top`
        return n <= top and formulas.counts(n).a_plus_total < 10 ** limit

    if limit and not fits(args.n):
        largest = bisect.bisect(range(1, top + 1), False, key=lambda n: not fits(n))
        raise ValueError(f"counts at n={args.n} exceed Python's {limit}-digit int-to-str "
                         f"limit; the largest n that prints is {largest}")
    d = formulas.counts(args.n).to_dict()
    if args.format == "json":
        _emit(_json_text(d), args.out)
        return 0
    lines = [f"closed-form counts for n={d['n']}"]
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
    from . import closure as closure_mod, verify
    closure_mod.check_n_cap(max(args.n))
    all_results = []
    for n in args.n:
        print(f"verifying n={n}")
        cached = args.cache_dir is not None and cache_path(args.cache_dir, n).exists()
        try:
            ns = load_or_build(n, args.cache_dir)
        except ValueError as e:
            check = ("cached closure loads and validates" if cached
                     else "closure builds from the affine generators")
            results = [verify.CheckResult(check, n, False, str(e))]
        else:
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
        p.add_argument("--cache-dir", type=Path,
                       help="closure cache directory; without it nothing is cached")


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
    p.add_argument("--kind", choices=formulas.KINDS, default="aff")
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
    p.add_argument("--cache-dir", type=Path,
                   help="closure cache directory; without it nothing is cached")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    # held to the end: collecting its cycles as numpy loads adds 0.3 MB of peak RSS
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = Path(args.out) if args.out else None
        if out and (out.is_dir() or not out.parent.is_dir()):  # refuse before any work
            raise ValueError(f"--out {out} is not a file path in an existing directory")
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
