"""Command line interface: manifests in, one structured document out.

Every command prints a single JSON document (or a human rendering with
--format human) on stdout and exits 0 when it computed a verdict; not-CY
and Infinite are answers, not failures.  Exit codes: 2 for parse and
usage errors, 3 when a command needs hypotheses the input violates, 4 for
internal defects.  Output is deterministic: sorted keys, reduced
(order, exponent) scalar pairs, counts tagged finite/infinite, and the
sha256 digest of the input embedded in the report.

main is the one place that loads the manifest and writes the report
envelope (command, input, result); each cmd_* takes the loaded manifest
(None for enumerate-weights) and returns only its result.  The argument
parser is built once per process, on the first request: that saves its
build (about 1 ms) on every later request of a process calling main many
times, as the benchmark's reports loop and the tests do, and nothing in a
`qcy` console run, which serves one request.  The command's cmd_* is
looked up by name in the module namespace when it is called, so a
wrapper installed there (a profiler's, say) sees the call.

Structured reports are written by _json_lines, a recursive writer for the
types reports hold (dicts with str keys, lists, tuples, str, int, bool,
None).  Its text is byte for byte what json writes with indent=2 and
sorted keys; json itself drops to its pure-Python encoder whenever indent
is set, and the writer takes about half that time.  Any other value, a
float or a numpy scalar say, raises TypeError.  Both formats write every
int exactly in decimal (_decimal), also past the interpreter's limit on
int-to-str conversion (4,300 digits by default), which the process keeps.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from json.encoder import encode_basestring_ascii

from . import manifest as manifest_mod
from .cycert import CRITERIA, verify_certificate
from .cyclo import RootScalar
from .errors import HypothesisViolation, InternalDefect
from .hilbert import quotient_by_regular, segre_coefficients, series_qpoly
from .points import (
    INFINITE,
    _census,
    _is_surface,
    admissible_supports,
    census_weighted_surface,
    is_special,
    max_stratum_dimension,
    pi_degree,
    point_scheme_dim_product,
)
from .qalgebra import (
    _chart_exponent,
    alternating_violations,
    center_lattice,
    chart_parameters,
)
from .search import _search_classes, enumerate_cy_weights


def _pair(scalar) -> list[int]:
    return list(scalar.pair())


def _tagged(count) -> dict:
    if count is INFINITE:
        return {"kind": "infinite"}
    return {"kind": "finite", "value": int(count)}


def _args_input(label: str, **kwargs) -> dict:
    canon = label + "".join(f" {k}={v}" for k, v in sorted(kwargs.items()))
    return {
        "args": canon,
        "digest": hashlib.sha256(canon.encode()).hexdigest(),
    }


def _single_algebra(man: manifest_mod.Manifest) -> manifest_mod.ManifestAlgebra:
    if len(man.algebras) != 1:
        raise ValueError("this command takes a manifest with one algebra")
    return man.algebras[0]


def _criterion(man: manifest_mod.Manifest) -> str:
    """The manifest's criterion: weighted for one block, segre for two by default."""
    if man.criterion is not None:
        return man.criterion
    return "weighted" if len(man.algebras) == 1 else "segre"


def _alternating(spec):
    """The spec, once its matrix has unit diagonal and is antisymmetric.

    point-scheme, pi-degree and center assume both; a violation is the
    input's, not a defect (exit 3, like the Fermat checks of census).
    """
    bad = alternating_violations(spec)
    if bad:
        raise HypothesisViolation(
            "the q matrix needs a unit diagonal and antisymmetry: "
            + "; ".join(v.detail for v in bad))
    return spec


def _violations(cert) -> list[dict]:
    return [
        {"kind": v.kind, "where": list(v.where), "detail": v.detail}
        for v in cert.violations
    ]


def cmd_certify(man, args) -> dict:
    name = _criterion(man)
    criterion = CRITERIA[name]
    if len(man.algebras) != criterion.algebras:
        raise ValueError(
            f"criterion {name} needs {criterion.algebras} algebra(s), "
            f"manifest has {len(man.algebras)}")
    cert = criterion.certify(tuple(a.spec() for a in man.algebras))
    if not verify_certificate(cert):
        raise InternalDefect(
            f"{name} certificate with verdict {cert.verdict.value} "
            "fails re-verification")
    return {
        "verdict": cert.verdict.value,
        "witness": None if cert.witness is None else [_pair(w) for w in cert.witness],
        "expected_dimension": cert.expected_dimension,
        "violations": _violations(cert),
        "detail": cert.detail,
    }


def cmd_census(man, args) -> dict:
    spec = _single_algebra(man).spec()
    report = census_weighted_surface(spec)
    charts = []
    for chart in report.charts:
        charts.append({
            "chart": chart.chart,
            "description": chart.description,
            "count": _tagged(chart.count),
            "items": [
                {"support": list(item.support), "count": _tagged(item.count)}
                for item in chart.items
            ],
            "trivial_pairs": [list(p) for p in chart.trivial_pairs],
        })
    return {
        "weights": list(report.weights),
        "order": report.order,
        "total": _tagged(report.total),
        "charts": charts,
        # q'_32 on the chart x0 = 0, x1 inverted
        "second_chart_scalar": _pair(
            RootScalar(spec.order, _chart_exponent(
                spec.exponents, spec.weights, spec.order, 1, 3, 2))),
    }


def cmd_point_scheme(man, args) -> dict:
    if len(man.algebras) == 1:
        spec = _alternating(man.algebras[0].spec())
        # one priced walk over the supports, which max_stratum_dimension reuses
        supports = admissible_supports(spec)
        return {
            "special": is_special(spec),
            "admissible_supports": [list(s) for s in supports],
            "max_stratum_dimension": max_stratum_dimension(spec, supports),
        }
    specs = [_alternating(a.spec()) for a in man.algebras]
    g_shape = "mixed" if man.criterion == "mixed" else "fermat"
    return {
        "g_shape": g_shape,
        "dimension": point_scheme_dim_product(specs[0], specs[1], g_shape),
    }


def cmd_pi_degree(man, args) -> dict:
    spec = _alternating(_single_algebra(man).spec())
    kept = None
    if args.chart is not None:
        chart = chart_parameters(spec, args.chart)
        kept = list(chart.kept)
        spec = chart.spec
    degree = pi_degree(spec)
    return {
        "chart": args.chart,
        "kept": kept,
        "image_size": degree * degree,
        "pi_degree": degree,
    }


def _series_doc(series) -> dict:
    return {
        "numerator": [
            [[e], c] for e, c in sorted(series.numerator.items())
        ],
        "denominator": [[a] for a in series.denominator],
    }


def _hilbert_side(alg, k: int):
    """One algebra's series document, and its Fermat quotient's prefix (or None).

    The quotient needs every weight to divide the total degree d, so that
    the Fermat element sum x_i^(d/a_i) exists.  Both read the manifest
    block's weights and order alone, so a block without matrix rows is
    served too.
    """
    weights = alg.weights
    base = series_qpoly(weights)
    d = sum(weights)
    prefix = None
    doc_quotient = None
    if all(d % a == 0 for a in weights):
        quotient = quotient_by_regular(base, d)
        prefix = quotient.prefix(k)
        doc_quotient = {
            "degree": d,
            "series": _series_doc(quotient),
            "coefficients": list(prefix),
        }
    doc = {
        "weights": list(weights),
        "order": alg.order,
        "series": _series_doc(base),
        "coefficients": list(base.prefix(k)),
        "quotient": doc_quotient,
    }
    return doc, prefix


def cmd_hilbert(man, args) -> dict:
    """Series of one algebra, or of both sides and their Segre product.

    With two algebras, segre_of_quotients lists the dimensions of
    (A/f) o (B/g), the products of the two quotient prefixes; it is null
    when either side has no Fermat quotient.
    """
    k = args.max_degree
    sides = [_hilbert_side(a, k) for a in man.algebras]
    if len(sides) == 1:
        return dict(sides[0][0], max_degree=k)
    (doc_a, q_a), (doc_b, q_b) = sides
    segre = None
    if q_a is not None and q_b is not None:
        segre = list(segre_coefficients(q_a, q_b))
    return {
        "max_degree": k,
        "algebras": [doc_a, doc_b],
        "segre_of_quotients": segre,
    }


def cmd_enumerate_weights(man, args) -> dict:
    result = enumerate_cy_weights(args.vars, args.bound)
    return {
        "n_vars": result.n_vars,
        "bound": result.bound,
        "systems": [list(ws.weights) for ws in result.systems],
        "reference": [
            {
                "weights": list(r.weights),
                "found": r.found,
                "divides": list(r.divides),
                "discrepancy": r.discrepancy,
            }
            for r in result.reference
        ],
        "extras": [list(w) for w in result.extras],
    }


def cmd_search_q(man, args) -> dict:
    alg = _single_algebra(man)
    order = args.order if args.order is not None else alg.order
    weights = tuple(sorted(alg.weights))  # as the search sorts them
    matrices, witnesses = _search_classes(weights, order)
    totals = [None] * len(matrices)
    if _is_surface(weights):
        totals = [_tagged(r.total) for r in _census(weights, order, matrices)]
    entries = [
        {"exponents": mat, "witness": witness, "census_total": total}
        for mat, witness, total in zip(matrices, witnesses, totals)]
    return {
        "weights": list(weights),
        "order": order,
        "count": len(entries),
        "specs": entries,
    }


def cmd_center(man, args) -> dict:
    spec = _alternating(_single_algebra(man).spec())
    chart = chart_parameters(spec, args.chart)
    lattice = center_lattice(chart.spec)
    return {
        "chart": args.chart,
        "kept": list(chart.kept),
        "chart_matrix": [
            [_pair(chart.spec.q(i, j)) for j in range(chart.spec.nvars)]
            for i in range(chart.spec.nvars)
        ],
        "basis": [list(r) for r in lattice.basis],
        "pure_powers": list(lattice.pure_powers),
        "has_mixed": lattice.has_mixed,
        "mixed_generator": (
            None if lattice.mixed_generator is None
            else list(lattice.mixed_generator)),
    }


# -- rendering --------------------------------------------------------------

# Bits of the largest int that _decimal converts in one piece: at most 603
# digits, below 640, the least limit on int-to-str conversion that
# sys.set_int_max_str_digits accepts.
_DECIMAL_PIECE_BITS = 2000


def _decimal(value: int) -> str:
    """int.__repr__(value), also past the interpreter's limit on
    int-to-str conversion: a larger value is split by a power of ten
    near the middle of its digits, recursively, and the pieces joined."""
    if value.bit_length() <= _DECIMAL_PIECE_BITS:
        return int.__repr__(value)
    if value < 0:
        return "-" + _decimal(-value)
    # k is about half the digits, 0.30103 per bit
    k = value.bit_length() * 3 // 20
    high, low = divmod(value, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def _compact(value) -> str:
    """value as json.dumps writes it on one line, each int by _decimal."""
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_compact, value)) + "]"
    if isinstance(value, int) and not isinstance(value, bool):
        return _decimal(value)
    return json.dumps(value, sort_keys=True)


def _human_value(value) -> str:
    if isinstance(value, dict) and value.get("kind") == "infinite":
        return "infinite"
    if isinstance(value, dict) and value.get("kind") == "finite":
        return _decimal(value["value"])
    if isinstance(value, list) and len(value) == 2 and all(
            isinstance(x, int) for x in value):
        return "({}, {})".format(*(x if isinstance(x, bool) else _decimal(x)
                                   for x in value))
    return _compact(value)


def _human_lines(obj, indent: int, out: list[str]):
    pad = "  " * indent
    if isinstance(obj, dict):
        if obj.get("kind") in ("finite", "infinite"):
            out.append(pad + _human_value(obj))
            return
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, dict) and value.get("kind") in (
                    "finite", "infinite"):
                out.append(f"{pad}{key}: {_human_value(value)}")
            elif isinstance(value, (dict, list)) and value and not (
                    isinstance(value, list)
                    and all(isinstance(x, (int, str, bool, type(None))) for x in value)):
                out.append(f"{pad}{key}:")
                _human_lines(value, indent + 1, out)
            else:
                out.append(f"{pad}{key}: {_human_value(value)}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, dict) or (
                    isinstance(item, list)
                    and any(isinstance(x, (dict, list)) for x in item)):
                out.append(pad + "-")
                _human_lines(item, indent + 1, out)
            else:
                out.append(f"{pad}- {_human_value(item)}")
    else:
        out.append(pad + _human_value(obj))


_JSON_ATOMS = {True: "true", False: "false", None: "null"}


def _json_lines(value, pad: str, out: list[str]) -> None:
    """Append value as json writes it with indent=2, sort_keys=True, each
    line after the first indented by pad; see the module docstring."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append(_JSON_ATOMS[value])
    elif isinstance(value, int):
        out.append(_decimal(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        if not all(isinstance(key, str) for key in value):
            raise TypeError("report keys must be str")
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _json_lines(value[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _json_lines(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    else:
        raise TypeError(f"{type(value).__name__} is not a report value")


def render(doc: dict, fmt: str) -> str:
    if fmt == "structured":
        out: list[str] = []
        _json_lines(doc, "", out)
        out.append("\n")
        return "".join(out)
    lines: list[str] = []
    _human_lines(doc, 0, lines)
    return "\n".join(lines) + "\n"


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The qcy parser, built on the first request and reused by the rest."""
    parser = argparse.ArgumentParser(
        prog="qcy",
        description="Certify Calabi-Yau conditions and point-scheme "
                    "invariants of quantum weighted rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, manifest=True):
        p.add_argument("--format", choices=("structured", "human"),
                       default="structured")
        if manifest:
            p.add_argument("--input", required=True, metavar="FILE",
                           help="algebra manifest file")
        else:
            p.set_defaults(input=None)

    p = sub.add_parser("certify", help="three-valued Calabi-Yau certification")
    common(p)

    p = sub.add_parser("census", help="closed-point census of a weighted surface")
    common(p)

    p = sub.add_parser("point-scheme", help="torus strata and dimensions")
    common(p)

    p = sub.add_parser("pi-degree", help="PI degree from the exponent matrix")
    common(p)
    p.add_argument("--chart", type=int, default=None, metavar="I",
                   help="pass to a localized chart first")

    p = sub.add_parser("hilbert", help="Hilbert series, Fermat quotients, Segre product")
    common(p)
    p.add_argument("--max-degree", type=_nonnegative_int, default=12, metavar="K")

    p = sub.add_parser("enumerate-weights", help="admissible weight systems")
    common(p, manifest=False)
    p.add_argument("--vars", type=int, default=4, metavar="V")
    p.add_argument("--bound", type=int, default=25, metavar="B")

    p = sub.add_parser("search-q", help="Calabi-Yau parameter matrices")
    common(p)
    p.add_argument("--order", type=_positive_int, default=None, metavar="N",
                   help="root order (defaults to the manifest order)")

    p = sub.add_parser("center", help="central-monomial lattice of a chart")
    common(p)
    p.add_argument("--chart", type=int, default=0, metavar="I")

    return parser


def main(argv=None) -> int:
    """Load the manifest, run the command, print its report envelope."""
    args = _build_parser().parse_args(argv)
    try:
        if args.input is None:
            man = None
            source = _args_input(args.command, vars=args.vars, bound=args.bound)
        else:
            man = manifest_mod.load(args.input)
            source = {"path": args.input, "digest": man.digest}
        # by name at call time, so a wrapper installed in this namespace runs
        command = globals()["cmd_" + args.command.replace("-", "_")]
        doc = {"command": args.command, "input": source, "result": command(man, args)}
        if args.command == "certify":
            doc["criterion"] = _criterion(man)
        text = render(doc, args.format)
    except HypothesisViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # after HypothesisViolation, itself a ValueError; ManifestError lands here
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalDefect as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
