"""Command line interface.

Exit codes: 0 on success, 2 for domain errors (invalid matroid or pasture
data, unknown names, sources not generated by fundamental elements, a
listing of more than MAX_MORPHISMS morphisms, torsion parts with more than
MAX_TORSION_HOMS homomorphisms between them) and for a computed matrix
that fails its matroid check, 1 for input and usage errors (unreadable
files, malformed JSON, bad flags) and when the reader of standard output
closes it early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter

from ._gf import FieldError
from .foundation import computeFoundation, foundationResultToJson
from .matroid import InvalidMatroidError, matroidFromJson, namedMatroid
from .morphism import (
    NotGeneratedByFundamentalElements,
    SearchStats,
    TooManyMorphisms,
    TooManyTorsionHoms,
    countMorphisms,
    searchMorphisms,
    sublatticeOf,
)
from .pasture import (BUILTIN_PASTURES, InvalidPastureError, builtinPasture, gfPasture,
                      pastureFromJson)
from .representation import (
    isOrientable,
    matroidOfMatrix,
    nonRepresentabilityCertificate,
    representationsOverField,
)

_DOMAIN_ERRORS = (InvalidMatroidError, InvalidPastureError, FieldError,
                  NotGeneratedByFundamentalElements, TooManyMorphisms, TooManyTorsionHoms)


class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError("%s: %s" % (self.prog, message))


def _readJson(path=None):
    """The JSON document in a file, or on stdin when path is None."""
    try:
        if path is None:
            return json.load(sys.stdin)
        with open(path) as handle:
            return json.load(handle)
    except OSError as e:
        raise _InputError(str(e))
    except (ValueError, RecursionError) as e:
        # malformed JSON, bytes that are not UTF-8, an integer past the
        # interpreter's digit limit, or nesting past its recursion limit
        raise _InputError("%s: %s" % ("stdin" if path is None else path, e))


def loadMatroid(spec):
    """NAME, '-' for JSON on stdin, or a path to a JSON file."""
    if spec == "-":
        return matroidFromJson(_readJson())
    if spec.endswith(".json"):
        return matroidFromJson(_readJson(spec))
    return namedMatroid(spec)


def loadPasture(spec):
    """gf:<q>, a builtin name, or file:<path> with pasture JSON."""
    if spec.startswith("gf:"):
        try:
            q = int(spec[3:])
        except ValueError:
            raise _InputError("bad field size in %r" % spec)
        return gfPasture(q)
    if spec.startswith("file:"):
        return pastureFromJson(_readJson(spec[5:]))
    return builtinPasture(spec)


def parseBasis(text):
    if text is None:
        return None
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise _InputError("bad basis %r; expected comma separated integers" % text)


def groupName(group):
    parts = ["Z/%d" % a for a in group.invariants]
    if group.freeRank:
        parts.append("Z^%d" % group.freeRank if group.freeRank > 1 else "Z")
    return " x ".join(parts) if parts else "trivial"


def signedResidue(x, field):
    # one-digit prime fields read better with symmetric residues
    if field is not None and field.k == 1 and field.p > 2 and x > (field.p - 1) // 2:
        return x - field.p
    return x


def formatMatrix(rows, field=None, indent="  "):
    cells = [[str(signedResidue(x, field)) for x in row] for row in rows]
    if not cells or not cells[0]:
        return indent + "[]"
    widths = [max(len(cells[i][j]) for i in range(len(cells)))
              for j in range(len(cells[0]))]
    return "\n".join(indent + "[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]"
                     for row in cells)


def emit(args, payload, text):
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def cmdFoundation(args):
    m = loadMatroid(args.matroid)
    fr = computeFoundation(m, parseBasis(args.basis))
    p = fr.foundation
    counts = Counter(p.hexagonTypes())
    lines = [
        "matroid: %s (n=%d, rank=%d)" % (m.name or "unnamed", m.n, m.rank),
        "reference basis: %s" % ",".join(str(e) for e in fr.basis),
        "unit group: %s" % groupName(p.group),
        "epsilon: (%s)" % ", ".join(str(x) for x in p.epsilon),
        "hexagons: %d%s" % (len(p.hexagons),
                            " (" + ", ".join("%s:%d" % (t, counts[t])
                                             for t in sorted(counts)) + ")"
                            if counts else ""),
        "fundamental elements: %d" % len({x for x, _ in p.pairs}),
    ]
    emit(args, foundationResultToJson(fr), "\n".join(lines))
    return 0


def _statsPayload(stats, source):
    """The search counters, the sublattice's pair counts and leafHeads, the
    number of source hexagon heads each leaf still checks."""
    sub = sublatticeOf(source)
    payload = stats.asDict()
    payload.update(sub.counts)
    payload["leafHeads"] = len(sub.uncheckedHeads)
    return payload


def cmdMorphisms(args):
    m = loadMatroid(args.matroid)
    fr = computeFoundation(m, parseBasis(args.basis))
    target = loadPasture(args.target)
    stats = SearchStats()
    if args.count:
        count = countMorphisms(fr.foundation, target, stats=stats)
        payload = {"count": count}
        lines = [str(count)]
    else:
        ms = searchMorphisms(fr.foundation, target, stats=stats)
        payload = {
            "source": "foundation(%s)" % (m.name or "unnamed"),
            "target": target.name,
            "count": len(ms),
            "matrices": [f.matrix for f in ms],
        }
        lines = ["morphisms: %d" % len(ms)]
        for f in ms:
            lines.append(formatMatrix(f.matrix))
    if args.stats:
        payload["stats"] = _statsPayload(stats, fr.foundation)
        lines.append("stats: " + ", ".join(
            "%s=%d" % (k, v) for k, v in sorted(payload["stats"].items())))
    emit(args, payload, "\n".join(lines))
    return 0


def cmdRepresentations(args):
    m = loadMatroid(args.matroid)
    reps = representationsOverField(m, args.field, parseBasis(args.basis))
    for rep in reps:
        if sorted(matroidOfMatrix(rep.matrix, rep.field).bases) != sorted(m.bases):
            print("error: a computed matrix over GF(%d) does not represent %s"
                  % (args.field, m.name or "the matroid"), file=sys.stderr)
            return 2
    payload = {
        "matroid": m.name or "unnamed",
        "field": args.field,
        "count": len(reps),
        "matrices": [rep.matrix for rep in reps],
    }
    lines = ["representations over GF(%d): %d" % (args.field, len(reps))]
    for rep in reps:
        lines.append(formatMatrix(rep.matrix, rep.field))
        lines.append("")
    emit(args, payload, "\n".join(lines).rstrip())
    return 0


def cmdOrientable(args):
    m = loadMatroid(args.matroid)
    answer = isOrientable(m, parseBasis(args.basis))
    emit(args, {"matroid": m.name or "unnamed", "orientable": answer},
         "orientable: %s" % ("yes" if answer else "no"))
    return 0


def cmdCertificate(args):
    m = loadMatroid(args.matroid)
    fr = computeFoundation(m, parseBasis(args.basis))
    cert = nonRepresentabilityCertificate(m, foundationResult=fr)
    if cert is None:
        emit(args, {"matroid": m.name or "unnamed", "certificate": None},
             "certificate: none (no obstruction of either kind)")
        return 0
    payload = {"matroid": m.name or "unnamed",
               "certificate": {"kind": cert.kind}}
    lines = ["certificate: %s" % cert.kind]
    if cert.morphism is not None:
        payload["certificate"]["matrix"] = cert.morphism.matrix
        lines.append(formatMatrix(cert.morphism.matrix))
    emit(args, payload, "\n".join(lines))
    return 0


def cmdIso(args):
    if args.matroid is not None:
        m = loadMatroid(args.matroid)
        source = computeFoundation(m, parseBasis(args.basis)).foundation
    else:
        source = loadPasture(args.source)
    target = loadPasture(args.target)
    ms = searchMorphisms(source, target, findIso=True, findOne=True)
    if ms:
        payload = {"isomorphic": True, "matrix": ms[0].matrix}
        text = "isomorphic: yes\n" + formatMatrix(ms[0].matrix)
    else:
        payload = {"isomorphic": False}
        text = "isomorphic: no"
    emit(args, payload, text)
    return 0


@functools.cache
def buildParser():
    """The command line parser, built on the first call and then shared:
    parsing keeps nothing between calls."""
    parser = _Parser(prog="foundry",
                     description="Foundations of matroids, pasture morphisms, "
                                 "and finite field representations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--matroid", required=True,
                       help="named matroid, '-' for JSON on stdin, or a .json path")
        p.add_argument("--basis", help="reference basis as comma separated elements")
        p.add_argument("--output", choices=["text", "json"], default="text")

    p = sub.add_parser("foundation", help="compute the foundation of a matroid")
    common(p)
    p.set_defaults(func=cmdFoundation)

    p = sub.add_parser("morphisms", help="enumerate morphisms from a foundation")
    common(p)
    p.add_argument("--target", required=True,
                   help="gf:<q>, one of %s, or file:<path>" % (", ".join(BUILTIN_PASTURES)))
    p.add_argument("--stats", action="store_true", help="print search counters")
    p.add_argument("--count", action="store_true", help="print only the count")
    p.set_defaults(func=cmdMorphisms)

    p = sub.add_parser("representations",
                       help="matrices representing a matroid over a finite field")
    common(p)
    p.add_argument("--field", required=True, type=int, metavar="Q",
                   help="finite field size (a prime power)")
    p.set_defaults(func=cmdRepresentations)

    p = sub.add_parser("orientable", help="decide orientability")
    common(p)
    p.set_defaults(func=cmdOrientable)

    p = sub.add_parser("certificate",
                       help="certificate that no field representation exists")
    common(p)
    p.set_defaults(func=cmdCertificate)

    p = sub.add_parser("iso", help="search for a pasture isomorphism")
    p.add_argument("--matroid", help="use this matroid's foundation as the source")
    p.add_argument("--source", help="source pasture (gf:<q>, builtin, or file:<path>)")
    p.add_argument("--basis", help="reference basis when --matroid is used")
    p.add_argument("--target", required=True, help="target pasture")
    p.add_argument("--output", choices=["text", "json"], default="text")
    p.set_defaults(func=cmdIso)
    return parser


def run(argv=None):
    parser = buildParser()
    try:
        args = parser.parse_args(argv)
        if args.command == "iso":
            if (args.matroid is None) == (args.source is None):
                raise _UsageError("iso: exactly one of --matroid or --source is required")
            if args.basis is not None and args.matroid is None:
                raise _UsageError("iso: --basis needs --matroid")
        return args.func(args)
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except _InputError as e:
        print("input error: %s" % e, file=sys.stderr)
        return 1
    except _DOMAIN_ERRORS as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


def main(argv=None):
    try:
        code = run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; the interpreter's last flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
