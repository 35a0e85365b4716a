"""The handlers of every subcommand but `rep`, imported by `cli.main` only when one
of them is invoked.  Each imports the modules of its own computation.  This module
does not import `cli`: under `python -m braidhom.cli` that runs as `__main__`, and
an import by name would compile it a second time.
"""

from __future__ import annotations

import json
import sys

from .clitext import emit, field_for, parse_assignments, parse_ints, parse_value, value_str
from .ring import matrix_text


def _parse_surface(args) -> SurfaceTriad:
    from .surfaces import SurfaceTriad

    parts = parse_ints(args.surface, "--surface")
    if len(parts) != 3:
        raise ValueError(f"--surface expects g,n,k, got {args.surface!r}")
    return SurfaceTriad(parts[0], parts[1], parts[2], args.m)


def _surface_fields(triad) -> dict:
    g, n, k = triad.genus, triad.inner_circles, triad.outer_intervals
    return {"surface": [g, n, k], "m": triad.points}


def _cmd_basis(args) -> int:
    from .surfaces import basis, dimension

    triad = _parse_surface(args)
    classes = basis(triad, args.side, args.flavour)
    records = [{"composition": list(c.composition), "label": str(c)} for c in classes]
    payload = {**_surface_fields(triad), "side": args.side, "flavour": args.flavour,
               "dimension": dimension(triad), "classes": records}
    emit(args.format, payload, lines=[str(c) for c in classes])
    return 0


def _cmd_pairing(args) -> int:
    from .pairing import delta_pairing, geometric_pairing_matrix
    from .surfaces import standard_local_system

    triad = _parse_surface(args)
    if args.geometric:
        matrix = geometric_pairing_matrix(triad, args.side, standard_local_system(args.m))
        kind = "geometric"
    else:
        matrix = delta_pairing(triad, args.side)
        kind = "delta"
    cells = matrix_text(matrix.entries)
    payload = {**_surface_fields(triad), "side": args.side, "kind": kind, "rows": cells}
    emit(args.format, payload, cells=cells)
    return 0


def _cmd_embed(args) -> int:
    from .embeddings import embedding_matrix
    from .ring import LaurentRing, LocalSystem, standard_local_system

    triad = _parse_surface(args)
    if args.specialize is None:
        embedding = embedding_matrix(triad, args.direction, standard_local_system(args.m))
        (diagonal,) = matrix_text([embedding.diagonal])
    else:
        assignments = parse_assignments(args.specialize)
        if set(assignments) != {"u"}:
            raise ValueError("embed specializes the swap unit only: --specialize u=VALUE")
        field = field_for(assignments.values())
        u = LaurentRing(0, field).scalar(assignments["u"])
        if field.is_zero(u.coefficient(())):
            raise ValueError(f"the swap unit must be a unit, got u={assignments['u']}")
        embedding = embedding_matrix(triad, args.direction, LocalSystem(u.ring, u))
        diagonal = [value_str(field, entry.coefficient(())) for entry in embedding.diagonal]
    payload = {**_surface_fields(triad), "direction": args.direction, "diagonal": diagonal}
    # Each format builds only what it prints: text a line per entry, latex the d x d matrix.
    lines = [f"{','.join(map(str, e))}: {entry}" for e, entry in
             zip(embedding.compositions, diagonal)] if args.format == "text" else None
    cells = [[entry if r == c else "0" for c in range(len(diagonal))]
             for r, entry in enumerate(diagonal)] if args.format == "latex" else None
    emit(args.format, payload, lines, cells)
    return 0


def _cmd_generic_check(args) -> int:
    from .homology import SpecializationPoint, genericity_check
    from .surfaces import disc_triad, standard_local_system

    triad = disc_triad(2, args.m)
    system = standard_local_system(args.m)
    assignments = {"x": parse_value(args.theta_x)}
    if args.m >= 2:
        if args.theta_d is None:
            raise ValueError("--theta-d is required when m >= 2")
        assignments["d"] = parse_value(args.theta_d)
    field = field_for(assignments.values())
    point = SpecializationPoint(assignments, field)
    verdict = genericity_check(triad, system, point)
    theta = {name: value_str(field, value) for name, value in sorted(assignments.items())}
    payload = {"m": args.m, "theta": theta, "generic": verdict}
    emit(args.format, payload, lines=["generic" if verdict else "not generic"])
    return 0


def _cmd_homology(args) -> int:
    from .fields import Rationals
    from .homology import SpecializationPoint, complex_from_json, homology_ranks_at

    with open(args.complex, encoding="utf-8") as handle:
        data = json.load(handle)
    cpx = complex_from_json(data)
    assignments = parse_assignments(args.at) if args.at else {}
    missing = set(cpx.ring.variables) - set(assignments)
    if missing:
        raise ValueError(f"--at must assign {sorted(missing)}")
    unknown = set(assignments) - set(cpx.ring.variables)
    if unknown:
        raise ValueError(f"--at assigns {sorted(unknown)}, which the complex does not have")
    field = field_for(assignments.values()) if assignments else Rationals()
    point = SpecializationPoint(assignments, field)
    ranks = homology_ranks_at(cpx, point)
    at = {name: value_str(field, value) for name, value in sorted(assignments.items())}
    payload = {"direction": cpx.direction, "at": at, "ranks": list(ranks)}
    emit(args.format, payload, lines=["ranks: " + " ".join(str(r) for r in ranks)])
    return 0


def _cmd_helix(args) -> int:
    from .completion import completed_to_json, helix_class, is_in_group_ring
    from .compositions import rank

    triad = _parse_surface(args)
    e = parse_ints(args.e, "--e")
    y = parse_ints(args.y, "--y")
    z = parse_ints(args.z, "--z")
    vector = helix_class(triad, e, y, z)
    coordinate = vector.entries[rank(e)]
    membership = is_in_group_ring(coordinate)
    payload = {**_surface_fields(triad), "e": list(e),
               "coordinate": completed_to_json(coordinate), "in_group_ring": membership}
    lines = [
        f"ray: base {list(ray.base)} step {list(ray.step)} "
        f"pattern {list(ray.pattern)} ({ray.direction})"
        for ray in coordinate.rays
    ]
    lines.append(f"in group ring: {'yes' if membership else 'no'}")
    emit(args.format, payload, lines=lines)
    return 0


def _cmd_verify(args) -> int:
    from .checks import CHECKS

    failures = 0
    for name, check in CHECKS:
        counterexample = check()
        failures += counterexample is not None
        print(f"ok   {name}" if counterexample is None else f"FAIL {name}: {counterexample}")
    total = len(CHECKS)
    print(f"{total - failures}/{total} checks passed")
    if failures:
        print(f"error: {failures} verification checks failed", file=sys.stderr)
        return 1
    return 0
