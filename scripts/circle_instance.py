"""Worked instance: a circle glued from two arcs, end to end.

Builds the two-endpoint cospan of an arc, composes it with itself at the
chain level, and prints the homology of the glued space next to the
canonical classes of the extended morphism in degrees 0 and 1. Everything
is exact and deterministic; run it twice and diff the output.
"""

import json

from abcosp.brown import (
    BrownFunctor,
    chain_homology_cospan,
    class_payload,
    verify_extension_dagger,
    verify_extension_functoriality,
    verify_transposition_compatibility,
)
from abcosp.cospan import Cospan, canonical_cosp
from abcosp.cw import (
    augmented_chain,
    closure_and_validate,
    homology_dims,
    make_simplicial_map,
    space_compose_chain_model,
)
from abcosp.exactlin import GF2, GF3, QQ

FIELDS = (GF2, GF3, QQ)


def field_name(f):
    return "Q" if f.characteristic == 0 else f"GF({f.characteristic})"


def main():
    s0 = closure_and_validate(2, [[0], [1]])
    arc = closure_and_validate(2, [[0, 1]])
    endpoints = make_simplicial_map(s0, arc, (0, 1))
    lam = Cospan(endpoints, endpoints)

    print("arc cospan: S0 -> arc <- S0, both legs the endpoint inclusion")
    for f in FIELDS:
        comp = space_compose_chain_model(lam, lam, f)
        dims = homology_dims(comp.bulk)
        base = homology_dims(augmented_chain(arc, f))
        print(f"  {field_name(f):>5}: glued bulk homology {dims} (single arc: {base})")

    print("\nextended morphism classes of the composite:")
    for q in (0, 1):
        for f in FIELDS:
            E = BrownFunctor(f, q)
            cls = canonical_cosp(
                chain_homology_cospan(E, space_compose_chain_model(lam, lam, f))
            )
            payload = json.dumps(class_payload(cls), sort_keys=True)
            print(f"  q={q} {field_name(f):>5}: {payload}")

    print("\nlemma reports on the gluing pair:")
    for q in (0, 1):
        for f in FIELDS:
            E = BrownFunctor(f, q)
            reports = [
                verify_extension_functoriality(E, lam, lam),
                verify_extension_dagger(E, lam),
            ]
            if q >= 1:
                reports.append(verify_transposition_compatibility(E, lam))
            for r in reports:
                status = "ok" if r["passed"] else f"FAILED {r['failures']}"
                print(f"  q={q} {field_name(f):>5} {r['check']:<14} {status}")


if __name__ == "__main__":
    main()
