"""Read one registry identity at one point, the way the harness does."""

from geomstir.harness import REGISTRY

_BY_ID = {ident.id: ident for ident in REGISTRY}


def holds(identity_id: str, **point) -> dict[str, bool]:
    """{reading: lhs == rhs} of the identity's evaluator at the point."""
    return {name: lhs == rhs
            for name, (lhs, rhs) in _BY_ID[identity_id].evaluate(point).items()}
