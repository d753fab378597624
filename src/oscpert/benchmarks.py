"""Frozen benchmark models for the reproduction harness.

Three 3-mode models share the uncoupled frequencies (9, 6, 0) and differ in
coupling strength; they are named for the size of their coupling ratios
|X|, |Y|, |Z| at eps = 1 (small ~0.07, moderate ~1-2.6, large ~6-9.6).
Each model's diagonal shifts d are fixed so Omega(1) is singular, the
defining feature of a Laplacian-derived system:

    (w1 + d1) (w2 + d2) (w3 + d3) = a1 a2 a3.

For the "small" model that constraint forces d3 = 1/40 exactly
(10.5 * (160/21) * d3 = 2), which is the value frozen here.
"""
from __future__ import annotations

from .threemode import ThreeModeModel

_ALIASES = {
    "m": "moderate",
    "s": "small",
    "l": "large",
    "moderate": "moderate",
    "small": "small",
    "large": "large",
}

_PARAMETERS = {
    "moderate": dict(
        omega=(9.0, 6.0, 0.0),
        a=(5.0, 4.0, 4.0),
        d=(33.0 / 10.0, 4.0 / 41.0, 16.0 / 15.0),
    ),
    "small": dict(
        omega=(9.0, 6.0, 0.0),
        a=(1.0, 2.0, 1.0),
        d=(3.0 / 2.0, 34.0 / 21.0, 1.0 / 40.0),
    ),
    "large": dict(
        omega=(9.0, 6.0, 0.0),
        a=(6.0, 7.0, 5.0),
        d=(3.0, 11.0 / 4.0, 2.0),
    ),
}

BENCHMARK_IDS = tuple(_PARAMETERS)

# |X|, |Y|, |Z| at eps = 1, rounded to 3 decimals; used by the verify suite.
COUPLING_TABLE = {
    "moderate": (1.148, 1.416, 2.564),
    "small": (0.066, 0.025, 0.091),
    "large": (6.462, 3.111, 9.573),
}


def canonical_id(model_id: str) -> str:
    """Resolve an id or alias (case and surrounding blanks ignored) to the
    canonical benchmark name; any other id is a ValueError."""
    key = _ALIASES.get(str(model_id).strip().lower())
    if key is None:
        raise ValueError(
            f"unknown benchmark {model_id!r}; expected one of {BENCHMARK_IDS} "
            "or aliases m/s/l"
        )
    return key


def registry(model_id: str, epsilon: float = 1.0) -> ThreeModeModel:
    """The frozen benchmark model of an id canonical_id resolves (small,
    moderate, large, or s/m/l), at ``epsilon``; any other id is a ValueError."""
    return ThreeModeModel(epsilon=epsilon, **_PARAMETERS[canonical_id(model_id)])
