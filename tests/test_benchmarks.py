"""Tests for the frozen benchmark registry."""
import numpy as np
import pytest

from oscpert import threemode as tm
from oscpert.benchmarks import BENCHMARK_IDS, canonical_id, registry


def test_aliases_resolve():
    assert canonical_id("M") == "moderate"
    assert canonical_id(" s ") == "small"
    assert registry("l") == registry("large")


def test_unknown_model():
    with pytest.raises(ValueError, match="^unknown benchmark 'xl'; expected one of"):
        registry("xl")
    with pytest.raises(ValueError, match="^unknown benchmark ''; expected one of"):
        canonical_id("")


def test_frozen_parameters():
    m = registry("moderate")
    assert m.omega == (9.0, 6.0, 0.0)
    assert m.a == (5.0, 4.0, 4.0)
    assert m.d[1] == 4.0 / 41.0
    # the small model's d3 comes from the singularity constraint, not the
    # (inconsistent) alternative of 1/49
    assert registry("small").d[2] == 1.0 / 40.0
    assert registry("large").d == (3.0, 2.75, 2.0)


def test_all_models_singular_at_full_coupling():
    for mid in BENCHMARK_IDS:
        det = np.linalg.det(tm.omega_matrix(registry(mid), 1.0))
        assert abs(det) <= 1e-9


def test_epsilon_passthrough():
    assert registry("s", epsilon=0.25).epsilon == 0.25
