"""Tests of the seeded rescaled-basis generator used by `verify_rescaled`.

    python3 -m pytest bench
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hopfforge.cli  # noqa: E402,F401  (Tracer.install needs every module imported)
from hopfforge import catalog  # noqa: E402
from hopfforge.hopf import check_algebra, check_hopf  # noqa: E402

from layertrace import Tracer  # noqa: E402
from rescale import perturb_unit_row, rescaled  # noqa: E402

SEEDS = (1, 2, 3)
NAMES = ("c4min", "b0", "smash36")


def nnz(H):
    return (len(H.mult.data), len(H.comult.data),
            sum(1 for c in H.unit if c), sum(1 for c in H.counit if c),
            sum(1 for row in H.antipode.rows for c in row if c))


def traced_check(H):
    tracer = Tracer()
    tracer.install()
    try:
        rep = check_hopf(H)
    finally:
        tracer.uninstall()
    return rep, tracer.raw["cyc.mul.calls"]


@pytest.mark.parametrize("name", NAMES)
def test_rescaled_copy_is_isomorphic_with_same_work(name):
    H = catalog.ALL_BUILDERS[name]().ore.O
    rep, catalog_muls = traced_check(H)
    assert rep.ok
    for seed in SEEDS:
        R = rescaled(H, random.Random(seed))
        assert nnz(R) == nnz(H)
        assert R.mult != H.mult
        rep, muls = traced_check(R)
        assert [e for e in rep.entries if not e.ok] == []
        assert muls == catalog_muls


def test_rescaled_is_seeded():
    H = catalog.b0().ore.O
    a, b = rescaled(H, random.Random(7)), rescaled(H, random.Random(7))
    assert a.mult == b.mult and a.comult == b.comult and a.antipode == b.antipode
    assert rescaled(H, random.Random(8)).mult != a.mult


@pytest.mark.parametrize("seed", SEEDS)
def test_perturbed_unit_row_fails_at_its_index(seed):
    rng = random.Random(seed)
    R = rescaled(catalog.b0().ore.O, rng)
    broken, j = perturb_unit_row(R, rng)
    unit = check_algebra(broken).entry("two_sided_unit")
    assert not unit.ok
    assert unit.witnesses == [j]
