"""The one integer policy, :func:`cohom1.errors.require_int`, and the one
real-number policy, :func:`cohom1.errors.is_real`.

Every integer argument of the package takes a Python or numpy integer and
gives the result of the equal Python int; a bool, a float or a string
raises the argument's error type with a message naming it.  The table
has a row for every public function that takes an integer, and one for
each integer of BvpSpec and make_action.  The rejections of the raw-tension
counts, the identity functions' arguments, the ``ShootingConfig`` counts
and ``solve(profile_points=...)`` are pinned by parametrised tests next to
those functions, so for them the table checks numpy acceptance only.

Every real argument takes a Python or numpy int or float; a bool, numpy's
bool, a string, None, a complex, a Fraction or a Decimal raises ValueError.
"""

import contextlib
import json
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from cohom1 import actions, classify, identities, ode, solver
from cohom1.errors import InadmissibleJ, InvalidTriple, is_real, require_int
from cohom1.ode import BvpSpec, TensionSample

T = np.array([0.3, 1.1])
SAMPLE = TensionSample(0.3, 0.2, 1.1, -0.4)
SPHERE = actions.make_action("sphere", 2, 1, 3)
SO = actions.make_action("so", 3, 2, 2)
SPEC = BvpSpec(1, 2, 2, 1)


def sides(pair):
    """The two sides of an identity as lists, to compare exactly."""
    return [np.asarray(side).tolist() for side in pair]


# id: (argument, call(value), error type or None, a valid value).  The
# error type is the one each function raised for a non-integer before the
# policy had one definition; strict_triples and classify_range checked
# nothing.  None marks an argument whose rejections another test pins.
TABLE = {
    "BvpSpec.G": ("G", lambda v: BvpSpec(v, 1, 1, 1), ValueError, 2),
    "BvpSpec.M0": ("M0", lambda v: BvpSpec(2, v, 1, 1), ValueError, 2),
    "BvpSpec.M1": ("M1", lambda v: BvpSpec(2, 1, v, 1), ValueError, 2),
    "BvpSpec.k": ("k", lambda v: BvpSpec(2, 1, 1, v), ValueError, -1),
    "linear_residual_oracle.G": (
        "G", lambda v: classify.linear_residual_oracle(v, 1, 1, -1), ValueError, 2,
    ),
    "linear_residual_oracle.M0": (
        "M0", lambda v: classify.linear_residual_oracle(2, v, 3, -1), ValueError, 2,
    ),
    "linear_residual_oracle.M1": (
        "M1", lambda v: classify.linear_residual_oracle(2, 1, v, 3), ValueError, 2,
    ),
    "linear_residual_oracle.k": (
        "k", lambda v: classify.linear_residual_oracle(2, 1, 3, v), ValueError, 3,
    ),
    "oracle_scale.G": ("G", lambda v: classify.oracle_scale(v, 1, 1, -1), ValueError, 2),
    "oracle_scale.M0": ("M0", lambda v: classify.oracle_scale(2, v, 3, -1), ValueError, 2),
    "oracle_scale.M1": ("M1", lambda v: classify.oracle_scale(2, 1, v, 3), ValueError, 2),
    "oracle_scale.k": ("k", lambda v: classify.oracle_scale(2, 1, 3, v), ValueError, -3),
    "make_action.g": ("g", lambda v: actions.make_action("so", v, 1, 1), InvalidTriple, 2),
    "make_action.m0": (
        "m0", lambda v: actions.make_action("sphere", 2, v, 3), InvalidTriple, 2,
    ),
    "make_action.m1": (
        "m1", lambda v: actions.make_action("sphere", 2, 1, v), InvalidTriple, 2,
    ),
    "admissible_k.j": ("j", lambda v: actions.admissible_k(SO, v), InadmissibleJ, -2),
    "degree_of_k_map.j": ("j", lambda v: actions.degree_of_k_map(SPHERE, v), InadmissibleJ, -1),
    "is_harmonic_k_map.j": (
        "j", lambda v: classify.is_harmonic_k_map(SO, v), InadmissibleJ, -2,
    ),
    "strict_triples.max_m": ("max_m", lambda v: actions.strict_triples(max_m=v), ValueError, 2),
    "strict_triples.max_ell": (
        "max_ell", lambda v: actions.strict_triples(max_ell=v), ValueError, 2,
    ),
    "classify_range.jmin": (
        "jmin", lambda v: classify.classify_range(SPHERE, v, 3), ValueError, -2,
    ),
    "classify_range.jmax": (
        "jmax", lambda v: classify.classify_range(SPHERE, -3, v), ValueError, 2,
    ),
    "raw_tension_sphere.g": (
        "g", lambda v: ode.raw_tension_sphere(v, 1, 3, SAMPLE).hex(), None, 2,
    ),
    "raw_tension_so.m1": ("m1", lambda v: ode.raw_tension_so(1, 3, v, SAMPLE).hex(), None, 3),
    "lemma_sin_sq.g": ("g", lambda v: sides(identities.lemma_sin_sq(v, T, T)), None, 2),
    "lemma_sin_2r.g": ("g", lambda v: sides(identities.lemma_sin_2r(v, T, T)), None, 3),
    "cotangent_identity.g": ("g", lambda v: sides(identities.cotangent_identity(v, T)), None, 5),
    "half_sum_split.g": ("g", lambda v: sides(identities.half_sum_split(v, 1, 3, T)), None, 4),
    "identity_suite.g_max": (
        "g_max", lambda v: identities.identity_suite(g_max=v, samples=10), None, 2,
    ),
    "identity_suite.samples": (
        "samples", lambda v: identities.identity_suite(g_max=1, samples=v), None, 10,
    ),
    "identity_suite.seed": (
        "seed", lambda v: identities.identity_suite(g_max=1, samples=10, seed=v), None, 0,
    ),
    "ShootingConfig.sweep_points": (
        "sweep_points", lambda v: solver.ShootingConfig(sweep_points=v).to_dict(SPEC), None, 8,
    ),
    "ShootingConfig.max_newton": (
        "max_newton", lambda v: solver.ShootingConfig(max_newton=v).to_dict(SPEC), None, 5,
    ),
    "solve.profile_points": (
        "profile_points",
        lambda v: solver.solve(SPEC, profile_points=v).samples.tolist(), None, 600,
    ),
}
REJECTING = [key for key, (_, _, error, _) in TABLE.items() if error is not None]


@pytest.mark.parametrize("bad", [True, 2.0, "2"])
@pytest.mark.parametrize("key", REJECTING)
def test_non_integers_rejected_naming_the_argument(key, bad):
    name, call, error, _ = TABLE[key]
    with pytest.raises(error, match=f"^{re.escape(name)} must be an? "):
        call(bad)


@pytest.mark.parametrize("key", TABLE)
def test_numpy_integers_give_the_python_int_result(key):
    _, call, _, value = TABLE[key]
    want = call(value)
    assert call(np.int64(value)) == want
    assert call(np.int32(value)) == want


def test_numpy_fields_stored_as_python_ints():
    # to_dict carried the numpy ints into json.dumps, which rejects them
    spec = BvpSpec(np.int64(2), np.int32(1), np.uint8(3), np.int64(-1))
    assert spec == BvpSpec(2, 1, 3, -1)
    assert {type(x) for x in spec.to_dict().values()} == {int}
    assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()
    action = actions.make_action("so", np.int64(3), np.int64(2), np.int64(2))
    assert json.loads(json.dumps(action.to_dict())) == action.to_dict()
    verdict = classify.is_harmonic_k_map(action, np.int64(-2)).to_dict()
    assert json.loads(json.dumps(verdict)) == verdict


class TestRequireInt:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.int8(3), np.uint64(3)])
    def test_integers_come_back_as_python_ints(self, value):
        got = require_int("n", value)
        assert type(got) is int and got == 3

    @pytest.mark.parametrize("value", [
        True, False, np.True_, np.bool_(False), 3.0, np.float64(3), 3 + 0j, "3", None, [3],
    ])
    def test_non_integers_raise_naming_the_argument(self, value):
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            require_int("n", value)

    @pytest.mark.parametrize("low, kind, bad", [
        (0, "a non-negative integer", -1), (1, "a positive integer", 0),
    ])
    def test_lower_bounds(self, low, kind, bad):
        assert require_int("n", low, low) == low
        assert require_int("n", np.int64(low), low) == low
        for value in (bad, np.int64(bad), True, 2.5):
            with pytest.raises(ValueError, match=f"^n must be {kind}, got "):
                require_int("n", value, low)

    def test_error_type_is_the_callers(self):
        with pytest.raises(InadmissibleJ, match="^j must be an integer, got 1.0$"):
            require_int("j", 1.0, error=InadmissibleJ)


class NoShot(Exception):
    """Raised in place of a shot: the arguments passed validation."""


def no_shot(*args):
    raise NoShot


# id: (call(value) with solver.shoot replaced by no_shot, message of the
# rejection).  Each call takes the value 1 of any accepted type.
REAL_ARGUMENTS = {
    "ShootingConfig.blowup_cap": (
        lambda v: solver.ShootingConfig(blowup_cap=v).validate(SPEC),
        "^blowup_cap must be a real number, got ",
    ),
    "ShootingConfig.bracket": (
        lambda v: solver.ShootingConfig(bracket=(-1.0, v)).validate(SPEC),
        "^bracket must be a pair of real numbers, got ",
    ),
    "solve.init": (
        lambda v: solver.solve(SPEC, init=(v, v)),
        "^init must be a pair of finite real numbers, got ",
    ),
    "identity_suite.margin": (
        lambda v: identities.identity_suite(g_max=1, samples=10, margin=v),
        "^margin \\(--margin\\) must lie in ",
    ),
}


@pytest.mark.parametrize("kind", [int, float, np.int64, np.float32])
@pytest.mark.parametrize("key", REAL_ARGUMENTS)
def test_real_numbers_accepted(key, kind, monkeypatch):
    monkeypatch.setattr(solver, "shoot", no_shot)
    call, _ = REAL_ARGUMENTS[key]
    assert is_real(kind(1))
    with pytest.raises(NoShot) if key == "solve.init" else contextlib.nullcontext():
        call(kind(1))


@pytest.mark.parametrize(
    "bad", [True, np.True_, "1", None, 1 + 0j, Fraction(1), Decimal(1)], ids=repr
)
@pytest.mark.parametrize("key", REAL_ARGUMENTS)
def test_non_real_numbers_rejected(key, bad, monkeypatch):
    # numbers.Real alone would admit the Fraction
    monkeypatch.setattr(solver, "shoot", no_shot)
    call, message = REAL_ARGUMENTS[key]
    assert not is_real(bad)
    with pytest.raises(ValueError, match=message):
        call(bad)
