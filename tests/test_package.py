import importlib
import importlib.util
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import isacopt
from isacopt.errors import ConfigError, require_finite, require_integer
from reference import abc_is_finite, abc_is_integer


def test_import_leaves_the_harness_unloaded():
    src = str(Path(isacopt.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "import isacopt\n"
        "assert 'isacopt.harness' not in sys.modules\n"
        "assert 'hashlib' not in sys.modules\n"
        "from isacopt import run_experiment\n"
        "import isacopt.harness\n"
        "assert isacopt.run_experiment is isacopt.harness.run_experiment\n"
        "assert run_experiment is isacopt.harness.run_experiment\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_harness_names_stay_exported():
    from isacopt import harness
    for name in isacopt._HARNESS_NAMES:
        assert name in isacopt.__all__
        assert getattr(isacopt, name) is getattr(harness, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        isacopt.no_such_name


# Run on no solver path; kept as test oracles or for perfbench's tracer.
TRACER_KEPT = ("build_omega", "quartic_kernels", "snr_radar", "snr_comm",
               "weighted_snr", "dykstra_project", "precoder_objective",
               "relaxed_objective", "project_psd", "project_spectrahedron",
               "build_quartic_surrogate", "linear_surrogate_vectors")


def _tracing():
    """perfbench/tracing.py, loaded from its file (read only)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_kept_names_are_not_exported():
    tracing = _tracing()
    for name in TRACER_KEPT:
        assert name not in isacopt.__all__
        assert not hasattr(isacopt, name)
        modules = [module for module, attr, _ in tracing.TARGETS
                   + tracing.COUNTED if attr == name]
        assert modules, name
        for module in modules:
            assert callable(getattr(importlib.import_module(module), name))


class _Int(int):
    pass


class _Float(float):
    pass


class _Complex(complex):
    pass


# (value, finite, integer)
VALIDATOR_CASES = [
    (True, False, False), (np.bool_(1), False, False),
    (np.int64(3), True, True), (np.float64(0.5), True, False),
    (Fraction(1, 3), True, False), (math.nan, False, False),
    (math.inf, False, False), (complex(1, math.nan), False, False),
    ("1", False, False), (10 ** 400, False, True),
    (3, True, True), (0.5, True, False), (complex(1, 2), True, False),
]


def _verdict(check, value) -> bool:
    try:
        check(SimpleNamespace(x=value), ("x",))
    except ConfigError:
        return False
    return True


@pytest.mark.parametrize("value,finite,integer", VALIDATOR_CASES,
                         ids=[repr(v)[:12] for v, _, _ in VALIDATOR_CASES])
def test_both_validator_paths_agree(value, finite, integer):
    # exact int, float and complex values take the fast path; a subclass of
    # the same value, and every other type, the numbers-ABC path
    twins = [value]
    for exact, sub in ((int, _Int), (float, _Float), (complex, _Complex)):
        if type(value) is exact:
            twins.append(sub(value))
    for v in twins:
        assert _verdict(require_finite, v) is abc_is_finite(v) is finite
        assert _verdict(require_integer, v) is abc_is_integer(v) is integer


def test_list_entries_are_named():
    with pytest.raises(ConfigError, match=r"values\[1\] must be a finite"):
        require_finite(SimpleNamespace(values=[0.5, 10 ** 400]), ("values[]",))


def test_list_field_that_is_not_a_list_is_rejected():
    with pytest.raises(ConfigError, match="values must be a list"):
        require_integer(SimpleNamespace(values=3), ("values[]",))
