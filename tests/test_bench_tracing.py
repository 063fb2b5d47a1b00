"""The benchmark's traced names exist in permacheck.

bench/tracing.py wraps every function named in TARGETS and reads result
attributes through COUNTERS.  A renamed or deleted name otherwise shows
only in bench/test_smoke.py, which takes minutes.
"""

import importlib
import importlib.util
import os

import pytest

from permacheck import PermanentalSpec, kernel

_TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _function(name: str):
    module, attr = name.split(".")
    return getattr(importlib.import_module(f"permacheck.{module}"), attr)


@pytest.mark.parametrize("name", [f"{module}.{fn}" for module, names in tracing.TARGETS.items()
                                  for fn in names])
def test_every_target_exists(name):
    assert callable(_function(name))


def test_every_counter_reads_its_result(tmp_path):
    g = kernel([[1.0, 0.5], [0.5, 1.0]])
    spec = PermanentalSpec(g, 2.0)
    calls = {
        "betaperm.beta_positivity_scan": ((g,), {"m_max": 2}),
        "idcheck.id_verdict": ((g,), {}),
        "sampler.sample_permanental": ((spec, 20, 1), {}),
        "sampler.save_batch": ((_function("sampler.sample_permanental")(spec, 20, 1),
                                tmp_path / "x.bin"), {}),
        "assoc.association_mc_test": ((spec,), {"n_draws": 20, "seed": 1}),
        "assoc.resolvent_monotonicity_scan": ((g,), {}),
    }
    assert set(calls) == set(tracing.COUNTERS)
    for name, (args, kwargs) in calls.items():
        result = _function(name)(*args, **kwargs)
        counters = tracing.COUNTERS[name](args, kwargs, result)
        assert counters and all(isinstance(v, (int, str)) for v in counters.values()), name
