"""The benchmark's tracer wraps named rrsmooth functions; each must exist.

``perfbench/tracing.py`` replaces every ``(module, attribute)`` in its
``PATCHES`` table with a timed wrapper. A renamed kernel would make a traced
benchmark run fail with an AttributeError, so the names are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("entry", load_tracing().PATCHES, ids=lambda e: f"{e[0]}.{e[1]}")
def test_patched_name_resolves_to_a_callable(entry):
    module_name, attr = entry[:2]
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_a_traced_run_counts_one_cap_per_line_search(monkeypatch):
    # The tracer's cap counter reads (mesh, direction) from the positional
    # arguments, so edges passed positionally would fail the traced run.
    # A line search computes the exact cap at most once, only when a trial
    # passes the cells' lower bound; its record then names the binding cell.
    from rrsmooth import mesh as m, optim
    from rrsmooth.generate import CUBE, GeneratorSpec, PlantSliver, gen_mesh, perturb_mesh

    tracing = load_tracing()
    mesh = perturb_mesh(gen_mesh(GeneratorSpec(CUBE, 3)), PlantSliver(count=1, eps=0.01))
    mesh = m.classify_boundary(mesh, m.FIX_ALL)
    searches = []
    search = optim.strong_wolfe_search

    def counted(*args, **kwargs):
        searches.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(optim, "strong_wolfe_search", counted)
    with tracing.installed(tracing.Tracer()) as tracer:
        _, report = optim.optimize(mesh, optim.OptimizeConfig(method="plbfgs", max_iters=2))
    assert report.iterations == 2
    exact = sum(r.cap_cell >= 0 for r in report.records)
    assert len(searches) >= 2
    assert 1 <= [s[0] for s in tracer.spans].count("mesh.cap") == exact <= len(searches)
    assert tracer.counts["mesh.cap.moving_cells"] > 0


def test_optim_calls_the_caps_own_functions():
    # The tracer's mesh.cap span wraps the name optim calls; a wrapper in
    # optim would be timed in place of the cap.
    from rrsmooth import cap, optim

    assert optim.max_step_before_inversion is cap.max_step_before_inversion
    assert optim.step_lower_bounds is cap.step_lower_bounds
