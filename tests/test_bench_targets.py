"""The traced benchmark's span targets must name live library objects.

``bench/spans.py`` rebinds each (module, attribute) in ``TARGETS`` when a
run is traced; a rename in the library would otherwise surface only there.
The file is loaded read-only, outside any package.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_resolves():
    targets = _targets()
    assert targets
    for module_name, attr, _, _ in targets:
        owner = importlib.import_module(f"transferfn.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            # the tracer patches the method found in the class's own namespace
            assert callable(vars(getattr(owner, cls_name)).get(method)), (module_name, attr)
        else:
            assert callable(getattr(owner, attr, None)), (module_name, attr)


def test_families_map_names_to_the_scalar_fitters():
    # the tracer counts the bootstrap's one fit of the observed data by
    # rebinding these entries, which it finds by identity
    from transferfn import distributions

    fitters = {"gamma": distributions.fit_gamma_mle, "normal": distributions.fit_normal, "uniform": distributions.fit_uniform}
    assert distributions.FAMILIES.keys() == fitters.keys()
    for name, fitter in fitters.items():
        assert distributions.FAMILIES[name] is fitter, name
