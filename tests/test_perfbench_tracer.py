"""The traced benchmark (`perfbench/tracer.py`) wraps functions of `hks` by
name from outside the package. Installing and uninstalling it against the
current sources must succeed and leave every name as it was, so a renamed or
removed traced function fails here instead of in every traced repetition."""
import importlib
import sys
from pathlib import Path

import hks.cli  # noqa: F401  (loads every module the tracer patches)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def hks_bindings():
    """Every module-level name and class attribute of the loaded hks modules."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hks" or mod_name.startswith("hks.")):
            continue
        for key, value in vars(mod).items():
            out[(mod_name, key)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    out[(mod_name, key, attr)] = member
    return out


def test_tracer_install_then_uninstall_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    before = hks_bindings()
    installed = tracer.Tracer().install()
    try:
        during = hks_bindings()
    finally:
        installed.uninstall()
    after = hks_bindings()

    patched = {key for key, value in during.items() if value is not before.get(key)}
    # the round engine calls every traced teacher builder and layer by name
    for name in (
        "fetch_teacher", "feddistill_teacher", "fedcache_teacher", "build_hierarchy",
        "client_train", "train_step",
    ):
        assert ("hks.federation", name) in patched, name
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
