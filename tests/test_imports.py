"""What a process imports: each CLI subcommand loads only the modules it runs."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gossamer

SRC = Path(gossamer.__file__).resolve().parents[1]

# Modules a closed-form subcommand must not load: ``report`` runs only
# under ``verify``, ``steps`` only under ``smooth``, and ``dataclasses``
# brings ``inspect``, ``ast``, ``dis`` and ``tokenize`` with it.
HEAVY = ("gossamer.report", "gossamer.steps", "dataclasses")


def loaded_after(code: str) -> set:
    """The names in ``sys.modules`` of a fresh interpreter after running ``code``."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_cli_import_loads_neither_report_nor_steps():
    assert loaded_after("import gossamer.cli").isdisjoint(HEAVY)


def test_package_import_loads_no_submodule():
    assert not any(name.startswith("gossamer.") for name in loaded_after("import gossamer"))
    # The submodules an eager import once loaded stay readable from the package.
    assert "gossamer.steps" in loaded_after("import gossamer\ngossamer.steps.SHAPE_POLYNOMIALS")


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["riemann", "--poly", "x^2"], HEAVY),
        (["pipeline", "--poly", "x^2"], HEAVY),
        (["sum", "--term", "k^2", "--from", "1", "--to", "w"], HEAVY),
        (["ftc", "--poly", "x^2", "--x", "2"], HEAVY),
        (["smooth", "--input", "STEP"], ("gossamer.report", "dataclasses")),
    ],
    ids=["riemann", "pipeline", "sum", "ftc", "smooth"],
)
def test_subcommand_loads_only_what_it_runs(argv, absent, tmp_path):
    step = tmp_path / "step.json"
    step.write_text('{"breakpoints": ["0"], "levels": ["0", "1"]}', encoding="utf-8")
    argv = [str(step) if arg == "STEP" else arg for arg in argv]
    loaded = loaded_after(f"from gossamer.cli import main\nassert main({argv!r}) == 0")
    assert loaded.isdisjoint(absent)


def test_every_public_name_is_its_modules_own_object():
    for name in gossamer.__all__:
        value = getattr(gossamer, name)
        assert vars(gossamer)[name] is value, name  # later reads skip __getattr__
        homes = [
            module
            for module_name, module in sys.modules.items()
            if module_name.startswith("gossamer.") and vars(module).get(name) is value
        ]
        assert homes, name
        defined_in = getattr(value, "__module__", None)
        if getattr(value, "__name__", None) == name and defined_in in sys.modules:
            assert vars(sys.modules[defined_in])[name] is value, name
    assert set(gossamer.__all__) <= set(dir(gossamer))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        gossamer.bogus
