"""The package namespace: what ``import spinlab`` loads and what each
module's ``__all__`` promises."""

import importlib
import json
import pkgutil
from pathlib import Path
import re
import subprocess
import sys

import pytest

import spinlab
from perfbench import run

_MODULES = ["spinlab"] + sorted(
    info.name for info in pkgutil.iter_modules(spinlab.__path__, "spinlab."))

# the benchmark's setup probe, then a report of what it left loaded
_PROBE = run._SETUP_CODE + """
import json
import re
print(json.dumps({"gaussian": spinlab.GAUSSIAN.name,
                  "loaded": sorted(m for m in sys.modules if m.startswith("spinlab"))}))
"""


def test_benchmark_setup_probe_runs_on_the_package_namespace(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text("{}")
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(run.SRC), str(config)],
                          capture_output=True, text=True, timeout=120, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    seconds, report = proc.stdout.splitlines()
    assert float(seconds) > 0
    report = json.loads(report)
    assert report["gaussian"] == "gaussian"
    # load_config needs the model layers, not the integrator or the commands
    for name in ("spinlab.dynamics", "spinlab.harness", "spinlab.lindeberg", "spinlab.cli"):
        assert name not in report["loaded"]


def test_package_holds_only_load_config_and_gaussian():
    submodules = {name.rpartition(".")[2] for name in _MODULES}
    public = {name for name in vars(spinlab) if not name.startswith("_")} - submodules
    assert public == set(spinlab.__all__) == {"GAUSSIAN", "load_config"}


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


# the seed's src/ line count; ROADMAP item 8 keeps every change below it
_SRC_LINE_BUDGET = 3296


def test_src_stays_within_the_line_budget():
    sources = Path(spinlab.__file__).parent.glob("*.py")
    assert sum(len(path.read_text().splitlines()) for path in sources) < _SRC_LINE_BUDGET


def test_numpy_random_only_where_it_is_still_read():
    # every disorder law and config reads the counter streams; the
    # resampling and Lindeberg instance draws still use a numpy Generator
    sources = Path(spinlab.__file__).parent.glob("*.py")
    users = {path.name for path in sources
             if re.search(r"\bnp\.random\b|\bnumpy\.random\b", path.read_text())}
    assert users <= {"streams.py", "harness.py", "lindeberg.py"}
