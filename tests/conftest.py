import importlib.util
import sys


def load_file(path, name):
    """Import the Python file at ``path``, which is not on the import path,
    as a fresh module called ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # verdict lines from the release gate, printed uncaptured at the end
    for name in ("test_acceptance", "tests.test_acceptance"):
        mod = sys.modules.get(name)
        if mod is not None and getattr(mod, "RESULTS", None):
            terminalreporter.section("release gate")
            for line in mod.RESULTS:
                terminalreporter.write_line(line)
            break
