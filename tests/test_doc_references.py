"""Every backticked ``<module>.<name>`` reference to a gridlander module in
README.md and FORMATS.md names something that exists, so the docs cannot go
on naming deleted code. A reference may carry the package prefix
(``gridlander.vital.detect``) and trailing text (``cores.cpu_share()``);
only the module and the first name after it are resolved. The package
itself counts as a module (``gridlander.env``)."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import gridlander

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "FORMATS.md")
MODULES = {m.name for m in pkgutil.iter_modules(gridlander.__path__)}
FILE_SUFFIXES = {"ckpt", "csv", "json", "jsonl", "md", "ppm", "py", "svg", "txt"}
REFERENCE = re.compile(r"^(?:gridlander\.)?(\w+)\.(\w+)")


def _references() -> list[tuple[str, str, str]]:
    """(doc, module, name) for each backticked span that starts with a
    gridlander module and a name, file names such as ``dqn.ckpt`` aside."""
    found = []
    for doc in DOCS:
        for span in re.findall(r"`([^`\n]+)`", (ROOT / doc).read_text(encoding="utf-8")):
            match = REFERENCE.match(span)
            if match and match[1] in MODULES | {"gridlander"} and match[2] not in FILE_SUFFIXES:
                found.append((doc, match[1], match[2]))
    return found


def test_the_docs_reference_the_lane_code():
    """The scan sees the references the docs are known to make."""
    found = {(module, name) for _, module, name in _references()}
    assert {("vital", "_lane_key"), ("cores", "children")} <= found


@pytest.mark.parametrize("doc,module,name", sorted(set(_references())))
def test_every_module_reference_in_the_docs_resolves(doc, module, name):
    if module == "gridlander":
        found = name in MODULES or hasattr(gridlander, name)
    else:
        found = hasattr(importlib.import_module(f"gridlander.{module}"), name)
    assert found, f"{doc} names {module}.{name}, which does not exist"
