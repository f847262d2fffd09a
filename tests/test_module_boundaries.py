"""Modules of the package use each other only through public names, and
nothing outside the package but the standard library and numpy; only
``storage`` reads, writes, removes and lists files, and only ``sources``
goes to the network.

A name with a leading underscore is private to the module that defines
it; another module that imports it or reads it as an attribute couples
itself to an implementation detail.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "shiftminer"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _internal(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "shiftminer"


def private_uses(path: Path) -> list[str]:
    """Every private name of another package module that ``path`` touches."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    module_names: set[str] = set()
    found: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _internal(node):
            package_import = node.module is None or node.module == "shiftminer"
            for alias in node.names:
                if package_import:
                    module_names.add(alias.asname or alias.name)
                if _private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("shiftminer.") and alias.asname:
                    module_names.add(alias.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_names
            and _private(node.attr)
        ):
            found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_module_uses_another_modules_private_names():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 5
    violations = [use for path in modules for use in private_uses(path)]
    assert violations == []


def test_checker_sees_both_forms(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "from . import pipeline\n"
        "from .sources import _KNOWN_FIELDS, load_queries\n"
        "runner = pipeline._Runner\n"
        "fine = pipeline.run\n"
    )
    assert private_uses(path) == [
        "probe.py:2 imports _KNOWN_FIELDS",
        "probe.py:3 reads pipeline._Runner",
    ]


RUNTIME_DEPENDENCIES = {"numpy"}


def foreign_imports(path: Path) -> list[str]:
    """Every import in ``path``, function bodies included, of a module that
    is neither the standard library, a runtime dependency nor the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not _internal(node):
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names | RUNTIME_DEPENDENCIES | {"shiftminer"}:
                found.append(f"{path.name}:{node.lineno} imports {name}")
    return found


def test_package_imports_only_stdlib_and_numpy():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 5
    violations = [use for path in modules for use in foreign_imports(path)]
    assert violations == []


def test_dependency_checker_sees_every_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import json, numpy as np\n"
        "from scipy.interpolate import CubicSpline\n"
        "from . import series\n"
        "from shiftminer.series import TimeSeries\n"
        "def send():\n"
        "    import requests\n"
    )
    assert foreign_imports(path) == [
        "probe.py:2 imports scipy.interpolate",
        "probe.py:6 imports requests",
    ]


WRITING_METHODS = ("write_text", "write_bytes", "mkdir", "unlink", "rmdir")
OS_WRITES = ("open", "write", "mkdir", "makedirs", "replace", "rename", "remove", "unlink", "rmdir")


def calls(path: Path):
    """``(node, name, module)`` for every call in ``path``: ``name`` is the
    function or method called, ``module`` the name it is read from (the ``os``
    of ``os.open``) or None."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            yield node, name, getattr(getattr(func, "value", None), "id", None)


def file_writes(path: Path) -> list[str]:
    """Every call in ``path`` that writes, makes or removes a file or a
    directory: ``open`` in a writing mode, ``.write_text``, ``.write_bytes``,
    ``json.dump``, ``.mkdir``, ``.unlink``, ``.rmdir``, ``os.open`` (in any
    mode), ``os.write``, ``os.mkdir``, ``os.makedirs``, ``os.replace``,
    ``os.rename``, ``os.remove``, ``os.unlink``, ``os.rmdir``, ``shutil.copy*``,
    ``shutil.move`` and ``shutil.rmtree``, in line order."""
    found: list[tuple[int, str]] = []
    for node, name, module in calls(path):
        func = node.func
        if module == "os":
            writes = name in OS_WRITES
        elif module == "shutil":
            writes = name in ("move", "rmtree") or name.startswith("copy")
        elif name == "open":
            # open(file, mode) or path.open(mode)
            at = 1 if isinstance(func, ast.Name) else 0
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] or node.args[at:at + 1]
            writes = any(isinstance(m, ast.Constant) and isinstance(m.value, str)
                         and set(m.value) & set("wax+") for m in modes)
        elif name == "dump":
            writes = module == "json"
        else:
            writes = isinstance(func, ast.Attribute) and name in WRITING_METHODS
        if writes:
            found.append((node.lineno, f"{path.name}:{node.lineno} calls {name}"))
    return [text for _, text in sorted(found)]


def test_only_storage_writes_files():
    modules = [path for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "storage.py"]
    assert len(modules) > 5
    assert [call for path in modules for call in file_writes(path)] == []


def test_write_checker_sees_every_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import json, os, shutil\n"
        "def save(path, doc):\n"
        "    with open(path, 'w', encoding='utf-8') as fh:\n"
        "        json.dump(doc, fh)\n"
        "    path.write_text('x')\n"
        "    path.parent.mkdir(parents=True)\n"
        "    path.open(mode='ab').write(b'')\n"
        "    path.write_bytes(b'')\n"
        "    open(path, 'r+')\n"
        "    fd = os.open(path, os.O_WRONLY | os.O_CREAT)\n"
        "    os.write(fd, b'')\n"
        "    os.mkdir(path)\n"
        "    os.makedirs(path, exist_ok=True)\n"
        "    os.replace(path, path)\n"
        "    os.rename(path, path)\n"
        "    shutil.copy(path, path)\n"
        "    shutil.copyfile(path, path)\n"
        "    shutil.copytree(path, path)\n"
        "    shutil.move(path, path)\n"
        "def remove(path):\n"
        "    shutil.rmtree(path, ignore_errors=True)\n"
        "    os.remove(path)\n"
        "    os.unlink(path)\n"
        "    os.rmdir(path)\n"
        "    path.unlink(missing_ok=True)\n"
        "    path.rmdir()\n"
        "def load(path):\n"
        "    open(path).read()\n"
        "    open(path, 'rb').read()\n"
        "    path.open().read()\n"
        "    os.listdir(os.path.dirname(path))\n"
        "    path.exists()\n"
        "    return json.dumps(json.loads(path.read_text()))\n"
    )
    assert file_writes(path) == [
        "probe.py:3 calls open",
        "probe.py:4 calls dump",
        "probe.py:5 calls write_text",
        "probe.py:6 calls mkdir",
        "probe.py:7 calls open",
        "probe.py:8 calls write_bytes",
        "probe.py:9 calls open",
        "probe.py:10 calls open",
        "probe.py:11 calls write",
        "probe.py:12 calls mkdir",
        "probe.py:13 calls makedirs",
        "probe.py:14 calls replace",
        "probe.py:15 calls rename",
        "probe.py:16 calls copy",
        "probe.py:17 calls copyfile",
        "probe.py:18 calls copytree",
        "probe.py:19 calls move",
        "probe.py:21 calls rmtree",
        "probe.py:22 calls remove",
        "probe.py:23 calls unlink",
        "probe.py:24 calls rmdir",
        "probe.py:25 calls unlink",
        "probe.py:26 calls rmdir",
    ]


READING_METHODS = ("read_text", "read_bytes")
MODULE_READS = (("os", "read"), ("json", "load"))


def file_reads(path: Path) -> list[str]:
    """Every call in ``path`` that opens or reads a file: ``open`` and
    ``.open`` in any mode (``io.open`` and ``os.open`` among them),
    ``.read_text``, ``.read_bytes``, ``os.read`` and ``json.load``, in line order."""
    found: list[tuple[int, str]] = []
    for node, name, module in calls(path):
        if (name == "open" or (module, name) in MODULE_READS
                or (isinstance(node.func, ast.Attribute) and name in READING_METHODS)):
            found.append((node.lineno, f"{path.name}:{node.lineno} calls {name}"))
    return [text for _, text in sorted(found)]


def test_only_storage_reads_files():
    modules = [path for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "storage.py"]
    assert len(modules) > 5
    assert [call for path in modules for call in file_reads(path)] == []


def test_read_checker_sees_every_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import io, json, os, urllib.request\n"
        "from . import storage\n"
        "def load(path, fh, url):\n"
        "    open(path).read()\n"
        "    io.open(path, 'rb')\n"
        "    fd = os.open(path, os.O_RDONLY)\n"
        "    os.read(fd, 1 << 16)\n"
        "    json.load(fh)\n"
        "    path.read_text(encoding='utf-8')\n"
        "    path.read_bytes()\n"
        "    path.open()\n"
        "def fine(path, url):\n"
        "    text = storage.read_file(path)\n"
        "    json.loads(text)\n"
        "    os.listdir(path)\n"
        "    return urllib.request.urlopen(url).read()\n"
    )
    assert file_reads(path) == [
        "probe.py:4 calls open",
        "probe.py:5 calls open",
        "probe.py:6 calls open",
        "probe.py:7 calls read",
        "probe.py:8 calls load",
        "probe.py:9 calls read_text",
        "probe.py:10 calls read_bytes",
        "probe.py:11 calls open",
    ]


OS_LISTINGS = ("listdir", "scandir", "walk")
LISTING_METHODS = ("iterdir", "glob", "rglob")


def directory_listings(path: Path) -> list[str]:
    """Every call in ``path`` that lists a directory: ``os.listdir``,
    ``os.scandir``, ``os.walk``, ``.iterdir``, ``.glob`` and ``.rglob``, in line order."""
    found: list[tuple[int, str]] = []
    for node, name, module in calls(path):
        if (module == "os" and name in OS_LISTINGS
                or isinstance(node.func, ast.Attribute) and name in LISTING_METHODS):
            found.append((node.lineno, f"{path.name}:{node.lineno} calls {name}"))
    return [text for _, text in sorted(found)]


def test_only_storage_lists_directories():
    modules = [path for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "storage.py"]
    assert len(modules) > 5
    assert [call for path in modules for call in directory_listings(path)] == []


def test_listing_checker_sees_every_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import glob, os\n"
        "def walk(path):\n"
        "    os.listdir(path)\n"
        "    with os.scandir(path) as entries:\n"
        "        list(entries)\n"
        "    for _ in os.walk(path):\n"
        "        pass\n"
        "    list(path.iterdir())\n"
        "    sorted(path.glob('*.csv'))\n"
        "    sorted(path.rglob('*.json'))\n"
        "    glob.glob(str(path))\n"
        "def fine(path):\n"
        "    os.path.exists(path)\n"
        "    path.is_dir()\n"
        "    os.open(path, os.O_RDONLY)\n"
        "    return path.name.endswith('.csv')\n"
    )
    assert directory_listings(path) == [
        "probe.py:3 calls listdir",
        "probe.py:4 calls scandir",
        "probe.py:6 calls walk",
        "probe.py:8 calls iterdir",
        "probe.py:9 calls glob",
        "probe.py:10 calls rglob",
        "probe.py:11 calls glob",
    ]


NETWORK_MODULES = ("urllib.request", "urllib.error", "http.client")
NETWORK_CALLS = ("http_request", "_http_request")


def network_uses(path: Path) -> list[str]:
    """Every import in ``path`` of ``urllib.request``, ``urllib.error`` or
    ``http.client``, in any form, and every call of ``http_request`` or
    ``_http_request``, in line order."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not _internal(node):
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        else:
            continue
        found += [(node.lineno, f"{path.name}:{node.lineno} imports {name}")
                  for name in names if name in NETWORK_MODULES]
    found += [(node.lineno, f"{path.name}:{node.lineno} calls {name}")
              for node, name, _ in calls(path) if name in NETWORK_CALLS]
    return [text for _, text in sorted(found)]


def test_only_sources_goes_to_the_network():
    modules = [path for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "sources.py"]
    assert len(modules) > 5
    assert [use for path in modules for use in network_uses(path)] == []
    assert network_uses(PACKAGE_DIR / "sources.py")  # the checker sees its one way out


def test_network_checker_sees_every_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import urllib.request\n"
        "import http.client as hc\n"
        "from urllib.error import HTTPError\n"
        "from urllib import request, parse\n"
        "from http import client\n"
        "import json, urllib.parse\n"
        "from . import sources\n"
        "from .sources import LiveTransport\n"
        "def send(url, request_):\n"
        "    sources.http_request('GET', url)\n"
        "    http_request('GET', url)\n"
        "    sources._http_request(request_, 30.0)\n"
        "    return LiveTransport().send(request_), urllib.parse.urlencode({})\n"
    )
    assert network_uses(path) == [
        "probe.py:1 imports urllib.request",
        "probe.py:2 imports http.client",
        "probe.py:3 imports urllib.error",
        "probe.py:4 imports urllib.request",
        "probe.py:5 imports http.client",
        "probe.py:10 calls http_request",
        "probe.py:11 calls http_request",
        "probe.py:12 calls _http_request",
    ]
