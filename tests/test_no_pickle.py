"""No module under ``src/`` can unpickle.

Unpickling runs arbitrary code, so bytes from a peer or a file must
never reach it: the wire is a closed tag vocabulary (``repro.api.wire``)
and every artifact is ``.npz``/json. The law reads the source, so it
holds for code no test calls: no module imports a pickle library and no
call passes ``allow_pickle`` other than ``False``.
"""

import ast
import pathlib
import textwrap

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

PICKLERS = {"pickle", "_pickle", "cPickle", "cloudpickle", "dill", "shelve"}


def pickle_sites(path, root=SRC):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.keyword) and node.arg == "allow_pickle":
            if not (isinstance(node.value, ast.Constant)
                    and node.value.value is False):
                yield f"{path.relative_to(root)}:{node.value.lineno} allow_pickle"
            continue
        else:
            continue
        for name in names:
            if name.split(".")[0] in PICKLERS:
                yield f"{path.relative_to(root)}:{node.lineno} import {name}"


def sites_in(tmp_path, source):
    module = tmp_path / "module.py"
    module.write_text(textwrap.dedent(source), encoding="utf-8")
    return list(pickle_sites(module, root=tmp_path))


def test_no_module_imports_pickle_or_allows_it_in_np_load():
    # Every module is read: a transport or a "fallback" helper is no
    # exempt boundary.
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50  # the whole tree was read
    assert [site for path in modules for site in pickle_sites(path)] == []


def test_law_flags_a_pickle_import_and_passes_json(tmp_path):
    assert sites_in(tmp_path, """
        import pickle

        def thaw(blob):
            return pickle.loads(blob)
    """) == ["module.py:2 import pickle"]
    assert sites_in(tmp_path, """
        from _pickle import loads
    """) == ["module.py:2 import _pickle"]
    assert sites_in(tmp_path, """
        import json

        def thaw(blob):
            return json.loads(blob)
    """) == []


def test_law_flags_allow_pickle_in_np_load(tmp_path):
    assert sites_in(tmp_path, """
        import numpy as np

        def thaw(path, trusted):
            return np.load(path, allow_pickle=True), np.load(path, allow_pickle=trusted)
    """) == ["module.py:5 allow_pickle", "module.py:5 allow_pickle"]
    assert sites_in(tmp_path, """
        import numpy as np

        def thaw(path):
            return np.load(path, allow_pickle=False)
    """) == []
