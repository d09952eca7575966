"""``import sg`` needs numpy only: scipy is imported inside the functions that
factor a matrix, multiply a sparse one or fold a quotient, so the commands
that do none of these never load it, and orjson inside the one JSON reader,
so only a process that reads a file loads it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import sg
from sg.game import INT32_MAX, _csr_table

SRC = Path(sg.__file__).resolve().parent


def import_time_modules(tree: ast.Module) -> list[str]:
    """The modules a source imports while it is itself imported: every
    ``import``/``from`` outside a function body, class bodies included."""
    found, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_no_module_of_sg_imports_scipy_when_imported():
    sources = sorted(SRC.glob("*.py"))
    assert {p.stem for p in sources} >= {"game", "exact", "cli"}
    for path in sources:
        modules = import_time_modules(ast.parse(path.read_text()))
        scipy = [m for m in modules if m == "scipy" or m.startswith("scipy.")]
        assert scipy == [], f"{path.name} imports {scipy} at import time"


def test_no_module_of_sg_imports_orjson_when_imported():
    # orjson loads at the first read_json, so the import probe of setup_s
    # pays neither its own import nor those of uuid and zoneinfo it pulls in
    for path in sorted(SRC.glob("*.py")):
        modules = import_time_modules(ast.parse(path.read_text()))
        assert "orjson" not in modules, f"{path.name} imports orjson at import time"


def test_the_guard_sees_a_module_level_import():
    tree = ast.parse("import numpy\nif True:\n    from scipy import linalg\n"
                     "class A:\n    import scipy.sparse\n"
                     "def f():\n    import scipy.sparse.linalg\n")
    assert sorted(import_time_modules(tree)) == ["numpy", "scipy", "scipy.sparse"]


RUN = """
import contextlib, io, json, sys
import numpy as np
import sg, sg.cli
from sg import exact, hard, qvi
from sg.game import load_game, save_game
from sg.generate import random_game
from sg.sampler import GenerativeModel

loaded, parsed = {}, {}
def mark(step):
    loaded[step] = "scipy" in sys.modules
    parsed[step] = "orjson" in sys.modules

mark("import")
save_game(random_game(6, 3, 0.9, seed=1), "game.json")
g = load_game("game.json")
assert g.layout.held_dense
mark("load_game")
qvi.solve(GenerativeModel(g, master_seed=2), epsilon=0.5, delta=0.1, both_players=True)
mark("qvi.solve")
exact.value_iteration(g, 1e-6)
mark("value_iteration")
exact.ratio_scan(g)
mark("ratio_scan")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [sg.cli.main(["solve", "--game", "game.json", "--method", "vi"]),
             sg.cli.main(["flux", "--game", "game.json"])]
    try:
        sg.cli.main(["--help"])
    except SystemExit as exit:
        codes.append(exit.code)
assert codes == [0, 0, 0], codes
mark("cli")
exact.evaluate(g, np.zeros(g.n_states, dtype=np.int64))
mark("evaluate")
_, report = hard.verify_si_path_hi2(400)
assert report.passed
print(json.dumps(parsed))
print(json.dumps(loaded))
"""


def run_fresh(tmp_path) -> list[str]:
    """The lines RUN prints in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", RUN], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_scipy_loads_at_the_first_factor_and_not_before(tmp_path):
    loaded = json.loads(run_fresh(tmp_path)[-1])
    assert loaded == {"import": False, "load_game": False, "qvi.solve": False,
                      "value_iteration": False, "ratio_scan": False, "cli": False,
                      "evaluate": True}


def test_orjson_loads_at_the_first_read_and_not_before(tmp_path):
    parsed = json.loads(run_fresh(tmp_path)[-2])
    assert parsed == {"import": False, "load_game": True, "qvi.solve": True,
                      "value_iteration": True, "ratio_scan": True, "cli": True,
                      "evaluate": True}


@st.composite
def row_tables(draw):
    """Rows of a table as (data, indices, indptr, shape): repeated targets,
    zero and negative entries and empty rows included."""
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    lengths = draw(st.lists(st.integers(0, 2 * n_cols), min_size=n_rows, max_size=n_rows))
    nnz = sum(lengths)
    cols = draw(st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz))
    data = draw(st.lists(st.sampled_from([0.0, -0.0, 0.1, 1 / 3, 0.7]) | st.floats(-1, 1),
                         min_size=nnz, max_size=nnz))
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return (np.array(data, dtype=np.float64), np.array(cols, dtype=np.int64), indptr,
            (n_rows, n_cols))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(row_tables())
def test_a_table_reads_as_scipy_reads_its_arrays(table):
    data, indices, indptr, shape = table
    got = _csr_table(data, indices, indptr, shape)
    want = sp.csr_matrix((data, indices, indptr), shape=shape)
    assert got.shape == want.shape and got.nnz == want.nnz
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b) and not a.flags.writeable
    dense, dense_want = got.toarray(), want.toarray()
    assert dense.dtype == dense_want.dtype and dense.tobytes() == dense_want.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 40), st.integers(1, 2 ** 40), st.integers(0, 2 ** 40))
def test_a_table_indexes_in_int32_exactly_when_scipy_does(n_rows, n_cols, nnz):
    # the shape (unless it is empty) and the entry count decide, as they
    # decide scipy's choice for the same arrays in its CSR constructor; only
    # the row pointers' ends are built, not the table
    indices, indptr = np.zeros(min(nnz, 1), dtype=np.int64), np.array([0, nnz])
    got = _csr_table(np.zeros(indices.size), indices, indptr, (n_rows, n_cols))
    shape = None if n_rows == 0 else max(n_rows, n_cols)
    want = sp.get_index_dtype((indices, indptr), maxval=shape, check_contents=True)
    assert got.indices.dtype == got.indptr.dtype == want
    assert (want == np.int32) == (max(shape or 0, nnz) <= INT32_MAX)
