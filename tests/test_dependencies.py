"""The package imports only numpy and the standard library (pyproject.toml declares numpy alone),
its modules import one another without a cycle, every tolerance goes by chain.py's table
and its one rule, ``_check_tol``, every integer argument by poset.py's one rule, ``_count``,
zeta and Mobius products go through poset.py's one transform API, only absorption.py's
slice factors (and poset.py's certified zeta inverse) invert a matrix, only poset.py's dense
factors ask for the Mobius matrix, chainfile.py scans a kernel for its nonzeros only through
chain._nonzeros, chain.py's block solver is the one place that calls the symmetric
eigensolver, chain._symmetries is the one place that builds the candidate symmetries'
coordinate shift, absorption.py keeps the dual's transient block in P_star's indices,
deleting no state, and poset.py alone decides how a transform runs (whether it sweeps, how wide
its slabs are, in which memory order it copies its input) and calls the Poset constructor."""
import ast
import graphlib
import sys
from pathlib import Path

import pytest

import ssdual as sd

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ssdual").glob("*.py"))
ALLOWED = sys.stdlib_module_names | {"numpy"}


def absolute_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports anywhere in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


def relative_imports(source: str) -> set[str]:
    """Package modules named by the relative imports anywhere in ``source``, function bodies too."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:  # from . import a, b
                names.update(alias.name for alias in node.names)
            else:
                names.add(node.module.split(".")[0])
    return names


def find_cycle(graph: dict[str, set[str]]) -> list[str]:
    """A cycle of ``graph``, its first module repeated at the end, or [] if there is none."""
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        return exc.args[1]
    return []


def test_sources_found():
    assert "chain.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_numpy_and_the_standard_library(path):
    assert absolute_imports(path.read_text(encoding="utf-8")) <= ALLOWED


def test_a_stray_import_is_caught():
    source = "import numpy as np\nfrom . import chain\ndef f():\n    from scipy import sparse\n"
    assert absolute_imports(source) == {"numpy", "scipy"}
    assert not absolute_imports(source) <= ALLOWED


def test_package_import_graph_is_acyclic():
    graph = {path.stem: relative_imports(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert graph["cli"] >= {"absorption", "duality", "models"}
    assert find_cycle(graph) == []


def test_a_cycle_through_a_function_body_is_caught():
    a = "from .b import f\n"
    b = "def f():\n    from .a import g\n    from . import c\n"
    graph = {"a": relative_imports(a), "b": relative_imports(b), "c": set()}
    assert graph["b"] == {"a", "c"}
    assert sorted(find_cycle(graph)) == ["a", "a", "b"]


def defined_functions(source: str) -> dict[str, ast.FunctionDef]:
    """The functions defined at the top level of ``source``, by name."""
    return {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}


def own_calls(fn: ast.FunctionDef):
    """The calls in the body of ``fn``, not in the functions, lambdas or classes it defines."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            if isinstance(node, ast.Call):
                yield node
            stack.extend(ast.iter_child_nodes(node))


def unchecked_tolerances(source: str, public: set[str]) -> list[tuple[str, str]]:
    """(function, parameter) for each parameter named ``tol`` or ``*_tol`` of a function in
    ``public`` whose own body never calls ``_check_tol`` on it."""
    missing = []
    for name, fn in defined_functions(source).items():
        if name not in public:
            continue
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        checked = {
            call.args[0].id
            for call in own_calls(fn)
            if isinstance(call.func, ast.Name) and call.func.id == "_check_tol"
            and call.args and isinstance(call.args[0], ast.Name)
        }
        missing += [(name, a.arg) for a in args
                    if (a.arg == "tol" or a.arg.endswith("_tol")) and a.arg not in checked]
    return missing


def tolerance_names(source: str) -> set[str]:
    """Module-level names ending in ``_TOL`` that ``source`` assigns."""
    names = set()
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names.update(t.id for t in targets if isinstance(t, ast.Name) and t.id.endswith("_TOL"))
    return names


def test_the_tolerance_rule_is_defined_once_in_chain():
    where = [path.name for path in SOURCES
             if "_check_tol" in defined_functions(path.read_text(encoding="utf-8"))]
    assert where == ["chain.py"]


def definers(sources: dict[str, str], name: str) -> list[str]:
    """The files among ``sources`` (file name: text) that define ``name`` at their top level."""
    return [file for file, source in sources.items() if name in defined_functions(source)]


def test_the_integer_rule_is_defined_once_in_poset():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert definers(sources, "_count") == ["poset.py"]


def test_a_second_integer_rule_is_caught():
    sources = {
        "chain.py": "def _count(n, what):\n    return int(n)\n",
        "poset.py": "def _count(n, what, least=0):\n    return n\n",
        "models.py": "from .poset import _count\ndef f(n):\n    return _count(n, 'n')\n",
    }
    assert definers(sources, "_count") == ["chain.py", "poset.py"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_public_tolerance_is_checked(path):
    assert unchecked_tolerances(path.read_text(encoding="utf-8"), set(sd.__all__)) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_tolerances_are_named_only_in_the_table(path):
    names = tolerance_names(path.read_text(encoding="utf-8"))
    assert names == set() or path.name == "chain.py"


def test_the_tolerance_checks_catch_their_faults():
    source = (
        "ROW_TOL = 1e-10\n"
        "X_TOL: float = 1.0\n"
        "def f(x, *, group_tol=1e-9, tol=0.0):\n"
        "    _check_tol(tol)\n"
        "    def inner():\n"
        "        _check_tol(group_tol)\n"
        "def _private(tol):\n"
        "    pass\n"
    )
    missing = [("f", "group_tol"), ("_private", "tol")]
    assert unchecked_tolerances(source, {"f", "_private"}) == missing
    assert unchecked_tolerances(source, {"f"}) == [("f", "group_tol")]
    assert tolerance_names(source) == {"ROW_TOL", "X_TOL"}


# The axis sweeps behind poset._mobius_apply and poset._axis_apply; no other module may reach them.
SWEEP_INTERNALS = {"_axis_sweep", "_AXIS_STEPS"}


def names_used(source: str) -> set[str]:
    """Every name ``source`` reads, imports or takes as an attribute, function bodies too."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_poset_sweeps_axes(path):
    used = names_used(path.read_text(encoding="utf-8")) & SWEEP_INTERNALS
    assert used == set() or path.name == "poset.py"


def test_a_stray_sweep_is_caught():
    assert names_used("from .poset import _axis_sweep as sweep\n") & SWEEP_INTERNALS == {"_axis_sweep"}
    source = "from . import poset\ndef f(a):\n    return poset._AXIS_STEPS['zeta']\n"
    assert names_used(source) & SWEEP_INTERNALS == {"_AXIS_STEPS"}
    assert names_used("from .poset import _mobius_apply\n") & SWEEP_INTERNALS == set()


# The down-set row sums zeta.T @ (pi * P) of poset._down_sums: poset.py alone defines and runs
# them, and in duality.py the intertwining check and the dual's slab build are their readers.
DOWN_SUMS = {"_down_sums"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_intertwining_reads_the_down_set_sums(path):
    source = path.read_text(encoding="utf-8")
    used = names_used(source) & DOWN_SUMS
    assert used == set() or path.name in ("poset.py", "duality.py")
    if path.name == "duality.py":
        readers = definitions_with(source, lambda n: isinstance(n, ast.Name) and n.id in DOWN_SUMS)
        assert readers == {"build_dual", "intertwining_residuals"}


def test_a_stray_down_set_sum_is_caught():
    assert names_used("from .poset import _down_sums as rows\n") & DOWN_SUMS == {"_down_sums"}
    assert names_used("from . import poset\nrows = poset._down_sums\n") & DOWN_SUMS == {"_down_sums"}
    assert names_used("from .poset import _mobius_apply\n") & DOWN_SUMS == set()


# Explicit inverses: the block-Thomas factors of absorption's slices, and poset's certified
# inverse of an unshaped zeta.  The block sweep and its factors are named only in absorption.py.
INVERTERS = {("absorption.py", "_slice_factors"), ("poset.py", "_compute_mobius_pair")}
BLOCK_SWEEP = {"_block_sweep", "_slice_factors"}


def inverters(source: str) -> set[str]:
    """The top-level functions of ``source`` that name ``inv`` (``np.linalg.inv`` or an
    import of it), and ``<module>`` if a statement outside them does."""
    return {
        node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.parse(source).body
        if "inv" in names_used(ast.unparse(node))
    }


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_slice_factors_invert(path):
    source = path.read_text(encoding="utf-8")
    assert {(path.name, name) for name in inverters(source)} <= INVERTERS
    assert names_used(source) & BLOCK_SWEEP == set() or path.name == "absorption.py"


def test_a_stray_inverse_is_caught():
    assert inverters("import numpy as np\ndef f(a):\n    return np.linalg.inv(a)\n") == {"f"}
    assert inverters("from numpy.linalg import inv\n") == {"<module>"}
    assert inverters("import numpy as np\ndef f(a, b):\n    return np.linalg.solve(a, b)\n") == set()
    assert names_used("from .absorption import _block_sweep\n") & BLOCK_SWEEP == {"_block_sweep"}


# mu is materialised only where a dense product multiplies by it: poset._dense_factor alone calls
# mobius_pair, mobius_pair alone reads the pair a poset keeps, and no cumsum runs along an axis
# of a kernel (simulate_sst sums one row's nonzeros at a time).
def called_name(node: ast.AST) -> str | None:
    """The name a call node calls, ``f`` for ``f(...)`` and ``x.f(...)``; else None."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None))
    return None


def cumsum_along_an_axis(node: ast.AST) -> bool:
    """Whether ``node`` is a cumsum call given an axis: ``np.cumsum(a, 1)``, ``a.cumsum(1)`` or
    either with ``axis=``."""
    if called_name(node) != "cumsum":
        return False
    method = isinstance(node.func, ast.Attribute) and ast.unparse(node.func.value) not in ("np", "numpy")
    return any(kw.arg == "axis" for kw in node.keywords) or len(node.args) > (0 if method else 1)


def definitions_with(source: str, match) -> set[str]:
    """The top-level definitions of ``source`` holding a node that ``match`` accepts, and
    ``<module>`` if a statement outside them does."""
    return {
        node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.parse(source).body
        if any(match(n) for n in ast.walk(node))
    }


MU_RULES = {
    "calls mobius_pair": (lambda n: called_name(n) == "mobius_pair", {("poset.py", "_dense_factor")}),
    "reads Poset._mobius_pair": (
        lambda n: isinstance(n, ast.Attribute) and n.attr == "_mobius_pair", {("poset.py", "mobius_pair")}
    ),
    "cumsum along an axis": (cumsum_along_an_axis, set()),
}


@pytest.mark.parametrize("rule", MU_RULES)
def test_only_dense_products_hold_mu(rule):
    match, allowed = MU_RULES[rule]
    found = {(path.name, name) for path in SOURCES
             for name in definitions_with(path.read_text(encoding="utf-8"), match)}
    assert found == allowed


def test_a_stray_mu_is_caught():
    source = (
        "import numpy as np\n"
        "from .poset import mobius_pair\n"
        "def f(p):\n"
        "    return poset.mobius_pair(p).mobius, p._mobius_pair\n"
        "def g(P, v):\n"
        "    return np.cumsum(P, axis=1), P.cumsum(1), np.cumsum(P, 1), np.cumsum(v), v.cumsum()\n"
        "class C:\n"
        "    def h(self, p):\n"
        "        return mobius_pair(p)\n"
    )
    found = {rule: definitions_with(source, match) for rule, (match, _) in MU_RULES.items()}
    assert found == {"calls mobius_pair": {"f", "C"}, "reads Poset._mobius_pair": {"f"},
                     "cumsum along an axis": {"g"}}
    calls = {ast.unparse(n): cumsum_along_an_axis(n) for n in ast.walk(ast.parse(source))
             if called_name(n) == "cumsum"}
    assert calls == {"np.cumsum(P, axis=1)": True, "P.cumsum(1)": True, "np.cumsum(P, 1)": True,
                     "np.cumsum(v)": False, "v.cumsum()": False}


# A kernel scan in chainfile.py goes through chain._nonzeros, whose boolean mask is blocked:
# chainfile.py calls no nonzero search of its own.
SCANS = {"flatnonzero", "nonzero", "argwhere"}


def scans(source: str) -> set[str]:
    return definitions_with(source, lambda n: called_name(n) in SCANS)


def test_chainfile_scans_kernels_only_through_nonzeros():
    source = next(path for path in SOURCES if path.name == "chainfile.py").read_text(encoding="utf-8")
    assert scans(source) == set()
    assert "_nonzeros" in names_used(source)


def test_a_stray_scan_is_caught():
    source = (
        "import numpy as np\n"
        "def f(P):\n"
        "    return np.flatnonzero(P)\n"
        "def g(P):\n"
        "    return P.nonzero(), np.argwhere(P)\n"
        "def h(P):\n"
        "    return _nonzeros(P), np.count_nonzero(P)\n"
    )
    assert scans(source) == {"f", "g"}


# One eigensolver call site: the block solver behind spectrum_numeric, which every symmetry
# block (and the one block of a chain with no symmetry) goes through.
def eigensolver_calls(source: str) -> list[str]:
    """The top-level definition holding each ``eigvalsh`` call or name of ``source``, once per
    occurrence (``<module>`` outside them), so an import or alias counts too."""
    found = []
    for node in ast.parse(source).body:
        where = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        found += [where for n in ast.walk(node)
                  if called_name(n) == "eigvalsh" or (isinstance(n, ast.alias) and n.name == "eigvalsh")]
    return found


def test_one_eigensolver_call_site():
    found = [(path.name, where) for path in SOURCES
             for where in eigensolver_calls(path.read_text(encoding="utf-8"))]
    assert found == [("chain.py", "_eigvalsh_averaged")]


def test_a_second_eigensolver_is_caught():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import eigvalsh\n"
        "def f(a):\n"
        "    return np.linalg.eigvalsh(a), np.linalg.eigvals(a)\n"
        "def g(a, b):\n"
        "    return eigvalsh(a), np.linalg.eigvalsh(b)\n"
    )
    assert eigensolver_calls(source) == ["<module>", "f", "g", "g"]


# One site builds the candidate symmetries: chain._symmetries, whose coordinate shift both the
# numeric spectrum's blocks and the exact laws' lumping use.  A shift of coordinates is built
# by rolling or moving axes.
SHIFTS = {"roll", "rollaxis", "moveaxis"}


def shift_sites(source: str) -> set[str]:
    return definitions_with(source, lambda n: called_name(n) in SHIFTS)


def test_one_site_builds_the_coordinate_shift():
    found = {(path.name, name) for path in SOURCES
             for name in shift_sites(path.read_text(encoding="utf-8"))}
    assert found == {("chain.py", "_symmetries")}


def test_a_second_shift_is_caught():
    source = (
        "import numpy as np\n"
        "def f(d, w):\n"
        "    return np.roll(d, 1, axis=1) @ w\n"
        "def g(a):\n"
        "    return np.moveaxis(a, 0, -1), a.transpose()\n"
        "def h(a):\n"
        "    return np.rollaxis(a, 2)\n"
    )
    assert shift_sites(source) == {"f", "g", "h"}


def test_the_lumping_tolerance_sits_in_the_table():
    source = next(path for path in SOURCES if path.name == "chain.py").read_text(encoding="utf-8")
    assert "LUMP_TOL" in tolerance_names(source)


# The transient block keeps P_star's indices: absorption.py renumbers no state, so it calls no
# np.delete (nor a method of that name).
def deletions(source: str) -> set[str]:
    return definitions_with(source, lambda n: called_name(n) == "delete")


def test_absorption_deletes_no_state():
    source = next(path for path in SOURCES if path.name == "absorption.py").read_text(encoding="utf-8")
    assert deletions(source) == set()


def test_a_deleted_state_is_caught():
    source = (
        "import numpy as np\n"
        "def f(d, v):\n"
        "    return np.delete(v, d.absorbing_index)\n"
        "def g(v, a):\n"
        "    return v[np.arange(len(v)) != a]\n"
        "full = np.delete(np.arange(4), 3)\n"
    )
    assert deletions(source) == {"f", "<module>"}


# How a transform runs, whether a poset sweeps its axes and how wide a slab is, is decided in
# poset.py alone; other modules take their slabs from poset._pieces and _down_sums.
SLAB_RULE = {"_sweeps", "_slab", "_SLAB_ENTRIES", "_DENSE_MAX_STATES"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_poset_decides_how_a_transform_runs(path):
    used = names_used(path.read_text(encoding="utf-8")) & SLAB_RULE
    assert used == set() or path.name == "poset.py"


def test_a_stray_slab_rule_is_caught():
    assert names_used("from .poset import _slab, _sweeps as swept\n") & SLAB_RULE == {"_slab", "_sweeps"}
    source = "from . import poset\ndef f(p):\n    return poset._SLAB_ENTRIES // poset._DENSE_MAX_STATES\n"
    assert names_used(source) & SLAB_RULE == {"_SLAB_ENTRIES", "_DENSE_MAX_STATES"}
    assert names_used("from .poset import _down_sums, _mobius_apply\n") & SLAB_RULE == set()


# Every transform copies its input in the memory order its sweep runs in, so poset.py alone picks
# a memory order: no other module passes ``order=`` or ``copy=`` or reads a ``_CONTIGUOUS`` flag.
# (chain._store keeps a chain's arrays C-contiguous, through np.ascontiguousarray.)
def memory_orders(source: str) -> set[str]:
    """The ``order=`` and ``copy=`` keywords of ``source``'s calls, and its strings, names and
    attributes that name a ``_CONTIGUOUS`` flag in either case."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.keyword) and node.arg in ("order", "copy"):
            found.add(f"{node.arg}=")
        elif isinstance(node, ast.Constant) and "_CONTIGUOUS" in str(node.value):
            found.add(node.value)
    return found | {name for name in names_used(source) if "_contiguous" in name.lower()}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_poset_picks_a_memory_order(path):
    assert memory_orders(path.read_text(encoding="utf-8")) == set() or path.name == "poset.py"


def test_a_stray_memory_order_is_caught():
    source = (
        "import numpy as np\n"
        "def f(p, a, H):\n"
        "    b = np.array(a, order='F')\n"
        "    return _mobius_apply(p, np.divide(b, H, out=b), right='zeta.T', copy=False)\n"
        "def g(a):\n"
        "    return a.flags['F_CONTIGUOUS'] or a.flags.c_contiguous\n"
    )
    assert memory_orders(source) == {"order=", "copy=", "F_CONTIGUOUS", "c_contiguous"}
    assert memory_orders("import numpy as np\nb = np.array(a, dtype=float) / 2\n") == set()


# Only poset.py calls the Poset constructor: every other module gets its posets, sub-posets
# and shaped restrictions included, from poset.py's functions.
def poset_constructions(source: str) -> set[str]:
    return definitions_with(source, lambda n: called_name(n) == "Poset")


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_poset_builds_posets(path):
    assert poset_constructions(path.read_text(encoding="utf-8")) == set() or path.name == "poset.py"


def test_a_stray_poset_constructor_is_caught():
    source = (
        "from . import poset\n"
        "from .poset import Poset, _restricted\n"
        "def f(p, keep):\n"
        "    return Poset(p.labels, p.covers, None, keep, (2, 2))\n"
        "def g(p):\n"
        "    return poset.Poset(p.labels, [], p.leq, p.enumeration)\n"
        "def h(p, keep):\n"
        "    return _restricted(p, keep) if isinstance(p, Poset) else None\n"
    )
    assert poset_constructions(source) == {"f", "g"}


# The one rule for rounding debris: the bound, machine epsilon times the magnitude transform
# ``|left| @ a @ right``, is written in one function, duality._debris, which the dense report of
# _certify and the slab build of build_dual both call.  A module-level ``finfo(...).eps`` (the
# tolerance table's LUMP_TOL) is no bound.
def names_eps(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "eps" and called_name(node.value) == "finfo"


def leading_text(node: ast.AST) -> str:
    """The text a string literal, or an f-string up to its first field, starts with; else ''."""
    if isinstance(node, ast.JoinedStr):
        node = node.values[0] if node.values else None
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else ""


def magnitude_transform(node: ast.AST) -> bool:
    """Whether ``node`` calls a transform with a factor written ``|...|``, a literal or an f-string."""
    if called_name(node) not in ("_mobius_apply", "_axis_apply"):
        return False
    return any(leading_text(f).startswith("|") for f in [*node.args, *(kw.value for kw in node.keywords)])


def debris_bounds(source: str) -> set[str]:
    """The top-level functions of ``source`` that name ``finfo(...).eps`` or a magnitude transform."""
    return definitions_with(source, lambda n: names_eps(n) or magnitude_transform(n)) - {"<module>"}


def test_the_debris_bound_is_written_once():
    found = {(path.name, name) for path in SOURCES
             for name in debris_bounds(path.read_text(encoding="utf-8"))}
    assert found == {("duality.py", "_debris")}


def test_a_second_debris_bound_is_caught():
    source = (
        "import numpy as np\n"
        "EPS = np.finfo(float).eps\n"
        "def _debris(p, cols, left):\n"
        "    return _mobius_apply(p, cols, f'|{left}|') * (p.size * np.finfo(float).eps)\n"
        "def g(p, a):\n"
        "    return np.abs(a) * p.size * np.finfo(float).eps\n"
        "def h(p, a):\n"
        "    return _mobius_apply(p, a, right='|zeta.T|') + _mobius_apply(p, a, 'mobius')\n"
        "def k(p, a):\n"
        "    return _mobius_apply(p, a, left='mobius'), np.finfo(float).tiny\n"
    )
    assert debris_bounds(source) == {"_debris", "g", "h"}
