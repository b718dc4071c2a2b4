"""The package surface: every exported name resolves, the analysis layers
load on first use, a name that moved is one object in both places, no
module checks with ``assert``, no code dispatches on the kind of a
conclusion, no fact takes ``cached_property``'s lock, ``solvers``
defines no generator function and no function in ``formula`` takes a
branch tag."""

import ast
import json
from pathlib import Path

import lexdom
from lexdom import formula

from fresh import run_fresh

#: Run in a fresh process, so that no analysis layer is loaded before the
#: first check; prints one JSON object of facts.
SURFACE = """
import json, sys
import lexdom
facts = {}
try:
    lexdom.no_such_name
except AttributeError:
    facts["missing_raises"] = True
facts["layers_after_missing"] = sorted(
    m for m in ("lexdom.structure", "lexdom.formula", "lexdom.verify") if m in sys.modules)
facts["not_in_dir"] = sorted(set(lexdom.__all__) - set(dir(lexdom)))
star = {}
exec("from lexdom import *", star)
facts["not_bound_by_star"] = sorted(set(lexdom.__all__) - set(star))
facts["bound_elsewhere"] = sorted(n for n in lexdom.__all__ if star[n] is not getattr(lexdom, n))
from lexdom import formula, product, solvers, verify
facts["one_object"] = [
    formula.TheoremId is verify.TheoremId is lexdom.TheoremId is solvers.TheoremId,
    formula.PREDICT_KINDS is solvers.PREDICT_KINDS,
    verify.DEFAULT_PRODUCT_CAP is product.DEFAULT_PRODUCT_CAP,
]
print(json.dumps(facts))
"""


def test_surface():
    facts = json.loads(run_fresh(SURFACE))
    assert facts == {
        "missing_raises": True,
        "layers_after_missing": [],
        "not_in_dir": [],
        "not_bound_by_star": [],
        "bound_elsewhere": [],
        "one_object": [True, True, True],
    }


def _package_nodes():
    for path in sorted(Path(lexdom.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def test_no_assert_statement():
    # ``python -O`` strips asserts, so a runtime cross-check must raise
    # InconsistencyError instead
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def _names(node) -> set[str]:
    """The names a class argument of ``isinstance`` reads: ``X``, ``m.X``
    or a tuple of them."""
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def test_no_dispatch_on_conclusion_kind():
    # each kind of conclusion owns its rules, so no code tests which kind
    # it holds; and the facts of PairFacts are stored without the lock
    # that cached_property takes on every first read
    kinds = {name for name, cls in vars(formula).items()
             if isinstance(cls, type) and issubclass(cls, formula.Conclusion)}
    assert {"Conclusion", "Exact", "Lower", "Upper", "Iff", "Custom"} <= kinds
    found = []
    for name, node in _package_nodes():
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2
                and _names(node.args[1]) & kinds):
            found.append(f"{name}:{node.lineno} {node.func.id}")
        if (isinstance(node, ast.alias) and node.name == "cached_property"
                or isinstance(node, ast.Attribute) and node.attr == "cached_property"):
            found.append(f"{name}:{node.lineno} cached_property")
    assert found == []


def test_solvers_define_no_generator():
    # the set walks hand each set and their counters to a visitor: a
    # generator would pay a frame per level for every set it passes on
    path = Path(lexdom.__file__).parent / "solvers.py"
    found = [f"solvers.py:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Yield, ast.YieldFrom))]
    assert found == []


def test_formula_takes_no_branch_tag():
    # a conclusion's case function names the builder of its case, so no
    # builder decides the case again from the branch tag
    path = Path(lexdom.__file__).parent / "formula.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                     args.vararg, args.kwarg) if a is not None]
            if "branch" in names:
                found.append(f"formula.py:{node.lineno}")
    assert found == []
