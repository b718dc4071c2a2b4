"""The package surface: every exported name resolves, the analysis layers
load on first use, a name that moved is one object in both places, and
no module checks with ``assert``."""

import ast
import json
from pathlib import Path

import lexdom

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


def test_no_assert_statement():
    # ``python -O`` strips asserts, so a runtime cross-check must raise
    # InconsistencyError instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(lexdom.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
