"""Expression compilation.

AST expression nodes are compiled once per statement into Python closures
``row -> value`` (a row is a flat tuple of SQL values).  Column references
are resolved to positions through a :class:`Scope`; aggregate results and
group keys resolve through the synthetic :class:`PostAggRef` node the
planner substitutes in.

All operators implement SQL three-valued logic: comparisons with NULL
yield NULL, ``AND``/``OR`` follow Kleene logic, arithmetic with NULL
yields NULL.

Everything that does not depend on the row is decided here, once per
statement: which operator a comparison applies, whether one side is a
constant of a known class, whether a conjunct already yields a truth
value.  :meth:`ExpressionCompiler.compile_predicate` is the engine's one
"does this row pass" (DESIGN.md, "The row pipeline").
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import PlanError, TypeMismatchError
from repro.sql import ast
from repro.sql.types import SqlValue, compare, is_true, to_number
from repro.storage.btree import LeafFilter

Evaluator = Callable[[Sequence[SqlValue]], SqlValue]
#: what ``compile_predicate`` returns: truthy exactly when the row passes
Predicate = Callable[[Sequence[SqlValue]], bool]

#: comparison operator -> its SQL result indexed by what ``compare``
#: returned: ``[0]`` equal, ``[1]`` greater, ``[-1]`` less
_OUTCOMES = {
    "=": (1, 0, 0), "!=": (0, 1, 1),
    "<": (0, 0, 1), "<=": (1, 0, 1),
    ">": (0, 1, 0), ">=": (1, 1, 0),
}

#: the same comparison with its operands swapped (``5 < a`` is ``a > 5``)
_SWAPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: the function a snapshot run binds: a call reads the pin of the
#: cursor that runs the statement (RQL's Qq, paper Section 3)
CURRENT_SNAPSHOT = "current_snapshot"


@dataclass
class PostAggRef(ast.Expr):
    """Planner-internal: reference into the aggregated row."""

    position: int
    display: str = ""


class Scope:
    """Maps (qualifier, column) to row positions.

    ``bindings`` is an ordered list of (binding_name, column_name); the
    position of an entry is its index in the joined row tuple.
    """

    def __init__(self, bindings: List[Tuple[str, str]]) -> None:
        self.bindings = bindings
        self._by_qualified: Dict[Tuple[str, str], int] = {}
        self._by_name: Dict[str, List[int]] = {}
        for pos, (binding, column) in enumerate(bindings):
            self._by_qualified[(binding.lower(), column.lower())] = pos
            self._by_name.setdefault(column.lower(), []).append(pos)

    def resolve(self, ref: ast.ColumnRef) -> int:
        if ref.table is not None:
            key = (ref.table.lower(), ref.name.lower())
            if key not in self._by_qualified:
                raise PlanError(f"no such column: {ref.display()}")
            return self._by_qualified[key]
        positions = self._by_name.get(ref.name.lower(), [])
        if not positions:
            raise PlanError(f"no such column: {ref.name}")
        if len(positions) > 1:
            raise PlanError(f"ambiguous column name: {ref.name}")
        return positions[0]

    def try_resolve(self, ref: ast.ColumnRef) -> Optional[int]:
        try:
            return self.resolve(ref)
        except PlanError:
            return None

    def is_ambiguous(self, ref: ast.ColumnRef) -> bool:
        """True when an unqualified ref matches columns of two bindings."""
        return (ref.table is None
                and len(self._by_name.get(ref.name.lower(), [])) > 1)

    def positions_for_binding(self, binding: str) -> List[int]:
        lowered = binding.lower()
        return [pos for pos, (b, _) in enumerate(self.bindings)
                if b.lower() == lowered]

    def __len__(self) -> int:
        return len(self.bindings)


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Translate a SQL LIKE pattern (%, _) to a compiled regex."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.IGNORECASE | re.DOTALL)


class ExpressionCompiler:
    """Compiles AST expressions against a scope + function registry.

    ``pin`` is the snapshot id a ``current_snapshot()`` call reads: the
    parameter of a run's cursor.  Without one the call is an unknown
    function, as in any statement outside a run."""

    def __init__(self, scope: Scope,
                 functions: Optional[Dict[str, Callable[..., SqlValue]]] = None,
                 pin: Optional[int] = None) -> None:
        self.scope = scope
        self.functions = functions or {}
        self.pin = pin

    def compile(self, expr: ast.Expr) -> Evaluator:
        method = getattr(self, "_compile_" + type(expr).__name__.lower(),
                         None)
        if method is None:
            raise PlanError(
                f"unsupported expression node {type(expr).__name__}"
            )
        return method(expr)

    def compile_predicate(self, conjuncts: Sequence[ast.Expr]) -> Predicate:
        """The one "does this row pass": truthy exactly when every
        conjunct is true for the row (so never for a NULL one).

        Conjuncts are tried left to right and the first that is not
        true decides: a later conjunct (its UDF, its type error) is
        never reached for a row an earlier one rejects.  A node whose
        evaluator yields only NULL / 0 / 1 is used as it is (Python
        truthiness *is* ``is_true`` on those); any other node may yield
        an arbitrary value and goes through ``is_true``.
        """
        tests = []
        for expr in conjuncts:
            test = self.compile(expr)
            tests.append(test if _yields_truth_value(expr)
                         else _truth_of(test))
        if len(tests) == 1:
            return tests[0]

        def every_test(row: Sequence[SqlValue]) -> bool:
            for test in tests:
                if not test(row):
                    return False
            return True
        return every_test

    def compile_leaf_filter(self, conjuncts: Sequence[ast.Expr],
                            ) -> Tuple[Optional[LeafFilter], List[ast.Expr]]:
        """Split ``conjuncts`` into their longest prefix that is total
        and deterministic over SQL values — compiled to a *leaf-batch
        form*, ``entries -> passing rows`` over a leaf's ``(rowid, row)``
        entries — and the conjuncts after it, which stay per row.

        The batch form is :meth:`compile_predicate` of the prefix run
        over a whole leaf in one comprehension.  Being total (it raises
        for no SQL value) and deterministic (it calls nothing but
        ``compare``), it may run ahead of the rows a consumer asks for
        and its result may be kept with the leaf; a conjunct after the
        first one that is not (a UDF, arithmetic that can raise) is
        reached per row, for exactly the rows the prefix passed, so LIMIT
        still stops it early.  No prefix gives ``(None, conjuncts)``.
        """
        count = 0
        while count < len(conjuncts) and _is_batchable(conjuncts[count]):
            count += 1
        if not count:
            return None, list(conjuncts)
        passes = self.compile_predicate(conjuncts[:count])

        def leaf_filter(entries: list) -> list:
            return [row for _, row in entries if passes(row)]
        return leaf_filter, list(conjuncts[count:])

    # -- leaves -----------------------------------------------------------

    def _compile_literal(self, expr: ast.Literal) -> Evaluator:
        value = expr.value
        return lambda row: value

    def _compile_columnref(self, expr: ast.ColumnRef) -> Evaluator:
        position = self.scope.resolve(expr)
        return lambda row: row[position]

    def _compile_postaggref(self, expr: PostAggRef) -> Evaluator:
        position = expr.position
        return lambda row: row[position]

    # -- unary -----------------------------------------------------------

    def _compile_unaryop(self, expr: ast.UnaryOp) -> Evaluator:
        operand = self.compile(expr.operand)
        if expr.op == "NOT":
            def not_eval(row: Sequence[SqlValue]) -> SqlValue:
                value = operand(row)
                if value is None:
                    return None
                return 0 if is_true(value) else 1
            return not_eval
        if expr.op == "-":
            def neg_eval(row: Sequence[SqlValue]) -> SqlValue:
                value = to_number(operand(row))
                return None if value is None else -value
            return neg_eval
        if expr.op == "+":
            def pos_eval(row: Sequence[SqlValue]) -> SqlValue:
                return to_number(operand(row))
            return pos_eval
        raise PlanError(f"unknown unary operator {expr.op}")

    # -- binary -----------------------------------------------------------

    def _compile_binaryop(self, expr: ast.BinaryOp) -> Evaluator:
        op = expr.op
        if op == "AND":
            left, right = self.compile(expr.left), self.compile(expr.right)

            def and_eval(row: Sequence[SqlValue]) -> SqlValue:
                lv = left(row)
                if lv is not None and not is_true(lv):
                    return 0
                rv = right(row)
                if rv is not None and not is_true(rv):
                    return 0
                if lv is None or rv is None:
                    return None
                return 1
            return and_eval
        if op == "OR":
            left, right = self.compile(expr.left), self.compile(expr.right)

            def or_eval(row: Sequence[SqlValue]) -> SqlValue:
                lv = left(row)
                if lv is not None and is_true(lv):
                    return 1
                rv = right(row)
                if rv is not None and is_true(rv):
                    return 1
                if lv is None or rv is None:
                    return None
                return 0
            return or_eval
        if op in _OUTCOMES:
            return self._comparison(expr.left, op, expr.right)
        if op == "||":
            left, right = self.compile(expr.left), self.compile(expr.right)

            def concat_eval(row: Sequence[SqlValue]) -> SqlValue:
                lv, rv = left(row), right(row)
                if lv is None or rv is None:
                    return None
                return _to_text(lv) + _to_text(rv)
            return concat_eval
        if op in ("+", "-", "*", "/", "%"):
            return self._compile_arithmetic(expr)
        raise PlanError(f"unknown binary operator {op}")

    def _comparison(self, left: ast.Expr, op: str,
                    right: ast.Expr) -> Evaluator:
        """``left <op> right`` -> NULL / 0 / 1, the operator chosen here
        and not per row.  A column against a text or numeric literal
        (either side) reads the row itself and compares values of the
        literal's own class directly."""
        position = self._column_position(left)
        if position is not None and _is_typed_literal(right):
            return _column_vs_constant(position, op, right.value)
        position = self._column_position(right)
        if position is not None and _is_typed_literal(left):
            return _column_vs_constant(position, _SWAPPED[op], left.value)
        left_eval, right_eval = self.compile(left), self.compile(right)
        outcomes = _OUTCOMES[op]

        def cmp_eval(row: Sequence[SqlValue]) -> SqlValue:
            result = compare(left_eval(row), right_eval(row))
            return None if result is None else outcomes[result]
        return cmp_eval

    def _column_position(self, expr: ast.Expr) -> Optional[int]:
        if isinstance(expr, ast.ColumnRef):
            return self.scope.resolve(expr)
        if isinstance(expr, PostAggRef):
            return expr.position
        return None

    def _compile_arithmetic(self, expr: ast.BinaryOp) -> Evaluator:
        left, right = self.compile(expr.left), self.compile(expr.right)
        op = expr.op

        def arith_eval(row: Sequence[SqlValue]) -> SqlValue:
            lv, rv = to_number(left(row)), to_number(right(row))
            if lv is None or rv is None:
                return None
            if op == "+":
                return lv + rv
            if op == "-":
                return lv - rv
            if op == "*":
                return lv * rv
            if op == "/":
                if rv == 0:
                    return None  # SQLite yields NULL on divide-by-zero
                if isinstance(lv, int) and isinstance(rv, int):
                    # SQLite integer division truncates toward zero.
                    quotient = abs(lv) // abs(rv)
                    return quotient if (lv < 0) == (rv < 0) else -quotient
                return lv / rv
            if rv == 0:
                return None
            # The remainder takes the dividend's sign, so that
            # (a / b) * b + a % b = a beside the truncating division.
            remainder = abs(lv) % abs(rv)
            return -remainder if lv < 0 else remainder
        return arith_eval

    # -- predicates ------------------------------------------------------------

    def _compile_isnull(self, expr: ast.IsNull) -> Evaluator:
        operand = self.compile(expr.operand)
        negated = expr.negated

        def isnull_eval(row: Sequence[SqlValue]) -> SqlValue:
            is_null = operand(row) is None
            return 1 if (is_null != negated) else 0
        return isnull_eval

    def _compile_inlist(self, expr: ast.InList) -> Evaluator:
        operand = self.compile(expr.operand)
        items = [self.compile(item) for item in expr.items]
        negated = expr.negated

        def in_eval(row: Sequence[SqlValue]) -> SqlValue:
            value = operand(row)
            if value is None:
                return None
            saw_null = False
            for item in items:
                iv = item(row)
                if iv is None:
                    saw_null = True
                    continue
                if compare(value, iv) == 0:
                    return 0 if negated else 1
            if saw_null:
                return None
            return 1 if negated else 0
        return in_eval

    def _compile_between(self, expr: ast.Between) -> Evaluator:
        """``x BETWEEN lo AND hi`` is ``x >= lo AND x <= hi`` under
        Kleene AND (one FALSE bound decides, whatever the other is) with
        ``x`` evaluated once."""
        inside, outside = (0, 1) if expr.negated else (1, 0)
        if self._column_position(expr.operand) is not None:
            # Reading a column twice evaluates nothing twice: the bounds
            # compile like any other comparison (typed against literals).
            at_least = self._comparison(expr.operand, ">=", expr.low)
            at_most = self._comparison(expr.operand, "<=", expr.high)

            def column_between_eval(row: Sequence[SqlValue]) -> SqlValue:
                lower = at_least(row)
                if lower == 0:
                    return outside
                upper = at_most(row)
                if upper == 0:
                    return outside
                return None if lower is None or upper is None else inside
            return column_between_eval

        operand = self.compile(expr.operand)
        low, high = self.compile(expr.low), self.compile(expr.high)

        def between_eval(row: Sequence[SqlValue]) -> SqlValue:
            value = operand(row)
            lower = compare(value, low(row))
            if lower == -1:
                return outside
            upper = compare(value, high(row))
            if upper == 1:
                return outside
            return None if lower is None or upper is None else inside
        return between_eval

    def _compile_like(self, expr: ast.Like) -> Evaluator:
        operand = self.compile(expr.operand)
        pattern = self.compile(expr.pattern)
        negated = expr.negated
        cache: Dict[str, "re.Pattern[str]"] = {}

        def like_eval(row: Sequence[SqlValue]) -> SqlValue:
            value = operand(row)
            pat = pattern(row)
            if value is None or pat is None:
                return None
            text = _to_text(value)
            pat_text = _to_text(pat)
            regex = cache.get(pat_text)
            if regex is None:
                regex = like_to_regex(pat_text)
                cache[pat_text] = regex
            matched = regex.match(text) is not None
            return 1 if (matched != negated) else 0
        return like_eval

    # -- functions / CASE -----------------------------------------------------------

    def _compile_functioncall(self, expr: ast.FunctionCall) -> Evaluator:
        name = expr.name.lower()
        if name == CURRENT_SNAPSHOT and self.pin is not None:
            if expr.args or expr.star:
                raise PlanError(
                    f"{CURRENT_SNAPSHOT} must be called with no arguments")
            pin = self.pin
            return lambda row: pin
        fn = self.functions.get(name)
        if fn is None:
            if expr.is_aggregate_name():
                raise PlanError(
                    f"aggregate {expr.name}() used outside GROUP BY context"
                )
            raise PlanError(f"no such function: {expr.name}")
        args = [self.compile(a) for a in expr.args]

        def call_eval(row: Sequence[SqlValue]) -> SqlValue:
            return fn(*[a(row) for a in args])
        return call_eval

    def _compile_caseexpr(self, expr: ast.CaseExpr) -> Evaluator:
        operand = self.compile(expr.operand) if expr.operand else None
        branches = [(self.compile(c), self.compile(r))
                    for c, r in expr.branches]
        else_result = (self.compile(expr.else_result)
                       if expr.else_result else None)

        def case_eval(row: Sequence[SqlValue]) -> SqlValue:
            if operand is not None:
                target = operand(row)
                for condition, result in branches:
                    if compare(target, condition(row)) == 0:
                        return result(row)
            else:
                for condition, result in branches:
                    if is_true(condition(row)):
                        return result(row)
            return else_result(row) if else_result else None
        return case_eval


def _to_text(value: SqlValue) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bytes):
        raise TypeMismatchError("cannot use a blob as text")
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _yields_truth_value(expr: ast.Expr) -> bool:
    """True for the nodes whose evaluators return only NULL / 0 / 1."""
    if isinstance(expr, ast.BinaryOp):
        return expr.op in _OUTCOMES or expr.op in ("AND", "OR")
    if isinstance(expr, ast.UnaryOp):
        return expr.op == "NOT"
    return isinstance(expr, (ast.IsNull, ast.InList, ast.Between, ast.Like))


def _truth_of(evaluator: Evaluator) -> Predicate:
    return lambda row: is_true(evaluator(row))


def _is_batchable(expr: ast.Expr) -> bool:
    """True for the conjuncts whose evaluator is total and deterministic
    over SQL values: a column against a literal (either side), ``IS
    [NOT] NULL`` of a column, ``BETWEEN`` / ``IN`` of a column over
    literals, and ``AND`` / ``OR`` / ``NOT`` of these.  Each is
    ``compare`` (or its typed fast path) plus three-valued logic, which
    raises for no SQL value and calls nothing else."""
    if isinstance(expr, ast.BinaryOp):
        if expr.op in ("AND", "OR"):
            return _is_batchable(expr.left) and _is_batchable(expr.right)
        if expr.op not in _OUTCOMES:
            return False
        sides = (type(expr.left), type(expr.right))
        return sides in ((ast.ColumnRef, ast.Literal),
                         (ast.Literal, ast.ColumnRef))
    if isinstance(expr, ast.UnaryOp):
        return expr.op == "NOT" and _is_batchable(expr.operand)
    if isinstance(expr, ast.IsNull):
        return isinstance(expr.operand, ast.ColumnRef)
    if isinstance(expr, ast.Between):
        return isinstance(expr.operand, ast.ColumnRef) \
            and isinstance(expr.low, ast.Literal) \
            and isinstance(expr.high, ast.Literal)
    if isinstance(expr, ast.InList):
        return isinstance(expr.operand, ast.ColumnRef) \
            and all(isinstance(item, ast.Literal) for item in expr.items)
    return False


def _is_typed_literal(expr: ast.Expr) -> bool:
    """A literal the typed comparison takes: text or a number (NULL, a
    blob or a ``bool`` leave the comparison generic)."""
    return isinstance(expr, ast.Literal) \
        and type(expr.value) in (str, int, float)


def _column_vs_constant(position: int, op: str,
                        constant: SqlValue) -> Evaluator:
    """``row[position] <op> constant`` for a text or numeric constant.

    A value of exactly the constant's class is compared in place, in
    ``compare``'s own formulation (``<``, then ``>``, else equal, which
    is what makes NaN "equal" and keeps Python's exact int-vs-float
    order).  Every other value (NULL, another class, ``bool``, a blob,
    a subclass, a non-SQL object) takes ``compare``: the fast path is
    chosen by ``type(v) is``, never ``isinstance``, so it cannot accept
    what ``type_class`` would rank differently or reject.
    """
    equal, greater, less = outcomes = _OUTCOMES[op]
    same, also = (str, str) if type(constant) is str else (int, float)

    def typed_eval(row: Sequence[SqlValue]) -> SqlValue:
        value = row[position]
        kind = type(value)
        if kind is same or kind is also:
            return less if value < constant \
                else greater if value > constant else equal
        result = compare(value, constant)
        return None if result is None else outcomes[result]
    return typed_eval


# ---------------------------------------------------------------------------
# AST utilities shared with the planner
# ---------------------------------------------------------------------------

def _case_children(expr: ast.CaseExpr) -> List[ast.Expr]:
    children = [expr.operand] if expr.operand else []
    for condition, result in expr.branches:
        children += (condition, result)
    if expr.else_result:
        children.append(expr.else_result)
    return children


#: each compound node kind's children, in walk order
_CHILDREN = {
    ast.UnaryOp: lambda e: (e.operand,),
    ast.BinaryOp: lambda e: (e.left, e.right),
    ast.IsNull: lambda e: (e.operand,),
    ast.InList: lambda e: (e.operand, *e.items),
    ast.Between: lambda e: (e.operand, e.low, e.high),
    ast.Like: lambda e: (e.operand, e.pattern),
    ast.FunctionCall: lambda e: e.args,
    ast.CaseExpr: _case_children,
}


def walk(expr: ast.Expr):
    """Yield every node of an expression tree (pre-order)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        children = _CHILDREN.get(type(node))
        if children is not None:
            stack.extend(reversed(children(node)))


def is_current_snapshot(node: ast.Expr) -> bool:
    """True for a ``current_snapshot()`` call (a column or alias of that
    name is an ordinary identifier)."""
    return isinstance(node, ast.FunctionCall) \
        and node.name.lower() == CURRENT_SNAPSHOT


def reads_pin(expr: Optional[ast.Expr]) -> bool:
    """True if ``expr`` holds a ``current_snapshot()`` call."""
    return expr is not None and any(map(is_current_snapshot, walk(expr)))


def contains_aggregate(expr: ast.Expr) -> bool:
    return any(
        isinstance(node, ast.FunctionCall) and node.is_aggregate_name()
        for node in walk(expr)
    )


def conjuncts(expr: Optional[ast.Expr]) -> List[ast.Expr]:
    """Split a predicate into AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def flatten_from(source) -> Tuple[List[ast.TableRef], List[ast.Expr]]:
    """FROM tree -> (table refs in FROM order, ON conjuncts in join order)."""
    refs: List[ast.TableRef] = []
    on_conjuncts: List[ast.Expr] = []

    def visit(node) -> None:
        if node is None:
            return
        if isinstance(node, ast.TableRef):
            refs.append(node)
        elif isinstance(node, ast.Join):
            visit(node.left)
            visit(node.right)
            on_conjuncts.extend(conjuncts(node.condition))
        else:
            raise PlanError(f"unsupported FROM node {type(node).__name__}")

    visit(source)
    return refs, on_conjuncts


def is_constant(expr: ast.Expr) -> bool:
    return not any(isinstance(node, (ast.ColumnRef, PostAggRef))
                   for node in walk(expr))


@dataclass
class IndexableConjunct:
    """A conjunct of a shape a B-tree index can serve.

    ``shape`` is the comparison with the column on the left (a flipped
    ``5 < a`` reads ``>``), ``'between'`` or ``'in'``; ``constants`` are
    the column-free operand expressions: one, (low, high), or the IN
    items.
    """

    column: ast.ColumnRef
    shape: str
    constants: List[ast.Expr]


def classify_conjunct(pred: ast.Expr) -> Optional[IndexableConjunct]:
    """Recognize ``col = k``, ``col <op> k`` (either side), ``col BETWEEN
    k AND k`` and ``col IN (k, ...)``; anything else (LIKE, arithmetic on
    the column, two columns) is not index-shaped."""
    if isinstance(pred, ast.BinaryOp) and pred.op in _SWAPPED \
            and pred.op != "!=":  # which no B-tree range serves
        if isinstance(pred.left, ast.ColumnRef) and is_constant(pred.right):
            return IndexableConjunct(pred.left, pred.op, [pred.right])
        if isinstance(pred.right, ast.ColumnRef) and is_constant(pred.left):
            return IndexableConjunct(pred.right, _SWAPPED[pred.op],
                                     [pred.left])
        return None
    if isinstance(pred, ast.Between) and not pred.negated:
        if isinstance(pred.operand, ast.ColumnRef) \
                and is_constant(pred.low) and is_constant(pred.high):
            return IndexableConjunct(pred.operand, "between",
                                     [pred.low, pred.high])
        return None
    if isinstance(pred, ast.InList) and not pred.negated \
            and isinstance(pred.operand, ast.ColumnRef) \
            and all(is_constant(item) for item in pred.items):
        return IndexableConjunct(pred.operand, "in", list(pred.items))
    return None
