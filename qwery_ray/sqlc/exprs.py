"""Expression evaluation: AST → vectorized pyarrow.compute kernels.

The reference evaluates expressions per-row against a Scope
(core/ops/Expression.scala:14-85); here the same expression tree is evaluated
once per Arrow batch with pyarrow.compute, so per-row Python never runs in the
hot path. Scalar-function semantics follow SURVEY.md §2.2 (reference
core/ops/builtins/*); divergences: ``<=`` is correct (reference bug
Condition.scala:45), divide-by-zero → NULL (reference Divide.scala parity).
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import ast as A

_ARROW_TYPES = {
    "BOOLEAN": pa.bool_(),
    "BYTE": pa.int8(),
    "SHORT": pa.int16(),
    "INT": pa.int32(),
    "INTEGER": pa.int32(),
    "LONG": pa.int64(),
    "BIGINT": pa.int64(),
    "FLOAT": pa.float32(),
    "DOUBLE": pa.float64(),
    "DECIMAL": pa.float64(),
    "STRING": pa.string(),
    "VARCHAR": pa.string(),
    "UUID": pa.string(),
    "DATE": pa.date32(),
    "TIMESTAMP": pa.timestamp("us"),
}


class EvalError(ValueError):
    pass


def _as_array(val, length: int):
    """Broadcast a python scalar to a pa array when a kernel needs one."""
    if isinstance(val, (pa.Array, pa.ChunkedArray)):
        return val
    return pa.array([val] * length)


def _is_scalar(val) -> bool:
    return not isinstance(val, (pa.Array, pa.ChunkedArray))


def _if_else_any(mask, value, acc):
    """pc.if_else, with a take-based fallback for nested (list/struct)
    types the kernel doesn't implement: concat both sides, gather row i
    from side A or B by index — same null semantics, one extra copy."""
    try:
        return pc.if_else(mask, value, acc)
    except (pa.lib.ArrowNotImplementedError, pa.lib.ArrowTypeError):
        import numpy as np

        if isinstance(mask, pa.ChunkedArray):
            mask = mask.combine_chunks()
        n = len(mask)

        def as_arr(v, like_type):
            if isinstance(v, pa.ChunkedArray):
                return v.combine_chunks()
            if isinstance(v, pa.Array):
                return v
            py = v.as_py() if isinstance(v, pa.Scalar) else v
            t = v.type if isinstance(v, pa.Scalar) else like_type
            return pa.array([py] * n, type=t)

        def null_ish(t):  # a type that carries no value information
            return pa.types.is_null(t) or (
                (pa.types.is_list(t) or pa.types.is_large_list(t))
                and pa.types.is_null(t.value_type))

        va = as_arr(value, getattr(acc, "type", None))
        aa = as_arr(acc, va.type)
        if aa.type != va.type:
            # unify toward whichever side carries real value types
            tgt = aa.type if null_ish(va.type) else va.type
            va = va.cast(tgt)
            aa = aa.cast(tgt)
        m = pc.fill_null(mask, False).to_numpy(zero_copy_only=False)
        idx = np.where(m, np.arange(n), np.arange(n) + n)
        return pa.concat_arrays([va, aa]).take(
            pa.array(idx, type=pa.int64()))


def _add_interval(val, iv: "A.IntervalLit", sign: int):
    """temporal + INTERVAL: calendar-correct month shifts (Jan 31 + 1 MONTH
    = Feb 28/29, matching DuckDB/ANSI) and exact second offsets."""
    import calendar
    import datetime as _dt

    months = sign * iv.months
    secs = sign * iv.seconds
    if _is_scalar(val):
        if val is None:
            return None
        if isinstance(val, _dt.date) and not isinstance(val, _dt.datetime):
            val = _dt.datetime(val.year, val.month, val.day)
        if months:
            y = val.year + (val.month - 1 + months) // 12
            mo = (val.month - 1 + months) % 12 + 1
            day = min(val.day, calendar.monthrange(y, mo)[1])
            val = val.replace(year=y, month=mo, day=day)
        if secs:
            val = val + _dt.timedelta(seconds=secs)
        return val
    arr = val
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_date(arr.type):
        arr = pc.cast(arr, pa.timestamp("us"))
    if not pa.types.is_timestamp(arr.type):
        raise EvalError(
            f"INTERVAL arithmetic needs a timestamp/date operand, "
            f"got {arr.type}")
    if months:
        import pandas as pd

        s = pd.Series(arr.to_pandas()) + pd.DateOffset(months=months)
        arr = pa.Array.from_pandas(s).cast(arr.type)
    if secs:
        arr = pc.add(arr, pa.scalar(int(round(secs * 1e6)),
                                    pa.duration("us")))
    return arr


def _to_float(val):
    if _is_scalar(val):
        return None if val is None else float(val)
    if pa.types.is_floating(val.type):
        return val
    return pc.cast(val, pa.float64())


def as_text(v):
    """Arrow's cast to string, with floats keeping a trailing '.0' as in
    DuckDB (1.0 → '1.0', not '1')."""
    s = pc.cast(v, pa.string())
    if pa.types.is_floating(v.type):
        s = pc.if_else(pc.match_substring_regex(s, r"^-?\d+$"),
                       pc.binary_join_element_wise(s, ".0", ""), s)
    return s


def try_cast(arr, target: pa.DataType):
    """Lenient cast: invalid values → NULL (reference Cast.scala:25 semantics).

    Fast path is a plain Arrow cast; only on failure do we fall back to a
    per-type coercion (still vectorized via pandas/numpy). Floats cast to
    text as DuckDB writes them (``as_text``).
    """
    if _is_scalar(arr):
        if arr is None:
            return None
        if isinstance(arr, float) and pa.types.is_string(target):
            return as_text(pa.array([arr]))[0].as_py()
        try:
            return pa.scalar(arr).cast(target).as_py()
        except (pa.ArrowInvalid, pa.ArrowTypeError, pa.ArrowNotImplementedError,
                ValueError, OverflowError):
            pass
        try:  # lenient string→number/date parse via a 1-element array
            return try_cast(pa.array([arr]), target)[0].as_py()
        except (pa.ArrowInvalid, pa.ArrowTypeError, ValueError, OverflowError):
            return None
    if pa.types.is_string(target) and pa.types.is_floating(arr.type):
        return as_text(arr)
    try:
        return pc.cast(arr, target)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
        pass
    import pandas as pd

    ser = arr.to_pandas()
    if pa.types.is_floating(target) or pa.types.is_integer(target):
        num = pd.to_numeric(ser, errors="coerce")
        out = pa.array(num, type=pa.float64())
        if pa.types.is_integer(target):
            # truncate then cast; non-integral floats keep trunc semantics
            out = pc.cast(pc.trunc(out), target, safe=False)
        else:
            out = pc.cast(out, target)
        return out
    if pa.types.is_boolean(target):
        low = ser.astype(str).str.strip().str.lower()
        vals = low.map({"true": True, "t": True, "1": True, "yes": True,
                        "false": False, "f": False, "0": False, "no": False})
        vals[ser.isna()] = None
        return pa.array(vals, type=pa.bool_())
    if pa.types.is_timestamp(target) or pa.types.is_date(target):
        ts = pd.to_datetime(ser, errors="coerce", utc=False)
        out = pa.Array.from_pandas(ts)
        return pc.cast(out, target, safe=False)
    if pa.types.is_string(target):
        return pc.cast(arr, pa.string(), safe=False)
    raise EvalError(f"cannot cast {arr.type} to {target}")


def _java_to_strptime(fmt: str) -> str:
    """SimpleDateFormat pattern → C strftime (DATE_FORMAT/DATE_PARSE,
    reference DateFormat.scala/DateParse.scala use Java patterns)."""
    out, i = [], 0
    mapping = [
        ("yyyy", "%Y"), ("yy", "%y"), ("MM", "%m"), ("dd", "%d"),
        ("HH", "%H"), ("hh", "%I"), ("mm", "%M"), ("ss", "%S"),
        ("SSS", "%f"), ("a", "%p"), ("EEE", "%a"), ("MMM", "%b"),
    ]
    while i < len(fmt):
        for pat, rep in mapping:
            if fmt.startswith(pat, i):
                out.append(rep)
                i += len(pat)
                break
        else:
            out.append(fmt[i])
            i += 1
    return "".join(out)


class Evaluator:
    """Evaluates an Expr against one pyarrow.Table batch.

    ``variables``: session @vars (driver-side scalars).
    ``udfs``: registered scalar functions name → (callable, vectorized).
    Column lookup is case-insensitive (reference Row.scala:21) and understands
    alias-qualified references against `alias.col`-named physical columns
    (reference JoinField resolution, core/ops/Field.scala:87-96).
    """

    def __init__(self, variables: dict | None = None,
                 udfs: dict[str, tuple[Callable, bool]] | None = None,
                 now: Any = None):
        self.variables = variables or {}
        self.udfs = udfs or {}
        self.now = now  # driver-stamped constant for NOW() (determinism)

    # ------------------------------------------------------------ resolve
    def resolve_column(self, batch: pa.Table, ref: A.ColumnRef):
        names = batch.column_names
        lower = {n.lower(): n for n in names}
        if ref.table_alias:
            q = f"{ref.table_alias}.{ref.name}".lower()
            if q in lower:
                return batch.column(lower[q])
            if ref.name.lower() in lower:
                return batch.column(lower[ref.name.lower()])
            raise EvalError(f"unknown column {ref.table_alias}.{ref.name}")
        if ref.name.lower() in lower:
            return batch.column(lower[ref.name.lower()])
        # unqualified name may match a qualified physical column
        suffix = "." + ref.name.lower()
        hits = [n for n in names if n.lower().endswith(suffix)]
        if len(hits) == 1:
            return batch.column(hits[0])
        if len(hits) > 1:
            raise EvalError(f"ambiguous column {ref.name}")
        raise EvalError(f"unknown column {ref.name} (have {names})")

    # --------------------------------------------------------------- eval
    def eval(self, expr: A.Expr, batch: pa.Table):
        """Returns a pa.Array/ChunkedArray of len(batch) or a python scalar."""
        m = getattr(self, f"_eval_{type(expr).__name__}", None)
        if m is None:
            raise EvalError(f"cannot evaluate {type(expr).__name__}")
        return m(expr, batch)

    def eval_mask(self, cond: A.Cond, batch: pa.Table) -> pa.ChunkedArray:
        """Boolean filter mask; SQL semantics — NULL comparisons are not true."""
        out = self.eval(cond, batch)
        if _is_scalar(out):
            out = pa.array([bool(out)] * len(batch))
        if not pa.types.is_boolean(out.type):
            out = pc.cast(out, pa.bool_())
        return pc.fill_null(out, False)

    # literals / refs ----------------------------------------------------
    def _eval_Literal(self, e: A.Literal, batch):
        return e.value

    def _eval_ColumnRef(self, e: A.ColumnRef, batch):
        return self.resolve_column(batch, e)

    def _eval_IntervalLit(self, e: A.IntervalLit, batch):
        raise EvalError(
            "INTERVAL literals are only valid in +/- arithmetic with a "
            "timestamp/date expression")

    def _eval_VarRef(self, e: A.VarRef, batch):
        if e.name not in self.variables:
            raise EvalError(f"undeclared variable @{e.name}")
        return self.variables[e.name]

    # operators ----------------------------------------------------------
    def _eval_UnaryOp(self, e: A.UnaryOp, batch):
        val = self.eval(e.operand, batch)
        if e.op == "-":
            return -val if _is_scalar(val) and val is not None else pc.negate(val)
        return val

    def _eval_BinaryOp(self, e: A.BinaryOp, batch):
        # temporal ± INTERVAL (calendar months via pandas DateOffset,
        # fixed seconds via an arrow duration scalar)
        if isinstance(e.right, A.IntervalLit) and e.op in ("+", "-"):
            return _add_interval(self.eval(e.left, batch), e.right,
                                 -1 if e.op == "-" else 1)
        if isinstance(e.left, A.IntervalLit) and e.op == "+":
            return _add_interval(self.eval(e.right, batch), e.left, 1)
        left = self.eval(e.left, batch)
        right = self.eval(e.right, batch)
        op = e.op
        if op == "||":
            return self._concat(left, right, len(batch))
        if _is_scalar(left) and _is_scalar(right):
            return self._scalar_arith(op, left, right)
        if op == "+":
            return pc.add(left, right)
        if op == "-":
            return pc.subtract(left, right)
        if op == "*":
            return pc.multiply(left, right)
        if op == "/":
            lf, rf = _to_float(left), _to_float(right)
            # divide-by-zero → NULL (reference Divide.scala returns None)
            if _is_scalar(rf):
                if rf in (0, 0.0, None):
                    return None
                return pc.divide(lf, rf)
            rf = pc.if_else(pc.equal(rf, 0.0), pa.scalar(None, pa.float64()), rf)
            return pc.divide(lf, rf)
        if op == "%":
            lf = _as_array(left, len(batch)) if _is_scalar(left) else left
            rf = _as_array(right, len(batch)) if _is_scalar(right) else right
            int_inputs = pa.types.is_integer(lf.type) and pa.types.is_integer(rf.type)
            a = np.asarray(pc.cast(lf, pa.float64()), dtype=float)
            b = np.asarray(pc.cast(rf, pa.float64()), dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.fmod(a, b)  # C-style sign semantics, like DuckDB %
            res = pa.array(out, type=pa.float64())
            res = pc.if_else(pc.equal(rf, 0), pa.scalar(None, pa.float64()), res)
            if int_inputs:
                res = pc.cast(res, pa.int64(), safe=False)
            return res
        if op == "**":
            return pc.power(_to_float(left), _to_float(right))
        raise EvalError(f"unknown operator {op}")

    @staticmethod
    def _scalar_arith(op, a, b):
        if a is None or b is None:
            return None
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return None if b == 0 else a / b
        if op == "%":
            return None if b == 0 else math.fmod(a, b)
        if op == "**":
            return a ** b
        raise EvalError(f"unknown operator {op}")

    def _concat(self, left, right, length):
        def prep(v):
            if _is_scalar(v):
                return None if v is None else str(v)
            if not pa.types.is_string(v.type) and not pa.types.is_large_string(v.type):
                return pc.cast(v, pa.string())
            return v
        left, right = prep(left), prep(right)
        if _is_scalar(left) and _is_scalar(right):
            return None if left is None or right is None else left + right
        left = _as_array(left, length) if _is_scalar(left) else left
        right = _as_array(right, length) if _is_scalar(right) else right
        return pc.binary_join_element_wise(left, right, "", null_handling="emit_null")

    # conditions ---------------------------------------------------------
    def _eval_Comparison(self, e: A.Comparison, batch):
        left = self.eval(e.left, batch)
        right = self.eval(e.right, batch)
        if _is_scalar(left) and _is_scalar(right):
            if left is None or right is None:
                return None
            return {
                "=": left == right, "!=": left != right,
                ">": left > right, ">=": left >= right,
                "<": left < right, "<=": left <= right,
            }[e.op]
        left, right = self._align_compare(left, right, len(batch))
        fn = {"=": pc.equal, "!=": pc.not_equal, ">": pc.greater,
              ">=": pc.greater_equal, "<": pc.less, "<=": pc.less_equal}[e.op]
        return fn(left, right)

    @staticmethod
    def _align_compare(left, right, length):
        """Coerce comparable types: string vs number → cast array side."""
        def typ(v):
            return v.type if not _is_scalar(v) else None
        lt, rt = typ(left), typ(right)
        if lt is not None and pa.types.is_string(lt) and _is_scalar(right) and isinstance(right, (int, float)) and not isinstance(right, bool):
            left = try_cast(left, pa.float64())
        elif rt is not None and pa.types.is_string(rt) and _is_scalar(left) and isinstance(left, (int, float)) and not isinstance(left, bool):
            right = try_cast(right, pa.float64())
        elif lt is not None and rt is not None:
            if pa.types.is_string(lt) != pa.types.is_string(rt):
                if pa.types.is_string(lt):
                    left = try_cast(left, rt)
                else:
                    right = try_cast(right, lt)
        return left, right

    def _eval_IsDistinctFrom(self, e: "A.IsDistinctFrom", batch):
        """Null-safe (in)equality: never NULL; NULLs equal each other."""
        left = self.eval(e.left, batch)
        right = self.eval(e.right, batch)
        if _is_scalar(left) and _is_scalar(right):
            same = (left is None and right is None) or \
                (left is not None and right is not None and left == right)
            return same != e.distinct
        left, right = self._align_compare(left, right, len(batch))
        if _is_scalar(left) or _is_scalar(right):
            scal, arr = (left, right) if _is_scalar(left) else (right, left)
            if scal is None:
                same = pc.is_null(arr)
            else:
                same = pc.fill_null(pc.equal(arr, scal), False)
        else:
            eq = pc.fill_null(pc.equal(left, right), False)
            both_null = pc.and_(pc.is_null(left), pc.is_null(right))
            same = pc.or_(eq, both_null)
        return pc.invert(same) if e.distinct else same

    def _eval_Like(self, e: A.Like, batch):
        val = self.eval(e.operand, batch)
        pattern = self.eval(e.pattern, batch)
        if not isinstance(pattern, str):
            raise EvalError("LIKE pattern must be a string literal")
        val = _as_array(val, len(batch)) if _is_scalar(val) else val
        ic = getattr(e, "case_insensitive", False)
        esc = getattr(e, "escape", None)
        if esc is None:
            out = pc.match_like(val, pattern, ignore_case=ic)
        else:
            # LIKE … ESCAPE: translate to an anchored regex; the escape
            # char makes the NEXT char literal (incl. % and _)
            out = pc.match_substring_regex(
                val, _like_to_regex(pattern, esc), ignore_case=ic)
        return pc.invert(out) if e.negated else out

    def _eval_Matches(self, e: A.Matches, batch):
        val = self.eval(e.operand, batch)
        pattern = self.eval(e.pattern, batch)
        val = _as_array(val, len(batch)) if _is_scalar(val) else val
        if getattr(e, "anchored", False):  # SIMILAR TO: whole-string match
            pattern = f"^(?:{pattern})$"
        return pc.match_substring_regex(val, pattern)

    def _eval_IsNull(self, e: A.IsNull, batch):
        val = self.eval(e.operand, batch)
        if _is_scalar(val):
            res = val is None
            return (not res) if e.negated else res
        return pc.is_valid(val) if e.negated else pc.is_null(val)

    def _eval_InList(self, e: A.InList, batch):
        # ANSI three-valued IN: TRUE on a match, NULL (not FALSE) when the
        # operand is NULL or when there is no match but the list contains a
        # NULL (x NOT IN (..., NULL) is therefore never TRUE — DuckDB parity)
        val = self.eval(e.operand, batch)
        items = [self.eval(v, batch) for v in e.values]
        if any(not _is_scalar(i) for i in items):
            raise EvalError("IN list must be scalars")
        val = _as_array(val, len(batch)) if _is_scalar(val) else val
        non_null = [i for i in items if i is not None]
        has_null_item = len(non_null) < len(items)
        if non_null:
            out = pc.is_in(val, value_set=pa.array(non_null))
        else:
            out = pa.array([False] * len(val), pa.bool_())
        null_b = pa.scalar(None, pa.bool_())
        if has_null_item:
            # every non-match compared against the NULL item → unknown
            out = pc.if_else(out, out, null_b)
        elif getattr(val, "null_count", 0):
            out = pc.if_else(pc.is_null(val), null_b, out)
        # no NULLs anywhere → two-valued is_in result is already exact
        return pc.invert(out) if e.negated else out

    def _eval_Between(self, e: A.Between, batch):
        val = self.eval(e.operand, batch)
        low = self.eval(e.low, batch)
        high = self.eval(e.high, batch)
        val = _as_array(val, len(batch)) if _is_scalar(val) else val
        val_l, low = self._align_compare(val, low, len(batch))
        val_h, high = self._align_compare(val, high, len(batch))
        out = pc.and_kleene(pc.greater_equal(val_l, low), pc.less_equal(val_h, high))
        return pc.invert(out) if e.negated else out

    def _bool(self, v, batch):
        out = self.eval(v, batch)
        if _is_scalar(out):
            return out
        return out

    def _eval_And(self, e: A.And, batch):
        left, right = self._bool(e.left, batch), self._bool(e.right, batch)
        if _is_scalar(left) and _is_scalar(right):
            return None if left is None or right is None else bool(left) and bool(right)
        left = _as_array(left, len(batch)) if _is_scalar(left) else left
        right = _as_array(right, len(batch)) if _is_scalar(right) else right
        return pc.and_kleene(pc.cast(left, pa.bool_()), pc.cast(right, pa.bool_()))

    def _eval_Or(self, e: A.Or, batch):
        left, right = self._bool(e.left, batch), self._bool(e.right, batch)
        if _is_scalar(left) and _is_scalar(right):
            return None if left is None and right is None else bool(left) or bool(right)
        left = _as_array(left, len(batch)) if _is_scalar(left) else left
        right = _as_array(right, len(batch)) if _is_scalar(right) else right
        return pc.or_kleene(pc.cast(left, pa.bool_()), pc.cast(right, pa.bool_()))

    def _eval_Not(self, e: A.Not, batch):
        val = self._bool(e.operand, batch)
        if _is_scalar(val):
            return None if val is None else not bool(val)
        return pc.invert(pc.cast(val, pa.bool_()))

    # case / cast --------------------------------------------------------
    def _eval_CaseWhen(self, e: A.CaseWhen, batch):
        length = len(batch)
        # fold branches right-to-left with if_else, starting from ELSE (or NULL)
        acc = self.eval(e.else_expr, batch) if e.else_expr is not None else None
        for cond, val in reversed(e.branches):
            mask = self.eval_mask(cond, batch)
            value = self.eval(val, batch)
            if _is_scalar(value) and _is_scalar(acc):
                if value is None and acc is None:
                    acc = pa.nulls(length)
                    continue
                vtype = pa.scalar(value if value is not None else acc).type
                acc = pc.if_else(mask, pa.scalar(value, vtype), pa.scalar(acc, vtype))
            else:
                if _is_scalar(value):
                    ref_type = acc.type
                    value = pa.scalar(value, ref_type)
                elif _is_scalar(acc):
                    acc = pa.scalar(acc, value.type) if acc is not None else pa.scalar(None, value.type)
                acc = _if_else_any(mask, value, acc)
        return acc

    def _eval_Cast(self, e: A.Cast, batch):
        val = self.eval(e.operand, batch)
        target = _ARROW_TYPES.get(e.type_name)
        if target is None:
            raise EvalError(f"unknown cast type {e.type_name}")
        return try_cast(val, target)

    def _eval__ScalarSubquery(self, e, batch):
        raise EvalError("scalar subquery must be resolved by the compiler before eval")

    # functions ----------------------------------------------------------
    def _eval_FuncCall(self, e: A.FuncCall, batch):
        name = e.name
        if name in self.udfs:
            fn, vectorized = self.udfs[name]
            args = [self.eval(a, batch) for a in e.args]
            if vectorized:
                args = [_as_array(a, len(batch)) if _is_scalar(a) else a for a in args]
                return fn(*args)
            cols = [(_as_array(a, len(batch)) if _is_scalar(a) else a).to_pylist() for a in args]
            return pa.array([fn(*row) for row in zip(*cols)])
        handler = _SCALAR_FUNCS.get(name)
        if handler is None:
            raise EvalError(f"unknown function {name}")
        return handler(self, e, batch)


# ------------------------------------------------------------ scalar funcs
def _arg(ev: Evaluator, e: A.FuncCall, batch, i, as_array=True):
    val = ev.eval(e.args[i], batch)
    if as_array and _is_scalar(val):
        val = _as_array(val, len(batch))
    return val


def _str_arg(ev, e, batch, i):
    val = _arg(ev, e, batch, i)
    if not (pa.types.is_string(val.type) or pa.types.is_large_string(val.type)):
        val = pc.cast(val, pa.string())
    return val


def _fn_len(ev, e, batch):
    val = _arg(ev, e, batch, 0)
    if pa.types.is_list(val.type) or pa.types.is_large_list(val.type):
        return pc.list_value_length(val)
    return pc.utf8_length(_str_arg(ev, e, batch, 0))


def _like_to_regex(pattern: str, esc: str) -> str:
    """SQL LIKE pattern → anchored RE2 regex honoring the ESCAPE char."""
    out, i, n = [], 0, len(pattern)
    while i < n:
        c = pattern[i]
        if c == esc:
            if i + 1 >= n:  # ANSI/DuckDB: escape with nothing following
                raise EvalError(
                    f"LIKE pattern ends with escape character {esc!r}")
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        out.append(".*" if c == "%" else "." if c == "_" else re.escape(c))
        i += 1
    return "^(?s:" + "".join(out) + ")$"


def _fn_trim(ev, e, batch):
    s = _str_arg(ev, e, batch, 0)
    if len(e.args) > 1:  # TRIM(s, chars) / TRIM(BOTH chars FROM s)
        return pc.utf8_trim(s, ev.eval(e.args[1], batch))
    return pc.utf8_trim_whitespace(s)


def _fn_upper(ev, e, batch):
    return pc.utf8_upper(_str_arg(ev, e, batch, 0))


def _fn_lower(ev, e, batch):
    return pc.utf8_lower(_str_arg(ev, e, batch, 0))


def _fn_left(ev, e, batch):
    n = ev.eval(e.args[1], batch)
    return pc.utf8_slice_codeunits(_str_arg(ev, e, batch, 0), 0, int(n))


def _fn_right(ev, e, batch):
    s = _str_arg(ev, e, batch, 0)
    n = int(ev.eval(e.args[1], batch))
    # slice with a negative start: utf8_slice_codeunits supports it natively,
    # but short strings then wrap — pandas .str handles the SQL semantics
    ser = s.to_pandas()
    return pa.array(ser.str[-n:] if n > 0 else ser.str[:0])


def _fn_substring(ev, e, batch):
    s = _str_arg(ev, e, batch, 0)
    start = int(ev.eval(e.args[1], batch))
    if len(e.args) > 2:
        length = int(ev.eval(e.args[2], batch))
        # SQL 1-based start (DuckDB substr); reference is 0-based (Substring.scala)
        begin = max(start - 1, 0)
        return pc.utf8_slice_codeunits(s, begin, begin + length)
    return pc.utf8_slice_codeunits(s, max(start - 1, 0))


def _fn_concat(ev, e, batch):
    args = [_str_arg(ev, e, batch, i) for i in range(len(e.args))]
    return pc.binary_join_element_wise(*args, "", null_handling="emit_null")


def _fn_split(ev, e, batch):
    # reference SPLIT is character-class split: s.split("[delim]") (Split.scala)
    s = _str_arg(ev, e, batch, 0)
    delim = ev.eval(e.args[1], batch)
    return pc.split_pattern_regex(s, f"[{re.escape(delim)}]")


def _fn_sqrt(ev, e, batch):
    return pc.sqrt(_to_float(_arg(ev, e, batch, 0)))


def _fn_sign(ev, e, batch):
    return pc.sign(_arg(ev, e, batch, 0))


def _fn_abs(ev, e, batch):
    return pc.abs(_arg(ev, e, batch, 0))


def _fn_round(ev, e, batch):
    nd = int(ev.eval(e.args[1], batch)) if len(e.args) > 1 else 0
    # half AWAY from zero — SQL/DuckDB ROUND semantics (pyarrow's default
    # is banker's rounding, which diverges on exact .5 boundaries)
    return pc.round(_arg(ev, e, batch, 0), ndigits=nd,
                    round_mode="half_towards_infinity")


def _fn_floor(ev, e, batch):
    return pc.floor(_to_float(_arg(ev, e, batch, 0)))


def _fn_ceil(ev, e, batch):
    return pc.ceil(_to_float(_arg(ev, e, batch, 0)))


def _fn_padleft(ev, e, batch):
    # pad OR truncate to exactly w (reference PadLeft.scala:28)
    s = _str_arg(ev, e, batch, 0)
    w = int(ev.eval(e.args[1], batch))
    return pc.utf8_slice_codeunits(pc.utf8_lpad(s, w, " "), 0, w)


def _fn_padright(ev, e, batch):
    s = _str_arg(ev, e, batch, 0)
    w = int(ev.eval(e.args[1], batch))
    return pc.utf8_slice_codeunits(pc.utf8_rpad(s, w, " "), 0, w)


def _pad(ev, e, batch, left: bool):
    """DuckDB/Postgres LPAD/RPAD: truncates (keeping the LEFT w chars) when
    the input is longer than w; negative w yields ''; a multi-char fill
    repeats cyclically; an empty fill errors only when padding is needed."""
    s = _str_arg(ev, e, batch, 0)
    w = int(ev.eval(e.args[1], batch))
    fill = ev.eval(e.args[2], batch) if len(e.args) > 2 else " "
    fill = " " if fill is None else str(fill)
    w = max(w, 0)
    if len(fill) == 1:  # pyarrow kernel path (the common case)
        padded = (pc.utf8_lpad if left else pc.utf8_rpad)(s, w, fill)
        return pc.utf8_slice_codeunits(padded, 0, w)
    # multi-char / empty fill: cyclic repetition — per-row variable-length
    # prefixes have no pc kernel; python loop is fine for this rare form
    out = []
    for v in s.to_pylist():
        if v is None:
            out.append(None)
            continue
        if len(v) >= w:
            out.append(v[:w])
            continue
        if not fill:
            raise EvalError("Insufficient padding in LPAD/RPAD "
                            "(empty fill with pad needed)")
        pad = (fill * w)[: w - len(v)]
        out.append(pad + v if left else v + pad)
    return pa.array(out, type=pa.string())


def _fn_lpad(ev, e, batch):
    return _pad(ev, e, batch, left=True)


def _fn_rpad(ev, e, batch):
    return _pad(ev, e, batch, left=False)


def _fn_replace(ev, e, batch):
    s = _str_arg(ev, e, batch, 0)
    return pc.replace_substring(s, ev.eval(e.args[1], batch), ev.eval(e.args[2], batch))


def _pattern_arg(ev, e, batch, i):
    """Regex pattern argument: must be a scalar (one compiled RE2 program
    per batch, not one per row)."""
    val = ev.eval(e.args[i], batch)
    if not _is_scalar(val):
        raise EvalError(f"{e.name} pattern must be a literal/scalar")
    if val is None:
        raise EvalError(f"{e.name} pattern is NULL")
    return str(val)


def _fn_concat_ws(ev, e, batch):
    """CONCAT_WS(sep, a, b, …): join with separator, skipping NULLs."""
    sep = ev.eval(e.args[0], batch)
    if not _is_scalar(sep):
        raise EvalError("CONCAT_WS separator must be a scalar")
    parts = [_str_arg(ev, e, batch, i) for i in range(1, len(e.args))]
    return pc.binary_join_element_wise(
        *parts, str(sep), null_handling="skip")


def _fn_regexp_matches(ev, e, batch):
    # DuckDB regexp_matches: TRUE iff the RE2 pattern matches anywhere
    return pc.match_substring_regex(_str_arg(ev, e, batch, 0),
                                    _pattern_arg(ev, e, batch, 1))


def _fn_regexp_replace(ev, e, batch):
    # DuckDB regexp_replace replaces the FIRST match; trailing 'g' flag
    # replaces all. Same RE2 engine as DuckDB → identical semantics.
    s = _str_arg(ev, e, batch, 0)
    pattern = _pattern_arg(ev, e, batch, 1)
    repl = ev.eval(e.args[2], batch)
    if not _is_scalar(repl):
        raise EvalError("REGEXP_REPLACE replacement must be a scalar")
    flags = ""
    if len(e.args) > 3:
        flags = str(ev.eval(e.args[3], batch) or "")
    max_repl = -1 if "g" in flags else 1
    return pc.replace_substring_regex(s, pattern=pattern,
                                      replacement=str(repl),
                                      max_replacements=max_repl)


def _fn_regexp_extract(ev, e, batch):
    """DuckDB regexp_extract(s, pattern[, group=0]): the matched text of
    the group (0 = whole match); '' when no match. Group 0 wraps the whole
    pattern in a named group and runs Arrow's RE2 extract (bit-identical
    to DuckDB's RE2); group i>0 converts the i-th '(' group to a named one."""
    s = _str_arg(ev, e, batch, 0)
    pattern = _pattern_arg(ev, e, batch, 1)
    group = 0
    if len(e.args) > 2:
        gv = ev.eval(e.args[2], batch)
        if not _is_scalar(gv):
            raise EvalError("REGEXP_EXTRACT group must be a scalar")
        group = int(gv)
    named, ngroups = _name_regex_groups(pattern, group)
    if group == 0:
        named = f"(?P<__qr>{named})"
    elif group > ngroups:
        raise EvalError(
            f"REGEXP_EXTRACT group {group} not present in pattern")
    try:
        out = pc.extract_regex(s, named)
    except pa.ArrowInvalid as exc:
        raise EvalError(f"REGEXP_EXTRACT bad pattern {pattern!r}: {exc}")
    field = pc.struct_field(out, "__qr")
    return pc.fill_null(field, "")


def _name_regex_groups(pattern: str, target: int) -> tuple[str, int]:
    """Name EVERY unnamed capturing '(' of an RE2 pattern (Arrow's
    extract_regex rejects unnamed groups); the ``target``-th becomes
    (?P<__qr>…). Skips (?:…) constructs, escaped parens, and parens inside
    character classes. Returns (rewritten pattern, capture-group count)."""
    out = []
    i = 0
    idx = 0
    in_class = False
    while i < len(pattern):
        ch = pattern[i]
        if ch == "\\" and i + 1 < len(pattern):
            out.append(pattern[i:i + 2])
            i += 2
            continue
        if in_class:
            if ch == "]":
                in_class = False
            out.append(ch)
            i += 1
            continue
        if ch == "[":
            in_class = True
            out.append(ch)
            i += 1
            continue
        if ch == "(" and not pattern.startswith("(?", i):
            idx += 1
            out.append("(?P<__qr>" if idx == target else f"(?P<__g{idx}>")
            i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out), idx


def _fn_coalesce(ev, e, batch):
    vals = [_arg(ev, e, batch, i) for i in range(len(e.args))]
    target = next((v.type for v in vals if not pa.types.is_null(v.type)), None)
    if target is not None:
        vals = [pc.cast(v, target) if pa.types.is_null(v.type) else v
                for v in vals]
    return pc.coalesce(*vals)


def _fn_nullif(ev, e, batch):
    a = _arg(ev, e, batch, 0)
    b = ev.eval(e.args[1], batch)
    mask = pc.equal(a, b)
    return pc.if_else(pc.fill_null(mask, False), pa.scalar(None, a.type), a)


def _fn_now(ev, e, batch):
    if ev.now is None:
        raise EvalError("NOW() requires a driver-stamped timestamp (determinism policy, SURVEY.md §7.3)")
    return ev.now


def _fn_rand(ev, e, batch):
    rng = np.random.default_rng(ev.variables.get("__seed", 42))
    return pa.array(rng.random(len(batch)))


def _fn_uuid(ev, e, batch):
    import uuid as _uuid
    rng = np.random.default_rng(ev.variables.get("__seed", 42))
    return pa.array([str(_uuid.UUID(bytes=rng.bytes(16), version=4)) for _ in range(len(batch))])


def _fn_date_format(ev, e, batch):
    d = _arg(ev, e, batch, 0)
    fmt = _java_to_strptime(ev.eval(e.args[1], batch))
    return pc.strftime(d, format=fmt)


def _fn_date_parse(ev, e, batch):
    s = _str_arg(ev, e, batch, 0)
    fmt = _java_to_strptime(ev.eval(e.args[1], batch))
    return pc.strptime(s, format=fmt, unit="us", error_is_null=True)


def _fn_date_trunc(ev, e, batch):
    unit = ev.eval(e.args[0], batch)
    d = _arg(ev, e, batch, 1)
    u = unit.lower()
    if u in ("decade", "century", "millennium"):
        # Arrow floor_temporal stops at 'year'; DuckDB truncates these to
        # Jan 1 of year - year % {10,100,1000} (century of 2026 → 2000)
        m = {"decade": 10, "century": 100, "millennium": 1000}[u]
        y = pc.year(d).to_numpy(zero_copy_only=False).astype("float64")
        mask = np.isnan(y)
        ty = (np.nan_to_num(y).astype("int64") // m) * m
        out = (np.datetime64("1970", "Y")
               + (ty - 1970).astype("timedelta64[Y]")).astype("datetime64[D]")
        arr = pa.array(out, pa.date32(), mask=mask)
        t = d.type if hasattr(d, "type") else pa.date32()
        return arr if pa.types.is_date(t) else pc.cast(arr, t)
    return pc.floor_temporal(d, unit=u)


def _fn_year(ev, e, batch):
    return pc.cast(pc.year(_arg(ev, e, batch, 0)), pa.int64())


def _fn_month(ev, e, batch):
    return pc.cast(pc.month(_arg(ev, e, batch, 0)), pa.int64())


def _fn_day(ev, e, batch):
    return pc.cast(pc.day(_arg(ev, e, batch, 0)), pa.int64())


def _fn_hour(ev, e, batch):
    return pc.cast(pc.hour(_arg(ev, e, batch, 0)), pa.int64())


def _epoch_us_arr(ev, e, batch):
    d = _arg(ev, e, batch, 0)
    return pc.cast(pc.cast(d, pa.timestamp("us")), pa.int64())


def _fn_epoch(ev, e, batch):
    # DuckDB extract(epoch from ts) / epoch(ts): DOUBLE seconds
    return pc.divide(pc.cast(_epoch_us_arr(ev, e, batch), pa.float64()),
                     pa.scalar(1e6))


def _fn_epoch_ms(ev, e, batch):
    # DuckDB epoch_ms: BIGINT milliseconds
    return pc.divide(_epoch_us_arr(ev, e, batch), pa.scalar(1000))


def _fn_epoch_us(ev, e, batch):
    return _epoch_us_arr(ev, e, batch)


_DATE_PART_FNS: dict = {}  # filled after the registry below


def _fn_date_part(ev, e, batch):
    """DuckDB date_part('part', x) — dispatches to the EXTRACT family."""
    part = ev.eval(e.args[0], batch)
    if not isinstance(part, str):
        raise EvalError("DATE_PART part must be a string literal")
    fn = _DATE_PART_FNS.get(part.upper())
    if fn is None:
        raise EvalError(f"unsupported DATE_PART part {part!r}")
    inner = A.FuncCall("__PART__", (e.args[1],))
    return fn(ev, inner, batch)


def _fn_strftime(ev, e, batch):
    d = _arg(ev, e, batch, 0)
    fmt = ev.eval(e.args[1], batch)
    return pc.strftime(d, format=fmt)


def _json_path_steps(path: str):
    """'$.a.b[0]' / 'a.b[0]' → ['a', 'b', 0]."""
    p = path[2:] if path.startswith("$.") else \
        path[1:] if path.startswith("$") else path
    steps: list = []
    for seg in p.split("."):
        if not seg:
            continue
        while "[" in seg:
            head, _, rest = seg.partition("[")
            if head:
                steps.append(head)
            idx, _, seg = rest.partition("]")
            steps.append(int(idx))
            seg = seg.lstrip(".")
        if seg:
            steps.append(seg)
    return steps


def _json_extract_values(ev, e, batch):
    """Per-row JSON extraction on a narrow string column (no vectorized
    JSON kernel exists in Arrow; same isolated-loop precedent as md5).
    Returns raw Python values (None for missing/JSON-null, like DuckDB)."""
    import json

    s = _str_arg(ev, e, batch, 0)
    path = ev.eval(e.args[1], batch)
    if not isinstance(path, str):
        raise EvalError("JSON path must be a string literal")
    steps = _json_path_steps(path)
    out = []
    for v in s.to_pylist():
        if v is None:
            out.append(None)
            continue
        try:
            cur = json.loads(v)
            for st in steps:
                if isinstance(st, int):
                    cur = cur[st] if isinstance(cur, list) \
                        and -len(cur) <= st < len(cur) else None
                elif isinstance(cur, dict):
                    cur = cur.get(st)
                else:
                    cur = None
                if cur is None:
                    break
            out.append(cur)
        except (ValueError, TypeError):
            out.append(None)
    return out


def _fn_json_extract(ev, e, batch):
    """DuckDB json_extract / ->: the extracted value as compact JSON text
    (strings stay quoted); missing / JSON null → NULL."""
    import json

    vals = _json_extract_values(ev, e, batch)
    return pa.array(
        [None if v is None else json.dumps(v, separators=(",", ":"))
         for v in vals], pa.string())


def _fn_json_extract_string(ev, e, batch):
    """DuckDB json_extract_string / ->>: strings unquoted, scalars as
    text, containers as compact JSON."""
    import json

    vals = _json_extract_values(ev, e, batch)
    out = []
    for v in vals:
        if v is None:
            out.append(None)
        elif isinstance(v, str):
            out.append(v)
        elif isinstance(v, bool):
            out.append("true" if v else "false")
        elif isinstance(v, (dict, list)):
            out.append(json.dumps(v, separators=(",", ":")))
        else:
            out.append(json.dumps(v))
    return pa.array(out, pa.string())


def _fn_to_timestamp(ev, e, batch):
    """Epoch seconds (fractional ok) → timestamp[us] (naive UTC — this
    engine carries no timezone, matching its parquet columns)."""
    v = pc.cast(_arg(ev, e, batch, 0), pa.float64())
    us = pc.cast(pc.round(pc.multiply(v, pa.scalar(1e6))), pa.int64())
    return pc.cast(us, pa.timestamp("us"))


def _fn_make_date(ev, e, batch):
    import datetime as _dt

    y, m, d = (ev.eval(a, batch) for a in e.args)
    if any(x is None for x in (y, m, d)):
        return None
    if not all(_is_scalar(x) for x in (y, m, d)):
        import pandas as pd

        def col(x):
            if _is_scalar(x):
                return np.full(len(batch), int(x), dtype=np.int64)
            return pc.cast(x, pa.int64()).to_numpy(zero_copy_only=False)
        ys, ms, ds_ = col(y), col(m), col(d)
        out = [_dt.datetime(int(a), int(b), int(c))
               for a, b, c in zip(ys, ms, ds_)]
        return pa.array(out, pa.timestamp("us"))
    return _dt.datetime(int(y), int(m), int(d))


def _fn_make_timestamp(ev, e, batch):
    import datetime as _dt

    vals = [ev.eval(a, batch) for a in e.args]
    if any(v is None for v in vals):
        return None
    y, m, d, h, mi, s = (vals + [0, 0, 0])[:6]
    sec = float(s)
    return _dt.datetime(int(y), int(m), int(d), int(h), int(mi),
                        int(sec), int(round((sec % 1) * 1e6)))


def _fn_json_valid(ev, e, batch):
    import json

    s = _str_arg(ev, e, batch, 0)
    out = []
    for v in s.to_pylist():
        if v is None:
            out.append(None)
            continue
        try:
            json.loads(v)
            out.append(True)
        except ValueError:
            out.append(False)
    return pa.array(out, pa.bool_())


def _fn_bit_count(ev, e, batch):
    """Population count over the 64-bit two's-complement representation
    (DuckDB: bit_count(-1::BIGINT) = 64)."""
    v = _arg(ev, e, batch, 0)
    arr = pc.cast(v, pa.int64()).to_numpy(zero_copy_only=False)
    u = arr.view(np.uint64) if arr.dtype == np.int64 \
        else arr.astype(np.int64).view(np.uint64)
    if hasattr(np, "bitwise_count"):
        out = np.bitwise_count(u).astype(np.int64)
    else:
        out = np.array([bin(int(x)).count("1") for x in u], dtype=np.int64)
    mask = pc.is_null(v)
    res = pa.array(out, pa.int64())
    if pc.any(mask).as_py():
        res = pc.if_else(mask, pa.scalar(None, pa.int64()), res)
    return res


def _fn_ltrim(ev, e, batch):
    s = _str_arg(ev, e, batch, 0)
    if len(e.args) > 1:
        return pc.utf8_ltrim(s, ev.eval(e.args[1], batch))
    return pc.utf8_ltrim_whitespace(s)


def _fn_rtrim(ev, e, batch):
    s = _str_arg(ev, e, batch, 0)
    if len(e.args) > 1:
        return pc.utf8_rtrim(s, ev.eval(e.args[1], batch))
    return pc.utf8_rtrim_whitespace(s)


def _fn_array_slice(ev, e, batch):
    """DuckDB slice semantics (s[a:b] / array_slice): 1-based INCLUSIVE
    bounds, negative = from the end (-1 = last), 0 treated as 1,
    out-of-range clamps. Strings slice vectorized via pandas; lists via a
    per-row loop (projection-only path, not a hot stage)."""
    val = _arg(ev, e, batch, 0)
    lo = ev.eval(e.args[1], batch)
    hi = ev.eval(e.args[2], batch)
    if not _is_scalar(lo) or not _is_scalar(hi):
        raise EvalError("slice bounds must be scalars")
    lo = 1 if lo is None else int(lo)
    hi = -1 if hi is None else int(hi)
    start = lo - 1 if lo > 0 else (lo if lo < 0 else 0)
    stop = hi if hi > 0 else (None if hi == -1 else hi + 1)
    if isinstance(val, pa.ChunkedArray):
        val = val.combine_chunks()
    if pa.types.is_string(val.type) or pa.types.is_large_string(val.type):
        import pandas as pd

        s = pd.Series(val.to_pandas()).str.slice(start, stop)
        return pa.Array.from_pandas(s, type=pa.string())
    if pa.types.is_list(val.type) or pa.types.is_large_list(val.type):
        out = [None if v is None else v[slice(start, stop)]
               for v in val.to_pylist()]
        return pa.array(out, type=val.type)
    raise EvalError(f"cannot slice type {val.type}")


def _fn_md5(ev, e, batch):
    import hashlib
    s = _str_arg(ev, e, batch, 0)
    return pa.array([None if v is None else hashlib.md5(v.encode()).hexdigest()
                     for v in s.to_pylist()])


def _fn_sha256(ev, e, batch):
    import hashlib
    s = _str_arg(ev, e, batch, 0)
    return pa.array([None if v is None else hashlib.sha256(v.encode()).hexdigest()
                     for v in s.to_pylist()])


def _fn_instr(ev, e, batch):
    s = _str_arg(ev, e, batch, 0)
    sub = ev.eval(e.args[1], batch)
    return pc.add(pc.find_substring(s, sub), 1)  # 1-based; 0 = not found


def _fn_greatest(ev, e, batch):
    args = [_arg(ev, e, batch, i) for i in range(len(e.args))]
    return pc.max_element_wise(*args)


def _fn_least(ev, e, batch):
    args = [_arg(ev, e, batch, i) for i in range(len(e.args))]
    return pc.min_element_wise(*args)


def _fn_power(ev, e, batch):
    base = _arg(ev, e, batch, 0)
    return pc.power(pc.cast(base, pa.float64()), _arg(ev, e, batch, 1))


def _fn_mod(ev, e, batch):
    # SQL MOD: truncated division remainder (sign follows the dividend,
    # DuckDB/ANSI) — a - trunc(a/b)*b, vectorized via numpy fmod
    a = _arg(ev, e, batch, 0)
    b = _arg(ev, e, batch, 1)
    if pa.types.is_integer(a.type) and pa.types.is_integer(b.type):
        av = a.to_numpy(zero_copy_only=False)
        bv = b.to_numpy(zero_copy_only=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.fmod(av, bv)
        return pa.array(out, type=pa.int64())
    av = pc.cast(a, pa.float64()).to_numpy(zero_copy_only=False)
    bv = pc.cast(b, pa.float64()).to_numpy(zero_copy_only=False)
    return pa.array(np.fmod(av, bv))


def _fn_exp(ev, e, batch):
    return pc.exp(pc.cast(_arg(ev, e, batch, 0), pa.float64()))


def _fn_ln(ev, e, batch):
    return pc.ln(pc.cast(_arg(ev, e, batch, 0), pa.float64()))


def _fn_log(ev, e, batch):
    # LOG(x) = log10 (DuckDB); LOG(b, x) = log base b
    if len(e.args) == 1:
        return pc.log10(pc.cast(_arg(ev, e, batch, 0), pa.float64()))
    b = pc.cast(_arg(ev, e, batch, 0), pa.float64())
    x = pc.cast(_arg(ev, e, batch, 1), pa.float64())
    return pc.logb(x, b)


def _fn_log2(ev, e, batch):
    return pc.log2(pc.cast(_arg(ev, e, batch, 0), pa.float64()))


def _fn_log10(ev, e, batch):
    return pc.log10(pc.cast(_arg(ev, e, batch, 0), pa.float64()))


def _fn_minute(ev, e, batch):
    return pc.cast(pc.minute(_arg(ev, e, batch, 0)), pa.int64())


def _fn_second(ev, e, batch):
    return pc.cast(pc.second(_arg(ev, e, batch, 0)), pa.int64())


def _fn_dayofweek(ev, e, batch):
    # DuckDB dayofweek: Sunday = 0 … Saturday = 6
    return pc.cast(pc.day_of_week(_arg(ev, e, batch, 0),
                                  count_from_zero=True, week_start=7),
                   pa.int64())


def _fn_isodow(ev, e, batch):
    # ISO day of week: Monday = 1 … Sunday = 7
    return pc.cast(pc.day_of_week(_arg(ev, e, batch, 0),
                                  count_from_zero=False, week_start=1),
                   pa.int64())


def _fn_week(ev, e, batch):
    # DuckDB week = ISO-8601 week number
    return pc.cast(pc.iso_week(_arg(ev, e, batch, 0)), pa.int64())


def _fn_doy(ev, e, batch):
    return pc.cast(pc.day_of_year(_arg(ev, e, batch, 0)), pa.int64())


def _fn_quarter(ev, e, batch):
    return pc.cast(pc.quarter(_arg(ev, e, batch, 0)), pa.int64())


def _fn_decade(ev, e, batch):
    # Postgres/DuckDB decade: year / 10 (floor)
    y = pc.year(_arg(ev, e, batch, 0))
    return pc.cast(_floor_div(y, 10), pa.int64())


def _fn_century(ev, e, batch):
    # Postgres/DuckDB century of 2026 = 21: (year + 99) / 100 for CE
    y = pc.year(_arg(ev, e, batch, 0))
    return pc.cast(_floor_div(pc.add(y, 99), 100), pa.int64())


def _fn_millennium(ev, e, batch):
    y = pc.year(_arg(ev, e, batch, 0))
    return pc.cast(_floor_div(pc.add(y, 999), 1000), pa.int64())


def _floor_div(a, n: int):
    # floor division on a (possibly negative) int array
    return pc.cast(pc.floor(pc.divide(pc.cast(a, pa.float64()),
                                      pa.scalar(float(n)))), pa.int64())


def _fn_last_day(ev, e, batch):
    import pandas as pd

    s = pd.Series(_arg(ev, e, batch, 0).to_pandas())
    out = (s + pd.offsets.MonthEnd(0)).dt.normalize()
    # a date already on month-end stays (MonthEnd(0) is idempotent there)
    return pa.Array.from_pandas(out)


def _fn_datediff(ev, e, batch):
    """DATEDIFF('part', start, end): boundary-crossing count (DuckDB)."""
    part = e.args[0].value.lower() if isinstance(e.args[0], A.Literal) \
        else str(ev.eval(e.args[0], batch)).lower()
    a = _arg(ev, e, batch, 1)
    b = _arg(ev, e, batch, 2)
    if part in ("year", "month"):
        ya, yb = pc.year(a), pc.year(b)
        if part == "year":
            return pc.cast(pc.subtract(yb, ya), pa.int64())
        ma, mb = pc.month(a), pc.month(b)
        return pc.cast(
            pc.add(pc.multiply(pc.subtract(yb, ya), 12),
                   pc.subtract(mb, ma)), pa.int64())
    unit = {"day": 86_400_000_000, "week": 7 * 86_400_000_000,
            "hour": 3_600_000_000, "minute": 60_000_000,
            "second": 1_000_000}.get(part)
    if unit is None:
        raise EvalError(f"unsupported DATEDIFF part {part!r}")
    av = pc.cast(pc.cast(a, pa.timestamp("us")), pa.int64())
    bv = pc.cast(pc.cast(b, pa.timestamp("us")), pa.int64())
    # boundary count = floor-div of each side to the unit, then subtract
    unit_arr = pa.scalar(unit, pa.int64())
    fa = pc.floor(pc.divide(pc.cast(av, pa.float64()), float(unit)))
    fb = pc.floor(pc.divide(pc.cast(bv, pa.float64()), float(unit)))
    return pc.cast(pc.subtract(fb, fa), pa.int64())


def _fn_date_add(ev, e, batch):
    """DATE_ADD(ts, n): add n DAYS (reference-style integer day offset)."""
    a = _arg(ev, e, batch, 0)
    n = ev.eval(e.args[1], batch)
    if isinstance(n, (pa.Array, pa.ChunkedArray)):
        days = pc.cast(n, pa.int64())
        us = pc.multiply(days, pa.scalar(86_400_000_000, pa.int64()))
    else:
        us = pa.scalar(int(n) * 86_400_000_000, pa.int64())
    base = pc.cast(pc.cast(a, pa.timestamp("us")), pa.int64())
    return pc.cast(pc.add(base, us), pa.timestamp("us"))


def _fn_ascii(ev, e, batch):
    s = _str_arg(ev, e, batch, 0)
    return pa.array([None if v is None or not v else ord(v[0])
                     for v in s.to_pylist()], type=pa.int64())


def _fn_chr(ev, e, batch):
    n = _arg(ev, e, batch, 0)
    return pa.array([None if v is None else chr(int(v))
                     for v in n.to_pylist()], type=pa.string())


def _fn_repeat(ev, e, batch):
    s = _str_arg(ev, e, batch, 0)
    n = ev.eval(e.args[1], batch)
    if not isinstance(n, (pa.Array, pa.ChunkedArray)):
        return pc.binary_repeat(s, int(n))
    return pa.array([None if v is None or k is None else v * int(k)
                     for v, k in zip(s.to_pylist(), n.to_pylist())],
                    type=pa.string())


def _fn_contains(ev, e, batch):
    s = _str_arg(ev, e, batch, 0)
    sub = ev.eval(e.args[1], batch)
    return pc.match_substring(s, sub)


def _fn_hash(ev, e, batch):
    """HASH(a [, b ...]): value-stable 64-bit xxhash (polars, fixed seed)
    of the stringified arguments — deterministic across processes, runs
    and arrays (unlike Python hash() or pandas hash_array), so
    ``MOD(HASH(id), 100) < k`` is a reproducible k% sample/shard at any
    parallelism. Engine-specific values (no cross-engine oracle)."""
    cols = [pc.cast(_arg(ev, e, batch, i), pa.string())
            for i in range(len(e.args))]
    joined = cols[0] if len(cols) == 1 else \
        pc.binary_join_element_wise(*cols, "\x00")
    arr = joined.combine_chunks() if isinstance(joined, pa.ChunkedArray) \
        else joined
    import polars as pl

    hashed = pl.from_arrow(arr).hash(seed=42).to_numpy()
    # expose as non-negative int64 (mask off the sign bit)
    return pa.array((hashed & np.uint64(0x7FFFFFFFFFFFFFFF))
                    .astype(np.int64))


def _fn_reverse(ev, e, batch):
    return pc.utf8_reverse(_str_arg(ev, e, batch, 0))


def _fn_initcap(ev, e, batch):
    return pc.utf8_title(_str_arg(ev, e, batch, 0))


# ---------------------------------------------------------------- lists
# DuckDB-compatible list/array functions over Arrow list columns. All are
# vectorized: one pc.list_flatten + parent-index pass per batch, never a
# Python loop over rows. 1-based indexing, NULL-in → NULL-out, matching
# DuckDB 1.0 (the engine's oracle).


def _list_arg(ev, e, batch, i):
    """Evaluate arg i to a combined pa list array."""
    val = _arg(ev, e, batch, i)
    if isinstance(val, pa.ChunkedArray):
        val = val.combine_chunks()
    if not (pa.types.is_list(val.type) or pa.types.is_large_list(val.type)):
        raise EvalError(f"{e.name} expects a list argument")
    return val


def _list_parts(lst):
    """(flat_values, lengths int64 np, starts int64 np, row_valid np bool).

    flat packs rows back-to-back (null/empty rows contribute 0 values),
    so row i occupies flat[starts[i] : starts[i]+lengths[i]].
    """
    import numpy as np

    lengths = pc.fill_null(pc.list_value_length(lst), 0)\
        .to_numpy(zero_copy_only=False).astype("int64")
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    flat = pc.list_flatten(lst)
    valid = pc.is_valid(lst).to_numpy(zero_copy_only=False)
    return flat, lengths, starts, valid


def _fn_unnest(ev, e, batch):
    raise EvalError(
        "UNNEST is only supported as a top-level SELECT item "
        "(SELECT UNNEST(list_col) ... FROM t)")


def _fn_list_value(ev, e, batch):
    # LIST_VALUE(a, b, …) / [a, b, …] — one k-element list per row
    import numpy as np

    n = len(batch)
    arrs = [_as_array(ev.eval(a, batch), n) for a in e.args]
    arrs = [a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
            for a in arrs]
    k = len(arrs)
    if k == 0:
        return pa.array([[]] * n, type=pa.list_(pa.null()))
    types = {a.type for a in arrs if not pa.types.is_null(a.type)}
    if len(types) > 1:  # unify: all-numeric → float64, else string
        tgt = pa.float64() if all(
            pa.types.is_integer(t) or pa.types.is_floating(t)
            for t in types) else pa.string()
        arrs = [pc.cast(a, tgt) for a in arrs]
    elif types:
        tgt = next(iter(types))
        arrs = [pc.cast(a, tgt) for a in arrs]
    stacked = pa.concat_arrays(arrs)          # [a0…  a1…  …]  column-major
    # row i, slot j sits at stacked[j*n + i]
    idx = (np.arange(n * k) % k) * n + (np.arange(n * k) // k)
    values = stacked.take(pa.array(idx, type=pa.int64()))
    offsets = pa.array(np.arange(0, n * k + 1, k, dtype="int32"),
                       type=pa.int32())
    return pa.ListArray.from_arrays(offsets, values)


def _fn_array_length(ev, e, batch):
    return pc.list_value_length(_list_arg(ev, e, batch, 0))


def _fn_list_contains(ev, e, batch):
    import numpy as np

    lst = _list_arg(ev, e, batch, 0)
    target = ev.eval(e.args[1], batch)
    flat, lengths, starts, valid = _list_parts(lst)
    hit = np.zeros(len(lst), dtype=bool)
    if len(flat):
        parent = np.repeat(np.arange(len(lst)), lengths)
        if _is_scalar(target):
            if target is None:
                return pa.array(hit, mask=~valid)
            eq = pc.equal(flat, pa.scalar(target))
        else:  # per-row needle: align to the flattened packing
            if isinstance(target, pa.ChunkedArray):
                target = target.combine_chunks()
            eq = pc.equal(flat, target.take(
                pa.array(parent, type=pa.int64())))
        eq = pc.fill_null(eq, False).to_numpy(zero_copy_only=False)
        np.logical_or.at(hit, parent, eq)
    return pa.array(hit, mask=~valid)


def _fn_list_extract(ev, e, batch):
    # 1-based; negative counts from the end; out of range → NULL
    import numpy as np

    lst = _list_arg(ev, e, batch, 0)
    i = ev.eval(e.args[1], batch)
    if not _is_scalar(i):
        raise EvalError("LIST_EXTRACT needs a constant index")
    i = int(i)
    flat, lengths, starts, valid = _list_parts(lst)
    pos = np.full(len(lst), i - 1 if i > 0 else 0, dtype="int64")
    if i <= 0:
        pos = lengths + i
    ok = valid & (pos >= 0) & (pos < lengths)
    take = np.where(ok, starts + pos, 0)
    if len(flat) == 0:
        return pa.nulls(len(lst), lst.type.value_type)
    vals = flat.take(pa.array(take, type=pa.int64()))
    return pc.if_else(pa.array(ok), vals,
                      pa.scalar(None, type=vals.type))


def _list_pair_float(ev, e, batch):
    """Flatten both list args to aligned float64 numpy + per-row segments."""
    import numpy as np

    a = _list_arg(ev, e, batch, 0)
    b_raw = ev.eval(e.args[1], batch)
    if _is_scalar(b_raw):  # python list constant
        b_raw = pa.array([b_raw] * len(batch))
    if isinstance(b_raw, pa.ChunkedArray):
        b_raw = b_raw.combine_chunks()
    fa, la, sa, va = _list_parts(a)
    fb, lb, sb, vb = _list_parts(b_raw)
    if not (la[va & vb] == lb[va & vb]).all():
        raise EvalError(f"{e.name}: list lengths differ")
    xa = pc.cast(fa, pa.float64()).to_numpy(zero_copy_only=False)
    xb = pc.cast(fb, pa.float64()).to_numpy(zero_copy_only=False)
    n = len(a)
    parent = np.repeat(np.arange(n), la)
    return xa, xb, sa, sb, la, parent, va & vb, n


def _segsum(contrib, parent, n):
    import numpy as np

    out = np.zeros(n, dtype="float64")
    np.add.at(out, parent, contrib)
    return out


def _fn_list_inner_product(ev, e, batch):
    import numpy as np

    xa, xb, sa, sb, la, parent, ok, n = _list_pair_float(ev, e, batch)
    # align b's values to a's packing (segments may start elsewhere)
    pos = np.arange(len(xa)) - np.repeat(sa, la)
    bvals = xb[np.repeat(sb, la) + pos] if len(xa) else xb[:0]
    dot = _segsum(xa * bvals, parent, n)
    return pa.array(dot, mask=~ok)


def _fn_list_cosine(ev, e, batch):
    import numpy as np

    xa, xb, sa, sb, la, parent, ok, n = _list_pair_float(ev, e, batch)
    pos = np.arange(len(xa)) - np.repeat(sa, la)
    bvals = xb[np.repeat(sb, la) + pos] if len(xa) else xb[:0]
    dot = _segsum(xa * bvals, parent, n)
    na = _segsum(xa * xa, parent, n)
    nb = _segsum(bvals * bvals, parent, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = dot / np.sqrt(na * nb)
    return pa.array(cos, mask=~ok | np.isnan(cos))


def _fn_list_distance(ev, e, batch):
    import numpy as np

    xa, xb, sa, sb, la, parent, ok, n = _list_pair_float(ev, e, batch)
    pos = np.arange(len(xa)) - np.repeat(sa, la)
    bvals = xb[np.repeat(sb, la) + pos] if len(xa) else xb[:0]
    d = xa - bvals
    return pa.array(np.sqrt(_segsum(d * d, parent, n)), mask=~ok)


def _fn_array_to_string(ev, e, batch):
    lst = _list_arg(ev, e, batch, 0)
    sep = ev.eval(e.args[1], batch)
    if not _is_scalar(sep):
        raise EvalError("ARRAY_TO_STRING needs a constant separator")
    as_str = pc.cast(lst, pa.list_(pa.string()))
    return pc.binary_join(as_str, str(sep))


def _fn_list_sort(ev, e, batch):
    # per-row ascending sort, NULLs first (DuckDB default); one global
    # (parent, value) sort_indices pass, offsets unchanged
    import numpy as np

    lst = _list_arg(ev, e, batch, 0)
    flat, lengths, starts, valid = _list_parts(lst)
    if len(flat) == 0:
        return lst
    parent = np.repeat(np.arange(len(lst)), lengths)
    order = pc.sort_indices(
        pa.table({"p": parent, "v": flat}),
        sort_keys=[("p", "ascending"), ("v", "ascending")],
        null_placement="at_start")
    values = flat.take(order)
    offsets = pa.array(
        np.concatenate((starts, [int(lengths.sum())])).astype("int32"))
    mask = None if valid.all() else pa.array(~valid)
    return pa.ListArray.from_arrays(offsets, values, mask=mask)


_SCALAR_FUNCS: dict[str, Callable] = {
    "UNNEST": _fn_unnest,
    "LIST_VALUE": _fn_list_value, "LIST_PACK": _fn_list_value,
    "ARRAY_LENGTH": _fn_array_length, "LIST_LENGTH": _fn_array_length,
    "LIST_CONTAINS": _fn_list_contains, "ARRAY_CONTAINS": _fn_list_contains,
    "LIST_HAS": _fn_list_contains,
    "LIST_EXTRACT": _fn_list_extract, "LIST_ELEMENT": _fn_list_extract,
    "ARRAY_EXTRACT": _fn_list_extract,
    "LIST_INNER_PRODUCT": _fn_list_inner_product,
    "LIST_DOT_PRODUCT": _fn_list_inner_product,
    "LIST_COSINE_SIMILARITY": _fn_list_cosine,
    "LIST_DISTANCE": _fn_list_distance,
    "ARRAY_TO_STRING": _fn_array_to_string,
    "LIST_SORT": _fn_list_sort,
    "LEN": _fn_len, "LENGTH": _fn_len,
    "TRIM": _fn_trim,
    "UPPER": _fn_upper, "UCASE": _fn_upper,
    "LOWER": _fn_lower, "LCASE": _fn_lower,
    "LEFT": _fn_left, "RIGHT": _fn_right,
    "SUBSTRING": _fn_substring, "SUBSTR": _fn_substring,
    "CONCAT": _fn_concat,
    "SPLIT": _fn_split,
    "REGEXP_MATCHES": _fn_regexp_matches,
    "REGEXP_REPLACE": _fn_regexp_replace,
    "REGEXP_EXTRACT": _fn_regexp_extract,
    "SQRT": _fn_sqrt, "SIGN": _fn_sign, "ABS": _fn_abs,
    "ROUND": _fn_round, "FLOOR": _fn_floor, "CEIL": _fn_ceil, "CEILING": _fn_ceil,
    "PADLEFT": _fn_padleft, "PADRIGHT": _fn_padright,
    "LPAD": _fn_lpad, "RPAD": _fn_rpad,
    "REPLACE": _fn_replace,
    "COALESCE": _fn_coalesce, "NULLIF": _fn_nullif,
    "IFNULL": _fn_coalesce, "NVL": _fn_coalesce, "ISNULL": _fn_coalesce,
    "TO_TIMESTAMP": _fn_to_timestamp, "MAKE_DATE": _fn_make_date,
    "MAKE_TIMESTAMP": _fn_make_timestamp,
    "CONCAT_WS": _fn_concat_ws,
    "NOW": _fn_now, "RAND": _fn_rand, "UUID": _fn_uuid,
    "DATE_FORMAT": _fn_date_format, "DATE_PARSE": _fn_date_parse,
    "YEAR": _fn_year, "MONTH": _fn_month, "DAY": _fn_day, "HOUR": _fn_hour,
    "EPOCH": _fn_epoch, "EPOCH_MS": _fn_epoch_ms, "EPOCH_US": _fn_epoch_us,
    "DATE_TRUNC": _fn_date_trunc,
    "MD5": _fn_md5, "SHA256": _fn_sha256,
    "INSTR": _fn_instr, "STRPOS": _fn_instr,
    "GREATEST": _fn_greatest, "LEAST": _fn_least,
    "POWER": _fn_power, "POW": _fn_power, "MOD": _fn_mod,
    "EXP": _fn_exp, "LN": _fn_ln, "LOG": _fn_log,
    "LOG2": _fn_log2, "LOG10": _fn_log10,
    "REVERSE": _fn_reverse, "INITCAP": _fn_initcap,
    "MINUTE": _fn_minute, "SECOND": _fn_second,
    "DAYOFWEEK": _fn_dayofweek, "LAST_DAY": _fn_last_day,
    "ISODOW": _fn_isodow, "WEEK": _fn_week, "WEEKOFYEAR": _fn_week,
    "DAYOFYEAR": _fn_doy, "DOY": _fn_doy, "DOW": _fn_dayofweek,
    "QUARTER": _fn_quarter, "DECADE": _fn_decade,
    "CENTURY": _fn_century, "MILLENNIUM": _fn_millennium,
    "DATEDIFF": _fn_datediff, "DATE_DIFF": _fn_datediff,
    "DATE_ADD": _fn_date_add,
    "ASCII": _fn_ascii, "CHR": _fn_chr, "REPEAT": _fn_repeat,
    "CONTAINS": _fn_contains, "HASH": _fn_hash,
    "DATE_PART": _fn_date_part, "DATEPART": _fn_date_part,
    "STRFTIME": _fn_strftime,
    "LTRIM": _fn_ltrim, "RTRIM": _fn_rtrim, "BIT_COUNT": _fn_bit_count,
    "JSON_EXTRACT": _fn_json_extract,
    "JSON_EXTRACT_STRING": _fn_json_extract_string,
    "JSON_EXTRACT_PATH_TEXT": _fn_json_extract_string,
    "JSON_VALID": _fn_json_valid,
    "ARRAY_SLICE": _fn_array_slice, "LIST_SLICE": _fn_array_slice,
}

# date_part dispatch table (after the registry so the funcs exist)
_DATE_PART_FNS.update({
    "YEAR": _fn_year, "MONTH": _fn_month, "DAY": _fn_day,
    "HOUR": _fn_hour, "MINUTE": _fn_minute, "SECOND": _fn_second,
    "EPOCH": _fn_epoch, "DOW": _fn_dayofweek,
    "DAYOFWEEK": _fn_dayofweek, "WEEKDAY": _fn_dayofweek,
    "ISODOW": _fn_isodow,
    "WEEK": _fn_week, "WEEKOFYEAR": _fn_week,
    "DOY": _fn_doy, "DAYOFYEAR": _fn_doy,
    "QUARTER": _fn_quarter,
    "DECADE": _fn_decade, "CENTURY": _fn_century,
    "MILLENNIUM": _fn_millennium,
    "DAYOFMONTH": _fn_day,
})

AGG_FUNC_NAMES = {"AVG", "COUNT", "MIN", "MAX", "SUM", "STDDEV", "MEAN",
                  "APPROX_COUNT_DISTINCT", "STDDEV_POP", "STDDEV_SAMP",
                  "VARIANCE", "VAR_POP", "VAR_SAMP",
                  "MEDIAN", "STRING_AGG", "ARRAY_AGG",
                  "QUANTILE_CONT", "QUANTILE_DISC",
                  "PERCENTILE_CONT", "PERCENTILE_DISC", "APPROX_QUANTILE",
                  # two-argument (co)moment family (compiler.BIMOMENT_AGGS)
                  "COVAR_POP", "COVAR_SAMP", "CORR",
                  "REGR_SLOPE", "REGR_INTERCEPT", "REGR_R2", "REGR_COUNT",
                  "REGR_AVGX", "REGR_AVGY", "REGR_SXX", "REGR_SYY",
                  "REGR_SXY",
                  # higher moments, arg-extrema, bitwise/boolean reducers
                  "SKEWNESS", "KURTOSIS", "KURTOSIS_POP",
                  "ARG_MAX", "ARG_MIN", "MAX_BY", "MIN_BY",
                  "BIT_AND", "BIT_OR", "BIT_XOR", "BOOL_AND", "BOOL_OR",
                  "ANY_VALUE", "MODE", "PRODUCT", "ENTROPY"}

# holistic aggregates need every value of the group co-located (no
# mergeable fixed-size partial exists) — like DISTINCT aggregates they take
# the exact route: a key-hash bucket per group, aggregated there in Arrow
# (compiler.ExactAgg)
HOLISTIC_AGG_NAMES = {"MEDIAN", "STRING_AGG", "ARRAY_AGG",
                      "QUANTILE_CONT", "QUANTILE_DISC",
                      "PERCENTILE_CONT", "PERCENTILE_DISC", "MODE",
                      # PRODUCT is distributive in principle but rare —
                      # routed holistic for exact float parity with DuckDB
                      "PRODUCT", "ENTROPY"}


def collect_agg_calls(expr: A.Expr) -> list[A.FuncCall]:
    """All aggregate FuncCall nodes in an expression tree."""
    out: list[A.FuncCall] = []

    def walk(node):
        if isinstance(node, A.FuncCall):
            if node.name in AGG_FUNC_NAMES:
                out.append(node)
                return  # no nested aggs
            for a in node.args:
                walk(a)
        elif isinstance(node, A.BinaryOp):
            walk(node.left); walk(node.right)
        elif isinstance(node, A.UnaryOp):
            walk(node.operand)
        elif isinstance(node, A.Cast):
            walk(node.operand)
        elif isinstance(node, A.CaseWhen):
            for c, v in node.branches:
                walk(c); walk(v)
            if node.else_expr is not None:
                walk(node.else_expr)
        elif isinstance(node, (A.Comparison, A.Like)):
            walk(node.left) if isinstance(node, A.Comparison) else walk(node.operand)
            walk(node.right) if isinstance(node, A.Comparison) else walk(node.pattern)
        elif isinstance(node, (A.And, A.Or)):
            walk(node.left); walk(node.right)
        elif isinstance(node, A.Not):
            walk(node.operand)
        elif isinstance(node, (A.IsNull, A.Between, A.InList, A.Matches)):
            walk(node.operand)

    walk(expr)
    return out


def collect_column_refs(expr, out: set | None = None) -> set:
    """All column names referenced (lower-cased) — used for read pruning."""
    if out is None:
        out = set()
    if isinstance(expr, A.ColumnRef):
        out.add(expr.name.lower())
    elif isinstance(expr, A.WindowCall):
        collect_column_refs(expr.func, out)
        for p in expr.partition_by:
            collect_column_refs(p, out)
        for o in expr.order_by:
            collect_column_refs(o.expr, out)
    elif isinstance(expr, A.BinaryOp):
        collect_column_refs(expr.left, out); collect_column_refs(expr.right, out)
    elif isinstance(expr, A.UnaryOp):
        collect_column_refs(expr.operand, out)
    elif isinstance(expr, A.FuncCall):
        for a in expr.args:
            collect_column_refs(a, out)
        for o in expr.order_by:
            collect_column_refs(o.expr, out)
    elif isinstance(expr, A.Cast):
        collect_column_refs(expr.operand, out)
    elif isinstance(expr, A.CaseWhen):
        for c, v in expr.branches:
            collect_column_refs(c, out); collect_column_refs(v, out)
        if expr.else_expr is not None:
            collect_column_refs(expr.else_expr, out)
    elif isinstance(expr, A.Comparison):
        collect_column_refs(expr.left, out); collect_column_refs(expr.right, out)
    elif isinstance(expr, A.IsDistinctFrom):
        collect_column_refs(expr.left, out); collect_column_refs(expr.right, out)
    elif isinstance(expr, (A.And, A.Or)):
        collect_column_refs(expr.left, out); collect_column_refs(expr.right, out)
    elif isinstance(expr, A.Not):
        collect_column_refs(expr.operand, out)
    elif isinstance(expr, A.Like):
        collect_column_refs(expr.operand, out); collect_column_refs(expr.pattern, out)
    elif isinstance(expr, A.Matches):
        collect_column_refs(expr.operand, out); collect_column_refs(expr.pattern, out)
    elif isinstance(expr, A.IsNull):
        collect_column_refs(expr.operand, out)
    elif isinstance(expr, A.Between):
        collect_column_refs(expr.operand, out)
        collect_column_refs(expr.low, out); collect_column_refs(expr.high, out)
    elif isinstance(expr, A.InList):
        collect_column_refs(expr.operand, out)
        for v in expr.values:
            collect_column_refs(v, out)
    elif isinstance(expr, A.InSubquery):
        # only the OUTER operand's columns; the subquery reads its own table
        collect_column_refs(expr.operand, out)
    elif isinstance(getattr(expr, "query", None), A.Select):
        # unresolved (correlated) scalar subquery: its WHERE may reference
        # OUTER columns — collect them so read pruning keeps those columns
        # (the inner table's names are harmless extras for pruning)
        q = expr.query
        for it in q.items:
            if isinstance(it, A.SelectItem):
                collect_column_refs(it.expr, out)
        if q.where is not None:
            collect_column_refs(q.where, out)
    return out
