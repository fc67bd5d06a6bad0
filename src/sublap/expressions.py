"""Safe scalar-field expressions for configs and verification suites.

Expressions are parsed with `ast` and evaluated against a whitelist of
names: coordinates (x, y, z, t and x0..x{n-1}), numpy elementwise
functions, and the constants pi and e.  Anything else is rejected, so a
config typo fails loudly instead of producing a silent wrong field.
"""

from __future__ import annotations

import ast

import numpy as np

_FUNCS = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sqrt": np.sqrt,
    "log": np.log,
    "tanh": np.tanh,
    "abs": np.abs,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "where": np.where,
}
_CONSTS = {"pi": np.pi, "e": np.e}
_COORD_LETTERS = ["x", "y", "z", "t"]

_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name, ast.Constant,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd,
    ast.Compare, ast.Gt, ast.GtE, ast.Lt, ast.LtE, ast.Load, ast.Tuple,
)


def compile_expression(expr, n):
    """Compile an expression string into a callable points (N, n) -> (N,); constants broadcast.

    An expression that does not parse, whose evaluation raises an
    ArithmeticError (1/0, an overflowing power), or that takes a NaN or
    infinite value at some point (sqrt(x) at x < 0) raises ValueError naming
    it, and in the last case the first such point.
    """
    names = {}
    for k in range(n):
        if k < len(_COORD_LETTERS) and n <= len(_COORD_LETTERS):
            names[_COORD_LETTERS[k]] = k
        names[f"x{k}"] = k
    if n == 3:
        names["t"] = 2  # Heisenberg-style coordinates (x, y, t)
    try:
        tree = ast.parse(expr, mode="eval")
        for node in ast.walk(tree):
            if not isinstance(node, _ALLOWED_NODES):
                raise ValueError(f"disallowed syntax in expression: {type(node).__name__}")
            if isinstance(node, ast.Call):
                if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
                    raise ValueError("only whitelisted functions may be called")
            if isinstance(node, ast.Name):
                if node.id not in names and node.id not in _FUNCS and node.id not in _CONSTS:
                    raise ValueError(f"unknown name in expression: {node.id!r}")
            if isinstance(node, ast.Constant) and type(node.value) is int:
                node.value = float(node.value)  # so a huge power overflows at once
    except (SyntaxError, OverflowError) as exc:
        raise ValueError(f"expression {expr!r} does not parse: {exc}") from None
    code = compile(tree, "<field-expression>", "eval")

    def fn(points):
        pts = np.asarray(points, dtype=float)
        env = dict(_FUNCS)
        env.update(_CONSTS)
        for name, k in names.items():
            env[name] = pts[:, k]
        try:
            with np.errstate(all="ignore"):
                out = eval(code, {"__builtins__": {}}, env)
        except ArithmeticError as exc:
            raise ValueError(f"expression {expr!r} fails: {exc}") from None
        out = np.asarray(out, dtype=float)
        if out.shape != (pts.shape[0],):
            out = np.broadcast_to(out, (pts.shape[0],)).copy()
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            raise ValueError(f"expression {expr!r} is {out[bad[0]]} at {pts[bad[0]].tolist()}")
        return out

    return fn
