"""Per-layer metrics from a traced pass.

The traced pass enables ``cProfile`` around each op call only, so the
profile holds vacalc's own calls and the benchmark's thin call glue, which
is classified as ``bench`` and left out.  A layer is a module of
``src/vacalc`` (the ``frontend`` package counts as one layer); the standard
library's ``fractions`` belongs to ``scalar``.  Time spent in a function of
no layer (a C builtin, ``enum``, ``json``, dataclass-generated methods) is
charged to the layers that called it, in proportion to the self time each
caller's calls took.

Two counters cannot come from the profile, so the traced pass installs two
call-through wrappers for its duration and removes them afterwards: one on
``Scalar.__mul__``/``__rmul__`` that counts multiplications with a factor
of exactly 1, and one on ``VertexEngine.__init__`` that collects the
engines an op creates, whose cache sizes are read after the op.
"""

from __future__ import annotations

import cProfile
import fractions
import pstats
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
VACALC = str(HERE.parent / "src" / "vacalc")
LAYERS = ("scalar", "poly", "formal_dist", "lie_conformal", "mode_algebra", "vertex_calc", "frontend")

# metric -> "module:qualified name" of the function whose calls it counts
ENTRY_POINTS = {
    "scalar.mul_calls": "scalar:Scalar.__mul__",
    "scalar.add_calls": "scalar:Scalar.__add__",
    "poly.add_calls": "poly:BracketPoly.add",
    "lie_conformal.lambda_bracket_calls": "lie_conformal:lambda_bracket",
    "lie_conformal.j_products_calls": "lie_conformal:j_products",
    "mode_algebra.mode_commutator_calls": "mode_algebra:mode_commutator",
    "mode_algebra.expr_add_calls": "mode_algebra:ModeExpression.add",
    "vertex_calc.word_bracket_calls": "vertex_calc:VertexEngine._word_bracket",
    "vertex_calc.translate_calls": "vertex_calc:VertexElement.translate",
    "vertex_calc.word_element_calls": "vertex_calc:VertexEngine.word_element",
    "vertex_calc.element_add_calls": "vertex_calc:VertexElement.add",
}
CACHE_LOOKUPS = {
    "_bracket_cache": "vertex_calc:VertexEngine._word_bracket",
    "_insert_cache": "vertex_calc:VertexEngine._insert_atom_word",
}


def _resolve(target):
    """cProfile's label of a function named ``module:Qualified.name``."""
    import importlib

    module, _, qualname = target.partition(":")
    obj = importlib.import_module(f"vacalc.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
    code = getattr(obj, "__code__", None)
    return None if code is None else (code.co_filename, code.co_firstlineno, code.co_name)


def module_layer(filename):
    if filename.startswith(VACALC):
        rel = filename[len(VACALC):].lstrip("/")
        name = "frontend" if rel.startswith("frontend") else rel.rsplit(".", 1)[0]
        return name if name in LAYERS else "other"
    if filename == fractions.__file__:
        return "scalar"
    if filename.startswith(str(HERE)):
        return "bench"
    return None


def _is_one(x):
    # Reads attributes only: a Python-level call here would land in the profile.
    if type(x) is int:
        return x == 1
    if type(x) is fractions.Fraction:
        return x._numerator == 1 and x._denominator == 1
    terms = getattr(x, "_terms", None)
    if terms is None or len(terms) != 1 or () not in terms:
        return False
    return _is_one(terms[()])


class Tracer:
    """Profiles op calls and collects the counters described above."""

    def __init__(self):
        from vacalc.scalar import Scalar
        from vacalc.vertex_calc import VertexEngine

        labels = {t: _resolve(t) for t in {*ENTRY_POINTS.values(), *CACHE_LOOKUPS.values()}}
        for target, label in sorted(labels.items()):
            if label is None:
                print(f"bench: {target} not found; its counts read 0", file=sys.stderr)
        self.labels = {name: labels[t] for name, t in ENTRY_POINTS.items()}
        self.cache_labels = {attr: labels[t] for attr, t in CACHE_LOOKUPS.items()}
        self.profile = cProfile.Profile()
        self.mul = [0, 0]  # multiplications, of which by exactly 1
        self.growth = dict.fromkeys(CACHE_LOOKUPS, 0)
        self.cache_entries = 0
        self._engines = []
        self._scalar, self._engine = Scalar, VertexEngine
        self._saved = (Scalar.__dict__["__mul__"], Scalar.__dict__["__rmul__"], VertexEngine.__init__)

    def __enter__(self):
        mul, rmul, init = self._saved
        counts, engines = self.mul, self._engines

        def counted_mul(a, b):
            counts[0] += 1
            if _is_one(a) or _is_one(b):
                counts[1] += 1
            return mul(a, b)

        def counted_rmul(a, b):
            counts[0] += 1
            if _is_one(a) or _is_one(b):
                counts[1] += 1
            return rmul(a, b)

        def recording_init(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            engines.append(engine)

        self._scalar.__mul__, self._scalar.__rmul__ = counted_mul, counted_rmul
        self._engine.__init__ = recording_init
        return self

    def __exit__(self, *exc):
        self._scalar.__mul__, self._scalar.__rmul__, self._engine.__init__ = self._saved
        return False

    def call(self, fn):
        """Run one op under the profiler and read its engines' caches."""
        self._engines.clear()
        self.profile.enable()
        try:
            return fn()
        finally:
            self.profile.disable()
            entries = 0
            for engine in self._engines:
                for attr in self.growth:
                    size = len(getattr(engine, attr, ()))
                    self.growth[attr] += size
                    entries += size
            self.cache_entries = max(self.cache_entries, entries)
            self._engines.clear()

    def metrics(self) -> dict:
        stats = pstats.Stats(self.profile).stats
        owners = {}

        def owner(func, seen=()):
            if func in owners:
                return owners[func]
            layer = module_layer(func[0])
            if layer is None:
                callers = [c for c in stats[func][4] if c not in seen]
                if callers:
                    top = max(callers, key=lambda c: stats[func][4][c][2])
                    layer = owner(top, seen + (func,))
                else:
                    layer = "other"
            owners[func] = layer
            return layer

        self_s = dict.fromkeys(LAYERS + ("bench", "other"), 0.0)
        for func, (_, _, tt, _, callers) in stats.items():
            layer = module_layer(func[0])
            if layer is not None or not callers:
                self_s[layer or "other"] += tt
                continue
            for caller, (_, _, caller_tt, _) in callers.items():
                self_s[owner(caller)] += caller_tt

        def entering(prefix, column):
            """Calls (column 0) or cumulative seconds (column 3) entering
            the functions of files under ``prefix`` from outside them."""
            total = 0
            for func, (_, _, _, _, callers) in stats.items():
                if func[0].startswith(prefix):
                    total += sum(v[column] for c, v in callers.items() if not c[0].startswith(prefix))
            return total

        def calls(label):
            return stats[label][1] if label in stats else 0

        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update({name: calls(label) for name, label in self.labels.items()})
        out["scalar.mul_by_one_ratio"] = self.mul[1] / self.mul[0] if self.mul[0] else 0.0
        out["formal_dist.calls"] = entering(f"{VACALC}/formal_dist.py", 0)
        out["frontend.parse_s"] = entering(f"{VACALC}/frontend/parser.py", 3)
        out["frontend.render_s"] = entering(f"{VACALC}/frontend/render.py", 3)
        for attr, metric in (("_bracket_cache", "bracket"), ("_insert_cache", "insert")):
            lookups = calls(self.cache_labels[attr])
            out[f"vertex_calc.{metric}_cache_hit_ratio"] = (
                1 - self.growth[attr] / lookups if lookups else 0.0
            )
        out["vertex_calc.cache_entries"] = self.cache_entries
        return out
