"""Per-layer tracing of teter, installed from outside the package.

``Tracer.install`` replaces the public functions of each teter module by
timing wrappers at every module attribute and class attribute that binds
them (``teter.fiber`` imports ``matmul_mod``, ``RowSpace`` and
``rank_of`` by name, ``teter.classify`` imports ``assoc_graded_is_cm``,
``teter.cli`` imports ``teter_check``, and so on); ``uninstall`` puts the
originals back.  Nothing inside ``src/`` knows about it.

Every wrapped call is a span with a parent link: the innermost wrapped
call that was running when it started.  A span's self time is its
duration minus the durations of the spans whose parent link points at
it.  Calls, inclusive time and self time are summed per function; spans
of the functions not marked hot are also kept one by one, tagged with the
input they belong to, and written out when the run ends.  Hot functions
run millions of times per pass, so they only feed the sums.
"""

import functools
import json
import sys
import time

import numpy as np

# (module, qualified name, hot): the public functions of each layer.
# NumericalSemigroup.contains and RelativeIdeal.contains are left out:
# they are called tens of millions of times per pass, a wrapper would
# multiply the run time, and no metric needs them.
TRACED = (
    ("semigroup", "NumericalSemigroup.__init__", False),
    ("semigroup", "NumericalSemigroup.members_up_to", True),
    ("semigroup", "NumericalSemigroup.apery_set", False),
    ("semigroup", "NumericalSemigroup.ord", True),
    ("ideals", "canonical_ideal", False),
    ("ideals", "quotient_data", False),
    ("classify", "type_condition", False),
    ("classify", "witness_shifts", False),
    ("classify", "monomial_teter_witness", False),
    ("classify", "strongly_teter_check", False),
    ("classify", "teter_check", False),
    ("graded", "assoc_graded_is_cm", False),
    ("graded", "build_graded_model", False),
    ("graded", "socle_dim_mod_xstar", False),
    ("fiber", "default_precision", False),
    ("fiber", "FiberProductRing.__init__", False),
    ("fiber", "FiberProductRing.basis_product", True),
    ("fiber", "FiberProductRing.mult_matrix", False),
    ("fiber", "FiberProductRing.hilbert_function", False),
    ("fiber", "FiberProductRing.multiplicity", False),
    ("fiber", "FiberProductRing.socle_of_reduction", False),
    ("fiber", "FiberProductRing.is_gorenstein", False),
    ("fiber", "FiberProductRing.graded_socle_of_reduction", False),
    ("fiber", "build_approximation", False),
    ("fiber", "verify_approximation", False),
    ("modp", "matmul_mod", True),
    ("modp", "is_prime", False),
    ("modp", "RowSpace.reduce_matrix", True),
    ("modp", "RowSpace.contains", False),
    ("modp", "RowSpace.add_matrix", False),
    ("modp", "rank_of", False),
    ("report", "build_report_document", False),
    ("report", "render_text", False),
    ("cli", "main", False),
)

SPAN_CAP = 50_000

CALLS, TOTAL_S, SELF_S = 0, 1, 2

# metric -> (field of the per-function sums, span name), per pass
PER_PASS = (
    ("semigroup.ctor_calls", CALLS, "semigroup.ctor"),
    ("semigroup.ctor_s", TOTAL_S, "semigroup.ctor"),
    ("semigroup.ord_calls", CALLS, "semigroup.ord"),
    ("semigroup.ord_s", TOTAL_S, "semigroup.ord"),
    ("semigroup.apery_set_calls", CALLS, "semigroup.apery_set"),
    ("semigroup.apery_set_s", TOTAL_S, "semigroup.apery_set"),
    ("graded.assoc_graded_is_cm_calls", CALLS, "graded.assoc_graded_is_cm"),
    ("graded.assoc_graded_is_cm_s", TOTAL_S, "graded.assoc_graded_is_cm"),
    ("graded.assoc_graded_is_cm_self_s", SELF_S, "graded.assoc_graded_is_cm"),
    ("graded.build_graded_model_calls", CALLS, "graded.build_graded_model"),
    ("graded.build_graded_model_s", TOTAL_S, "graded.build_graded_model"),
    ("graded.socle_dim_mod_xstar_s", TOTAL_S, "graded.socle_dim_mod_xstar"),
    ("classify.teter_check_calls", CALLS, "classify.teter_check"),
    ("classify.teter_check_s", TOTAL_S, "classify.teter_check"),
    ("classify.teter_check_self_s", SELF_S, "classify.teter_check"),
    ("classify.witness_shifts_calls", CALLS, "classify.witness_shifts"),
    ("classify.witness_shifts_s", TOTAL_S, "classify.witness_shifts"),
    ("classify.strongly_teter_check_s", TOTAL_S, "classify.strongly_teter_check"),
    ("ideals.canonical_ideal_calls", CALLS, "ideals.canonical_ideal"),
    ("ideals.quotient_data_calls", CALLS, "ideals.quotient_data"),
    ("ideals.quotient_data_s", TOTAL_S, "ideals.quotient_data"),
    ("fiber.verify_approximation_s", TOTAL_S, "fiber.verify_approximation"),
    ("fiber.ring_ctor_s", TOTAL_S, "fiber.ctor"),
    ("fiber.multiplicity_s", TOTAL_S, "fiber.multiplicity"),
    ("fiber.hilbert_function_calls", CALLS, "fiber.hilbert_function"),
    ("fiber.hilbert_function_s", TOTAL_S, "fiber.hilbert_function"),
    ("fiber.socle_of_reduction_s", TOTAL_S, "fiber.socle_of_reduction"),
    (
        "fiber.graded_socle_of_reduction_s",
        TOTAL_S,
        "fiber.graded_socle_of_reduction",
    ),
    ("fiber.basis_product_calls", CALLS, "fiber.basis_product"),
    ("modp.matmul_mod_calls", CALLS, "modp.matmul_mod"),
    ("modp.matmul_mod_s", TOTAL_S, "modp.matmul_mod"),
    ("modp.add_matrix_calls", CALLS, "modp.add_matrix"),
    ("modp.add_matrix_s", TOTAL_S, "modp.add_matrix"),
    ("modp.reduce_matrix_calls", CALLS, "modp.reduce_matrix"),
    ("modp.rank_of_calls", CALLS, "modp.rank_of"),
    ("modp.rank_of_s", TOTAL_S, "modp.rank_of"),
    ("report.build_report_document_s", TOTAL_S, "report.build_report_document"),
    ("cli.self_s", SELF_S, "cli.main"),
)

# metric -> counter, per pass; modp.matmul_flops is computed from the
# operand shapes as 2 m k n, not measured
COUNTED = (
    ("classify.shifts_scanned", "shifts_scanned"),
    ("classify.shifts_certified", "shifts_certified"),
    ("modp.matmul_flops", "matmul_flops"),
    ("modp.rows_offered", "rows_offered"),
    ("modp.rows_added", "rows_added"),
)

VERDICTS = ("Gorenstein", "Teter", "NotTeter", "Unknown")


def _span_name(module, qualname):
    attr = qualname.rsplit(".", 1)[-1]
    return "%s.%s" % (module, "ctor" if attr == "__init__" else attr)


class Tracer:
    """Spans and counters of one traced run; see the module docstring."""

    def __init__(self, current_item):
        self.current_item = current_item
        self.stats = {}  # span name -> [calls, inclusive s, self s]
        self.counters = dict.fromkeys(
            (
                "shifts_scanned",
                "shifts_certified",
                "matmul_flops",
                "rows_offered",
                "rows_added",
                "width_total",
            ),
            0,
        )
        self.verdicts = {}
        self.spans = []
        self.spans_dropped = 0
        self._stack = []
        self._next_id = 1
        self._patched = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, hot, after):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # frame: [time of the children, own span id, parent span id]
            if hot:
                frame = [0.0, None, None]
            else:
                parent = None
                for outer in reversed(stack):
                    if outer[1] is not None:
                        parent = outer[1]
                        break
                frame = [0.0, self._next_id, parent]
                self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if not hot:
                    if len(spans) < SPAN_CAP:
                        spans.append(
                            (
                                frame[1],
                                frame[2],
                                name,
                                self.current_item(),
                                start,
                                duration,
                                duration - frame[0],
                            )
                        )
                    else:
                        self.spans_dropped += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after_witness_shifts(self, args, kwargs, found):
        H = args[0]
        mult = args[1] if len(args) > 1 else kwargs.get("window_multiplier", 1)
        top = mult * (H.generators[-1] + H.frobenius)
        self.counters["shifts_scanned"] += max(0, top - H.frobenius + 1)
        self.counters["shifts_certified"] += len(found)

    def _after_teter_check(self, args, kwargs, report):
        self.verdicts[report.verdict] = self.verdicts.get(report.verdict, 0) + 1

    def _after_ring_ctor(self, args, kwargs, _):
        self.counters["width_total"] += args[0].width

    def _after_matmul(self, args, kwargs, _):
        (m, k), n = np.shape(args[0]), np.shape(args[1])[-1]
        self.counters["matmul_flops"] += 2 * m * k * n

    def _after_add_matrix(self, args, kwargs, added):
        mat = args[1]
        self.counters["rows_offered"] += len(mat)
        self.counters["rows_added"] += added

    def install(self):
        after = {
            "classify.witness_shifts": self._after_witness_shifts,
            "classify.teter_check": self._after_teter_check,
            "fiber.ctor": self._after_ring_ctor,
            "modp.matmul_mod": self._after_matmul,
            "modp.add_matrix": self._after_add_matrix,
        }
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "teter" or key.startswith("teter.")
        ]
        for module, qualname, hot in TRACED:
            home = sys.modules["teter." + module]
            name = _span_name(module, qualname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                wrapped = self._wrap(name, original, hot, after.get(name))
                setattr(cls, attr, wrapped)
                self._patched.append((cls, attr, original))
                continue
            original = getattr(home, qualname)
            wrapped = self._wrap(name, original, hot, after.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- results ------------------------------------------------------------

    def layer_metrics(self, passes):
        """Per-layer metrics; counts and seconds are per pass over the input."""
        out = {}
        for metric, field, span in PER_PASS:
            out[metric] = self.stats.get(span, (0, 0.0, 0.0))[field] / passes
        for metric, counter in COUNTED:
            out[metric] = self.counters[counter] / passes

        def calls(span):
            return self.stats.get(span, (0,))[0]

        def ratio(num, den):
            return num / den if den else 0.0

        checks = calls("classify.teter_check")
        rings = calls("fiber.ctor")
        c = self.counters
        out["graded.cm_calls_per_semigroup"] = ratio(
            calls("graded.assoc_graded_is_cm"), checks
        )
        out["classify.witness_yield"] = ratio(
            c["shifts_certified"], c["shifts_scanned"]
        )
        for verdict in VERDICTS:
            out["classify.verdict." + verdict] = ratio(
                self.verdicts.get(verdict, 0), checks
            )
        out["fiber.rings_per_verify"] = ratio(
            rings, calls("fiber.verify_approximation")
        )
        out["fiber.width"] = ratio(c["width_total"], rings)
        out["modp.row_yield"] = ratio(c["rows_added"], c["rows_offered"])
        return out

    def write(self, path, passes):
        """Spans, per-function sums and counters as one JSON document."""
        doc = {
            "passes": passes,
            "functions": {
                name: {"calls": calls, "total_s": total, "self_s": own}
                for name, (calls, total, own) in sorted(self.stats.items())
            },
            "counters": self.counters,
            "verdicts": self.verdicts,
            "span_columns": [
                "id",
                "parent",
                "name",
                "item",
                "start_s",
                "duration_s",
                "self_s",
            ],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))
