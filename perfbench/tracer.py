"""Span tracer for one evenodd CLI child, and the per-layer aggregation.

The layers are the package's modules. `install` wraps each layer's entry
functions (BOUNDARIES) and patches the name in every evenodd module that
imported it. Spans (name, layer, start, end, parent, busy) and counts stay in
memory; the child writes them out when it exits.

A call's span is busy from entry to return. A generator's span is busy only
while one of its resumptions runs, so the consumer's work between items is not
charged to it. Self time is a span's busy time minus the busy time of its
child spans.

Functions called once per member or per cell (`is_member`,
`part_allowed_for_A`, the single bijection maps, `CountTable.value`) are not
timed: wrapping each call would distort the run, so their time lands in the
span of their caller. `CountTable.value` calls are counted; the lazy table fill
it triggers (`CountTable._fill`) is a span of its own.
"""

import time
import types

NAME, LAYER, START, END, PARENT, BUSY = range(6)


class Tracer:
    """Records spans and counts for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self._stack = []

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, None, None, parent, 0.0])
        return len(self.spans) - 1

    def call(self, name, layer, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside one span."""
        idx = self._open(name, layer)
        span = self.spans[idx]
        self._stack.append(idx)
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            self._stack.pop()
            span[START], span[END], span[BUSY] = t0, t1, t1 - t0

    def iterate(self, name, layer, items, count_name=None):
        """Yield from the iterator `items`, busy only inside its resumptions.

        With count_name, the number of items yielded is added to that count,
        also when the consumer stops early.
        """
        idx = self._open(name, layer)
        span, stack, clock = self.spans[idx], self._stack, self.clock
        yielded = 0
        try:
            while True:
                stack.append(idx)
                t0 = clock()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    stack.pop()
                    if span[START] is None:
                        span[START] = t0
                    span[END] = t1
                    span[BUSY] += t1 - t0
                yielded += 1
                yield item
        finally:
            if count_name is not None:
                self.add(count_name, yielded)


def self_times(spans) -> list:
    """Self time of each span: its busy time minus its children's busy time."""
    child_busy = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_busy[span[PARENT]] += span[BUSY]
    return [span[BUSY] - child for span, child in zip(spans, child_busy)]


def _family_layer(args, kwargs):
    f = args[1] if len(args) > 1 else kwargs["f"]
    return "partitions." + f.kind


def _count_coeffs(tracer, series):
    tracer.add("qseries.coeffs", len(series.coeffs))


def _count_rows(tracer, rows):
    tracer.add("bijections.rows", len(rows))
    tracer.add("bijections.roundtrip_ok", sum(1 for r in rows if r.roundtrip_ok))


# (module, attribute, layer or layer-of-arguments, on result, is generator)
BOUNDARIES = (
    ("partitions", "enumerate_family", _family_layer, None, True),
    ("partitions", "count_family", _family_layer, None, False),
    ("partitions", "counts_by_length", _family_layer, None, False),
    ("recurrences", "CountTable._fill", "recurrences.table", None, False),
    ("recurrences", "family_count_via_table", "recurrences.table", None, False),
    ("recurrences", "verify_system", "recurrences.sweep", None, False),
    ("recurrences", "compare_table_oracle", "recurrences.sweep", None, False),
    ("recurrences", "shift_identity_check", "recurrences.sweep", None, False),
    ("recurrences", "refined_AB_witness", "recurrences.sweep", None, False),
    ("qseries", "restricted_parts_product", "qseries", _count_coeffs, False),
    ("qseries", "product_for_A", "qseries", None, False),
    ("qseries", "series_from_counts", "qseries", _count_coeffs, False),
    ("bijections", "trace_bijection", "bijections", _count_rows, False),
)


def _wrap(tracer, name, layer, on_result, is_generator, fn):
    layer_of = layer if callable(layer) else (lambda args, kwargs: layer)
    if is_generator:

        def wrapper(*args, **kwargs):
            lay = layer_of(args, kwargs)
            return tracer.iterate(name, lay, fn(*args, **kwargs), lay + ".members")

    else:

        def wrapper(*args, **kwargs):
            result = tracer.call(name, layer_of(args, kwargs), fn, *args, **kwargs)
            if on_result is not None:
                on_result(tracer, result)
            return result

    return wrapper


def _count_calls(tracer, count_name, fn):
    def wrapper(*args, **kwargs):
        counts[count_name] += 1
        return fn(*args, **kwargs)

    counts = tracer.counts
    counts.setdefault(count_name, 0)
    return wrapper


def _patch(modules, owner, attr, original, replacement):
    """Replace `original` on its owner and wherever a module imported it."""
    setattr(owner, attr, replacement)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def install(tracer, package) -> list:
    """Wrap every boundary of the imported `package`; return the names of
    boundaries it no longer has (they are skipped, not traced)."""
    modules = [package] + [m for m in vars(package).values() if isinstance(m, types.ModuleType)]
    missing = []
    for mod_name, attr, layer, on_result, is_generator in BOUNDARIES:
        owner = getattr(package, mod_name, None)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            missing.append("%s.%s" % (mod_name, attr))
            continue
        name = "%s.%s" % (mod_name, attr)
        _patch(modules, owner, leaf, original, _wrap(tracer, name, layer, on_result, is_generator, original))
    table = getattr(getattr(package, "recurrences", None), "CountTable", None)
    if table is not None and hasattr(table, "value"):
        table.value = _count_calls(tracer, "recurrences.table.lookups", table.value)
    else:
        missing.append("recurrences.CountTable.value")
    return missing


KINDS = ("P", "B", "A")
LAYER_COUNTS = (
    "partitions.P.members",
    "partitions.B.members",
    "partitions.A.members",
    "recurrences.table.lookups",
    "qseries.coeffs",
    "bijections.rows",
    "bijections.roundtrip_ok",
)


def pass_layers(children) -> dict:
    """Per-layer totals over one pass: busy seconds, counts and span calls.

    `children` holds each invocation's trace record: {"spans", "counts"}.
    """
    busy, counts, calls = {}, dict.fromkeys(LAYER_COUNTS, 0), {}
    for child in children:
        spans = child["spans"]
        for span, own in zip(spans, self_times(spans)):
            busy[span[LAYER]] = busy.get(span[LAYER], 0.0) + own
            calls[span[LAYER]] = calls.get(span[LAYER], 0) + 1
        for key, value in child["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return {"busy": busy, "counts": counts, "calls": calls}


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(layers: dict, bytes_out: int) -> dict:
    """The per-layer metrics of one traced pass, by name."""
    busy, counts, calls = layers["busy"], layers["counts"], layers["calls"]
    out = {}
    for kind in KINDS:
        members = counts["partitions.%s.members" % kind]
        seconds = busy.get("partitions." + kind, 0.0)
        out["partitions.%s.members" % kind] = members
        out["partitions.%s.busy_s" % kind] = seconds
        if kind != "A":
            out["partitions.%s.members_per_s" % kind] = _rate(members, seconds)
    out["recurrences.sweep.busy_s"] = busy.get("recurrences.sweep", 0.0)
    out["recurrences.sweep.calls"] = calls.get("recurrences.sweep", 0)
    out["recurrences.table.busy_s"] = busy.get("recurrences.table", 0.0)
    out["recurrences.table.lookups"] = counts["recurrences.table.lookups"]
    out["qseries.busy_s"] = busy.get("qseries", 0.0)
    out["qseries.coeffs"] = counts["qseries.coeffs"]
    rows = counts["bijections.rows"]
    out["bijections.busy_s"] = busy.get("bijections", 0.0)
    out["bijections.rows"] = rows
    out["bijections.rows_per_s"] = _rate(rows, out["bijections.busy_s"])
    out["bijections.roundtrip_ok_frac"] = counts["bijections.roundtrip_ok"] / rows if rows else 0.0
    out["cli.busy_s"] = busy.get("cli", 0.0)
    out["cli.bytes_out"] = bytes_out
    out["cli.bytes_per_s"] = _rate(bytes_out, out["cli.busy_s"])
    return out
