"""Spans around calls into ellprod, recorded from outside the program.

``Tracer.install`` replaces every public function of the traced ellprod
modules (and the public methods of the classes of ``isogenies`` and
``products``) by a wrapper, in every ellprod namespace where a caller
can look the name up.  A name bound in a module other than its home is
wrapped separately and its spans carry that module as their *site*: for
example ``ellprod.preimages.exact_divide`` (the strip loop) and
``ellprod.curves.exact_divide`` (the multiplication maps) both record
``polynomials.exact_divide`` spans, told apart by site.

Spans (name, site, start, end, parent, job, phase, info) stay in memory
and are written out at the end.  The few functions called per point or
per tuple (``HOT``) would make millions of spans, so each of their calls
adds a count and a duration to the enclosing span instead; a hot call
made inside another hot call is not counted on its own.

The methods of the arithmetic value types (MultiPoly, WeierstrassCurve,
CurvePoint, ...) are the inner loop of every layer and are not wrapped.
"""

import functools
import importlib
import inspect
import json
from time import perf_counter

LAYERS = ("polynomials", "curves", "isogenies", "products", "preimages",
          "oracle", "certificates", "heights", "cli")
# Layers whose classes are thin bookkeeping objects; their methods are traced.
METHOD_LAYERS = ("isogenies", "products")
HOT = frozenset(("oracle.eval_mod", "oracle.scalar_mul_mod", "oracle.add_points_mod"))


def _terms(p):
    return 0 if p is None else len(p.terms)


def _maps_info(args, out):
    return {"out_terms": sum(_terms(getattr(out, f))
                             for f in ("r", "s", "t", "r_tilde", "t_tilde"))}


def _substitute_info(args, out):
    return {"out_terms": _terms(out[0])}


def _preimage_info(args, out):
    bits = [abs(c.numerator).bit_length()
            for eq in out.equations for c in eq.terms.values()]
    return {"equation_terms": sum(_terms(eq) for eq in out.equations),
            "max_coeff_bits": max(bits, default=0)}


def _membership_info(args, out):
    return {"iterated": out["iterated"], "excluded": out["excluded"],
            "vanishing": out["equations_vanish"]}


def _is_prime_info(args, out):
    return {"bits": abs(int(args[0])).bit_length()}


INFO = {
    "curves.multiplication_maps": _maps_info,
    "polynomials.substitute": _substitute_info,
    "preimages.generate_preimage": _preimage_info,
    "oracle.verify_preimage_membership": _membership_info,
    "certificates.is_prime": _is_prime_info,
}


class Tracer:
    """Records spans while ``job`` is set; passes calls through otherwise."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.leaves = {}
        self.job = None
        self.phase = "job"
        self.in_hot = False
        self._undo = []

    # -- wrapping ---------------------------------------------------------

    def _span_wrapper(self, fn, name, site):
        tracer = self
        info = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None or tracer.in_hot:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = [name, site, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer.job, tracer.phase, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            raised = True
            span[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                span[3] = perf_counter()
                stack.pop()
                if raised:
                    span[7] = {"raised": True}
            if info is not None:
                span[7] = info(args, out)
            return out
        return wrapper

    def _hot_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None or tracer.in_hot:
                return fn(*args, **kwargs)
            tracer.in_hot = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer.in_hot = False
                key = (tracer.stack[-1] if tracer.stack else -1, name)
                rec = tracer.leaves.get(key)
                if rec is None:
                    tracer.leaves[key] = [1, dt]
                else:
                    rec[0] += 1
                    rec[1] += dt
        return wrapper

    def _wrap(self, fn, name, site):
        if name in HOT:
            return self._hot_wrapper(fn, name)
        return self._span_wrapper(fn, name, site)

    def install(self):
        """Wrap the traced functions of an already imported ellprod."""
        modules = {layer: importlib.import_module("ellprod." + layer)
                   for layer in LAYERS}
        home = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    home[id(obj)] = (obj, "%s.%s" % (layer, attr))
                elif (layer in METHOD_LAYERS and inspect.isclass(obj)
                      and obj.__module__ == mod.__name__):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            wrapped = self._wrap(fn, "%s.%s" % (layer, meth), layer)
                            self._undo.append((obj, meth, fn))
                            setattr(obj, meth, wrapped)
        namespaces = dict(modules)
        namespaces["ellprod"] = importlib.import_module("ellprod")
        for site, mod in namespaces.items():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in home and home[id(obj)][0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(obj, home[id(obj)][1], site))

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo = []

    # -- output -------------------------------------------------------------

    def records(self):
        """Spans and hot-leaf totals as JSON-ready lists."""
        leaves = [[parent, name, count, secs]
                  for (parent, name), (count, secs) in self.leaves.items()]
        return {"spans": self.spans, "leaves": leaves}


def write_records(path, records):
    with open(path, "w") as fh:
        json.dump(records, fh)


def merge_records(parts):
    """Concatenate span records, renumbering parent indices; a part given
    with a job id (a CLI child's records) has its spans filed under it."""
    spans, leaves = [], []
    for part, job in parts:
        base = len(spans)
        for name, site, t0, t1, parent, own_job, phase, info in part["spans"]:
            spans.append([name, site, t0, t1, parent + base if parent >= 0 else -1,
                          own_job if job is None else job, phase, info])
        for parent, name, count, secs in part["leaves"]:
            leaves.append([parent + base if parent >= 0 else -1, name, count, secs])
    return {"spans": spans, "leaves": leaves}


# -- per-layer metrics ------------------------------------------------------


class SpanIndex:
    """Busy and self times over recorded spans of one phase."""

    def __init__(self, records, phase):
        self.spans = records["spans"]
        self.keep = [s[6] == phase for s in self.spans]
        self.children = {}
        for i, s in enumerate(self.spans):
            if s[4] >= 0:
                self.children.setdefault(s[4], []).append(i)
        self.leaf_time = {}
        self.leaf_totals = {}
        for parent, name, count, secs in records["leaves"]:
            if parent >= 0 and not self.keep[parent]:
                continue
            self.leaf_time[parent] = self.leaf_time.get(parent, 0.0) + secs
            tot = self.leaf_totals.setdefault(name, [0, 0.0])
            tot[0] += count
            tot[1] += secs

    def _ancestors(self, i):
        p = self.spans[i][4]
        while p >= 0:
            yield p
            p = self.spans[p][4]

    def select(self, pred):
        return [i for i, s in enumerate(self.spans) if self.keep[i] and pred(s)]

    def outermost(self, pred):
        """Matching spans with no matching ancestor (no double counting)."""
        return [i for i in self.select(pred)
                if not any(pred(self.spans[a]) for a in self._ancestors(i))]

    def dur(self, i):
        return self.spans[i][3] - self.spans[i][2]

    def busy(self, pred):
        return sum(self.dur(i) for i in self.outermost(pred))

    def self_time(self, i):
        kids = self.children.get(i, ())
        return (self.dur(i) - sum(self.dur(k) for k in kids)
                - self.leaf_time.get(i, 0.0))

    def outside_time(self, i, pred):
        """Time inside span i spent in descendants that do not match pred,
        counting only the outermost such descendants."""
        total = 0.0
        for k in self.children.get(i, ()):
            if pred(self.spans[k]):
                total += self.outside_time(k, pred)
            else:
                total += self.dur(k)
        return total

    def info_sum(self, i_list, key):
        return sum((self.spans[i][7] or {}).get(key, 0) for i in i_list)

    def info_max(self, i_list, key):
        return max(((self.spans[i][7] or {}).get(key, 0) for i in i_list), default=0)


def _named(name, site=None):
    return lambda s: s[0] == name and (site is None or s[1] == site)


def _layer(layer):
    return lambda s: s[0].split(".", 1)[0] == layer


def layer_metrics(records, job_seconds):
    """Per-layer metrics of the timed jobs (and of the output checks for
    verify_certificate, which the CLI never calls)."""
    ix = SpanIndex(records, "job")
    chk = SpanIndex(records, "check")
    ms = 1e3
    m = {}

    strip = _named("polynomials.exact_divide", "preimages")
    strip_spans = ix.select(strip)
    strip_failed = sum(1 for i in strip_spans if (ix.spans[i][7] or {}).get("raised"))
    m["polynomials.exact_divide.strip.calls"] = len(strip_spans)
    m["polynomials.exact_divide.strip.failed"] = strip_failed
    m["polynomials.exact_divide.strip.busy_ms"] = ix.busy(strip) * ms
    m["preimages.strip_hit_ratio"] = ((len(strip_spans) - strip_failed) / len(strip_spans)
                                      if strip_spans else 0.0)

    maps = _named("curves.multiplication_maps")
    maps_spans = ix.outermost(maps)
    m["curves.multiplication_maps.calls"] = len(ix.select(maps))
    m["curves.multiplication_maps.busy_ms"] = ix.busy(maps) * ms
    m["curves.multiplication_maps.self_ms"] = sum(ix.self_time(i) for i in maps_spans) * ms
    m["curves.multiplication_maps.out_terms"] = ix.info_sum(ix.select(maps), "out_terms")
    m["polynomials.exact_divide.maps.busy_ms"] = ix.busy(
        _named("polynomials.exact_divide", "curves")) * ms

    subst = _named("polynomials.substitute")
    m["polynomials.substitute.busy_ms"] = ix.busy(subst) * ms
    m["polynomials.substitute.out_terms"] = ix.info_sum(ix.select(subst), "out_terms")
    for fn in ("reduce_weierstrass", "integer_primitive", "parse_poly"):
        m["polynomials.%s.busy_ms" % fn] = ix.busy(_named("polynomials." + fn)) * ms
    gen = ix.outermost(_named("preimages.generate_preimage"))
    m["preimages.generate_preimage.self_ms"] = sum(ix.self_time(i) for i in gen) * ms
    m["preimages.equation_terms"] = ix.info_sum(gen, "equation_terms")
    m["preimages.max_coeff_bits"] = ix.info_max(gen, "max_coeff_bits")

    for fn in ("eval_mod", "scalar_mul_mod"):
        count, secs = ix.leaf_totals.get("oracle." + fn, (0, 0.0))
        m["oracle.%s.calls" % fn] = count
        m["oracle.%s.busy_ms" % fn] = secs * ms
    m["oracle.enumerate_points.calls"] = len(ix.select(_named("oracle.enumerate_points")))
    for fn in ("verify_preimage_membership", "enumerate_points",
               "verify_maps_vs_group_law", "degree_spot_check"):
        m["oracle.%s.busy_ms" % fn] = ix.busy(_named("oracle." + fn)) * ms
    memb = ix.select(_named("oracle.verify_preimage_membership"))
    iterated = ix.info_sum(memb, "iterated")
    excluded = ix.info_sum(memb, "excluded")
    vanishing = ix.info_sum(memb, "vanishing")
    m["oracle.tuples_iterated"] = iterated
    m["oracle.tuples_excluded"] = excluded
    m["oracle.tuples_vanishing"] = vanishing
    m["oracle.positive_ratio"] = (vanishing / (iterated - excluded)
                                  if iterated > excluded else 0.0)

    is_prime = _named("certificates.is_prime")
    m["certificates.is_prime.calls"] = len(ix.select(is_prime))
    m["certificates.is_prime.busy_ms"] = ix.busy(is_prime) * ms
    m["certificates.is_prime.max_bits"] = ix.info_max(ix.select(is_prime), "bits")
    m["certificates.check.busy_ms"] = ix.busy(
        lambda s: s[0].startswith("certificates.check_")
        or s[0] == "certificates.certify_auto") * ms
    m["certificates.verify_certificate.busy_ms"] = chk.busy(
        _named("certificates.verify_certificate")) * ms

    heights = _layer("heights")
    m["heights.calls"] = len(ix.outermost(heights))
    m["heights.busy_ms"] = ix.busy(heights) * ms
    cli_main = ix.outermost(_named("cli.main"))
    cli = _layer("cli")
    m["cli.main.busy_ms"] = sum(ix.dur(i) for i in cli_main) * ms
    m["cli.main.self_ms"] = sum(ix.dur(i) - ix.outside_time(i, cli)
                                for i in cli_main) * ms
    m["isogenies.busy_ms"] = ix.busy(_layer("isogenies")) * ms
    m["products.busy_ms"] = ix.busy(_layer("products")) * ms

    # Shares of the timed job wall time, for the claims of BENCHMARK.json.
    oracle = _layer("oracle")
    oracle_outer = ix.outermost(oracle)
    oracle_own = sum(ix.dur(i) - ix.outside_time(i, oracle) for i in oracle_outer)
    m["share.curves.multiplication_maps"] = ix.busy(maps) / job_seconds
    m["share.polynomials.exact_divide.strip"] = ix.busy(strip) / job_seconds
    m["share.oracle"] = oracle_own / job_seconds
    return m
