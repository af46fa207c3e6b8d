"""The general capped arithmetic of PadicScalar, kept as a test oracle.

``add``, ``mul`` and ``neg`` are ``PadicScalar.__add__``, ``__mul__`` and
``__neg__`` as they were before the fast branches by operand kind, with
no branch for any particular kind mix: every capped sum is combined at
the joint absolute precision through ``_to_unit_parts`` and every capped
result is rebuilt through ``PadicScalar.capped``.  The fast branches must
return a scalar equal to these field for field.
"""

from padicops.padic import PadicScalar


def fields(x):
    return (x.p, x.kind, x.frac, x.v, x.unit, x.N, x.bound)


def _check_compat(a, b):
    if a.p != b.p:
        raise ValueError(f"prime mismatch: {a.p} vs {b.p}")


def add(a, b):
    _check_compat(a, b)
    p = a.p
    if a.kind == "exact" and b.kind == "exact":
        return PadicScalar(p, "exact", frac=a.frac + b.frac)
    acc_prec = min(a._abs_precision(), b._abs_precision())
    terms = [x for x in (a, b) if not (x.is_exact_zero() or x.kind == "zero")]
    if not terms:
        if a.is_exact_zero() and b.is_exact_zero():
            return PadicScalar.from_int(p, 0)
        return PadicScalar.capped_zero(p, int(acc_prec))
    vmin = min(t.valuation() for t in terms)
    acc_prec = int(acc_prec)
    if vmin >= acc_prec:
        return PadicScalar.capped_zero(p, acc_prec)
    pk = p ** (acc_prec - vmin)
    acc = 0
    for t in terms:
        tv, tu = t._to_unit_parts(acc_prec - vmin)
        acc = (acc + tu * p ** (int(tv) - vmin)) % pk
    if acc == 0:
        return PadicScalar.capped_zero(p, acc_prec)
    shift = 0
    while acc % p == 0:
        acc //= p
        shift += 1
    v = vmin + shift
    return PadicScalar.capped(p, v, acc, acc_prec - v)


def neg(a):
    if a.kind == "exact":
        return PadicScalar(a.p, "exact", frac=-a.frac)
    if a.kind == "unit":
        return PadicScalar.capped(a.p, a.v, -a.unit, a.N)
    return a


def mul(a, b):
    _check_compat(a, b)
    p = a.p
    if a.kind == "exact" and b.kind == "exact":
        return PadicScalar(p, "exact", frac=a.frac * b.frac)
    if a.is_exact_zero() or b.is_exact_zero():
        return PadicScalar.from_int(p, 0)
    if a.kind == "zero" or b.kind == "zero":
        bound = a.valuation_lower_bound() + b.valuation_lower_bound()
        return PadicScalar.capped_zero(p, int(bound))
    N = min(x.N for x in (a, b) if x.kind == "unit")
    v1, u1 = a._to_unit_parts(N)
    v2, u2 = b._to_unit_parts(N)
    return PadicScalar.capped(p, v1 + v2, (u1 * u2) % p**N, N)
