"""Spectrum objects over pointed simplicial categories.

A spectrum is a finite list of pointed simplicial categories with
structure maps from the suspension of each level to the next.  The
module provides iterated-suspension spectra, the shift, mapping spaces
computed through the diagonal nerve, a bounded probe for the
loop-spectrum condition, and a K-theory report built from certified
invariants only.
"""

from __future__ import annotations

from .cat import CategoryError, _coset_closure
from .homology import (abelianization, edge_path_group, homology, pi0,
                       ProbeVerdict)
from .names import sort_key
from .scat import (SimplicialFunctor, constant_pointed_scat, diag_nerve_iso,
                   suspend)
from .sset import (TruncatedSimplicialSet, delta, enumerate_maps,
                   product_sset, truncate)
from .cat import Functor, terminal_cat


class SpectrumObject:
    def __init__(self, levels, structure):
        self.levels = list(levels)
        self.structure = list(structure)   # sigma_n: suspend(levels[n]) -> levels[n+1]
        if len(self.structure) != len(self.levels) - 1:
            raise CategoryError("need one structure map between adjacent levels")

    @property
    def length(self):
        return len(self.levels)

    def level(self, n):
        return self.levels[n]

    def validate(self, max_violations=20):
        v = []
        for n, D in enumerate(self.levels):
            if not D.is_pointed():
                v.append(f"level {n} is not pointed")
            v.extend(f"level {n}: {msg}" for msg in D.audit(max_violations))
        for n, sigma in enumerate(self.structure):
            if sigma.target is not self.levels[n + 1]:
                v.append(f"structure map {n} has wrong target")
            v.extend(f"structure map {n}: {msg}"
                     for msg in sigma.validate(pointed=True))
        return v[:max_violations]


def sigma_infinity(C, length, tag="pi_dec", closure_bound=20000,
                   colim_bound=20000):
    """Iterated suspensions with identity structure maps."""
    if not C.is_pointed():
        raise CategoryError("suspension spectra need a pointed input")
    levels = [C]
    structure = []
    for _ in range(length - 1):
        nxt = suspend(levels[-1], tag, closure_bound, colim_bound)
        levels.append(nxt)
        ident = SimplicialFunctor(
            nxt, nxt, {n: Functor.identity(nxt.levels[n])
                       for n in range(nxt.bound + 1)})
        structure.append(ident)
    return SpectrumObject(levels, structure)


def terminal_spectrum(length, bound=3):
    pt = constant_pointed_scat(terminal_cat(), "*", bound)
    ident = SimplicialFunctor(pt, pt, {n: Functor.identity(pt.levels[n])
                                       for n in range(bound + 1)})
    return SpectrumObject([pt] * length, [ident] * (length - 1))


def shift(S):
    """Drop level 0 and reindex."""
    if S.length < 2:
        raise CategoryError("shift needs length at least 2")
    return SpectrumObject(S.levels[1:], S.structure[1:])


# ---------------------------------------------------------------------
# mapping spaces
# ---------------------------------------------------------------------

def _degenerate_basepoint(Y, m):
    """The unique m-simplex degenerate over the basepoint vertex."""
    y = Y.basepoint
    for k in range(m):
        y = Y.degen(k, 0, y)
    return y


def mapping_space(X, C, n_max=None):
    """Map(X, diag_nerve_iso C): degree n holds the pointed simplicial
    maps X x Delta^n -> diag_nerve_iso(C), with faces and degeneracies
    acting by reindexing the simplex factor."""
    if not X.is_pointed() or not C.is_pointed():
        raise CategoryError("mapping spaces need pointed inputs")
    D = diag_nerve_iso(C)
    b = min(X.bound, D.bound)
    Xb, Db = truncate(X, b), truncate(D, b)
    top = b if n_max is None else min(n_max, b)

    level_maps, simplices = {}, {}
    for n in range(top + 1):
        P = product_sset(Xb, delta(n, b))
        fixed = {}
        for m in P.degrees():
            for (x, a) in P.nondegenerate(m):
                base, word = Xb.ez(m, x)
                if len(word) == m and base == Xb.basepoint:
                    fixed[(m, (x, a))] = _degenerate_basepoint(Db, m)
        maps = enumerate_maps(P, Db, fixed=fixed)
        cells = [(m, z) for m in P.degrees()
                 for z in sorted(P.nondegenerate(m), key=sort_key)]
        named = {}
        for f in maps:
            named[tuple(f(m, z) for (m, z) in cells)] = f
        simplices[n] = tuple(sorted(named, key=sort_key))
        level_maps[n] = (cells, named)

    def table(n, m, k):
        # reindex the simplex factor along the coface skipping k
        # (m = n - 1) or the codegeneracy collapsing k, k + 1 (m = n + 1)
        cut, step = (k, 1) if m < n else (k + 1, -1)
        cells_m, _ = level_maps[m]
        return {name: tuple(f(deg, (x, tuple(v if v < cut else v + step
                                             for v in a)))
                            for (deg, (x, a)) in cells_m)
                for name, f in level_maps[n][1].items()}

    bp = None
    for name, f in level_maps[0][1].items():
        if all(f(m, z) == _degenerate_basepoint(Db, m)
               for m in range(b + 1) for z in f.source.simplices[m]):
            bp = name
            break
    return TruncatedSimplicialSet.from_operators(top, simplices, table,
                                                 basepoint=bp)


# ---------------------------------------------------------------------
# loop-spectrum probe
# ---------------------------------------------------------------------

def _loop_class_count(X, v, bound):
    """Order of the edge-path group at v, or None when the bounded
    closure does not finish; "infinite" when the abelianization has
    positive free rank."""
    P = edge_path_group(X, v)
    relators = []
    for w in P.relators:
        relators.append(tuple(2 * (g - 1) if g > 0 else 2 * (-g - 1) + 1
                              for g in w))
    table = _coset_closure(len(P.generators), relators, bound)
    if table is not None:
        return len(table)
    if abelianization(P).free_rank > 0:
        return "infinite"
    return None


class OmegaProbeReport:
    def __init__(self, verdicts):
        self.verdicts = list(verdicts)

    @property
    def overall(self):
        kinds = [v.kind for v in self.verdicts]
        if "refuted" in kinds:
            return "refuted"
        if "inconclusive" in kinds:
            return "inconclusive"
        return "confirmed"

    def __repr__(self):
        per = ", ".join(f"{n}: {v}" for n, v in enumerate(self.verdicts))
        return f"OmegaProbeReport({self.overall}; {per})"


def omega_spectrum_probe(S, k=1, closure_bound=20000):
    """Compare |pi_0| of each level against the number of loop classes
    at the basepoint of the next level.  A finite/infinite or numeric
    mismatch refutes the loop-spectrum condition at that level."""
    verdicts = []
    for n in range(S.length - 1):
        Dn = diag_nerve_iso(S.level(n))
        Dn1 = diag_nerve_iso(S.level(n + 1))
        components = len(pi0(Dn))
        loops = _loop_class_count(Dn1, Dn1.basepoint, closure_bound)
        if loops is None:
            verdicts.append(ProbeVerdict.inconclusive(
                f"level {n}: loop count did not close within {closure_bound}"))
        elif loops == "infinite":
            verdicts.append(ProbeVerdict.refuted(
                0, f"level {n}: pi_0 has {components} elements but the loop "
                   f"classes at level {n + 1} are infinite"))
        elif loops != components:
            verdicts.append(ProbeVerdict.refuted(
                0, f"level {n}: pi_0 has {components} elements, "
                   f"{loops} loop classes at level {n + 1}"))
        else:
            verdicts.append(ProbeVerdict.confirmed(k))
    return OmegaProbeReport(verdicts)


# ---------------------------------------------------------------------
# K-theory report
# ---------------------------------------------------------------------

class KReport:
    def __init__(self, k0_size, k0_basepoint_class, k1_presentation,
                 k1_abelian, homology_upper):
        self.k0_size = k0_size
        self.k0_basepoint_class = k0_basepoint_class
        self.k1_presentation = k1_presentation
        self.k1_abelian = k1_abelian
        self.homology_upper = homology_upper   # {i: descriptor}, i >= 2
        self.caveat = "homology approximation, not K_i"

    def __repr__(self):
        upper = {i: str(h) for i, h in sorted(self.homology_upper.items())}
        return (f"KReport(K0 size {self.k0_size}, K1 ab {self.k1_abelian}, "
                f"H {upper} [{self.caveat}])")


def k_groups(C, k=1):
    """K_0 = components of the diagonal nerve with the basepoint class,
    K_1 = edge-path group at the basepoint with its abelianization, and
    homology in degrees 2..k flagged as an approximation only."""
    if not C.is_pointed():
        raise CategoryError("K-theory needs a pointed input")
    D = diag_nerve_iso(C)
    components = pi0(D)
    bp_class = next(i for i, comp in enumerate(components)
                    if D.basepoint in comp)
    P = edge_path_group(D, D.basepoint)
    upper = {i: homology(D, i) for i in range(2, k + 1)}
    return KReport(len(components), bp_class, P, abelianization(P), upper)
