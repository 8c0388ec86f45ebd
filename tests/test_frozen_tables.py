"""Frozen digests of the full tables of every table-building construction.

Audits and dict equality accept any consistent relabelling or
reordering of cells; these digests do not.  Each entry hashes the
canonical form of one instance: for a simplicial set its document
encoding, for a bisimplicial set its four operator tables, for a
simplicial category the encoding of every level plus the signature of
every structure functor.  Stored cell order is hashed as well.

Print the current digests with

    PYTHONPATH=src python tests/test_frozen_tables.py
"""

import hashlib
import json

import pytest

from simpcat.bisset import box_product, d_star, d_star_map, dec, diag, wbar
from simpcat.cat import (Functor, arrow_cat, chaotic, cyclic_group, discrete,
                         nerve, nerve_functor)
from simpcat.document import _encode_category, _encode_sset, encode_name
from simpcat.names import sort_key
from simpcat.scat import (SimplicialFunctor, add_basepoint, colimit_scat,
                          constant_pointed_scat, constant_scat,
                          diag_nerve_iso, diag_nerve_iso_map,
                          nerve_iso_levelwise, pi_functor, pi_levelwise,
                          product_scat, rho, s0_scat, smash, suspend)
from simpcat.spectra import mapping_space
from simpcat.sset import (SimplicialMap, boundary, c_sigma, colimit_sset,
                          coproduct, delta, horn, product_sset, quotient,
                          sphere, truncate, two_point)


def _sha(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _sset(X):
    return {"encoded": _encode_sset(X),
            "order": [[encode_name(x) for x in X.simplices[n]]
                      for n in X.degrees()]}


def _table(table):
    return [[encode_name(x), encode_name(y)]
            for x, y in sorted(table.items(), key=lambda kv: sort_key(kv[0]))]


def _bisset(B):
    tables = {}
    for kind in ("hfaces", "hdegens", "vfaces", "vdegens"):
        ops = getattr(B, kind)
        tables[kind] = {",".join(map(str, key)): _table(ops[key])
                        for key in sorted(ops)}
    return {"order": {f"{p},{q}": [encode_name(x) for x in B.simplices[(p, q)]]
                      for (p, q) in B.shape.sorted()},
            "tables": tables,
            "basepoint": encode_name(B.basepoint) if B.is_pointed() else None}


def _scat(S):
    def functors(ops):
        return {f"{n},{i}": encode_name(F.signature())
                for (n, i), F in sorted(ops.items())}
    return {"bound": S.bound,
            "levels": [_encode_category(S.levels[n])
                       for n in range(S.bound + 1)],
            "faces": functors(S.faces),
            "degens": functors(S.degens),
            "basepoints": ([encode_name(S.basepoints[n])
                            for n in range(S.bound + 1)]
                           if S.is_pointed() else None)}


def _smap(f):
    return {"source": _sset(f.source), "target": _sset(f.target),
            "assign": {str(n): _table(f.assign[n]) for n in sorted(f.assign)}}


def _probe_map(f):
    """The assignment of a simplicial map with names several levels
    deep, without its two ends."""
    return {str(n): [[encode_name(x), encode_name(f(n, x))]
                     for x in f.source.simplices[n]]
            for n in f.source.degrees()}


def _horn_probe_map():
    """The diagonal-nerve map of pi(d_star) on horn(2, 2) -> delta(2, 6)."""
    H, D = horn(2, 2, 6), delta(2, 6)
    incl = SimplicialMap(H, D, {k: {x: x for x in H.simplices[k]}
                                for k in H.degrees()})
    return diag_nerve_iso_map(pi_functor(
        d_star_map(incl), target_pi=pi_levelwise(d_star(D))))


def _const_functor(C, D, obj):
    return Functor(C, D, {o: obj for o in C.objects},
                   {m: D.ident[obj] for m in C.morphisms})


def _glued_pair():
    """Pushout of BZ/2 and the chaotic pair over a point."""
    pt = constant_scat(discrete(range(1)), 2)
    g = constant_scat(cyclic_group(2), 2)
    c = constant_scat(chaotic(range(2)), 2)
    edges = []
    for k, T, obj in ((1, g, "*"), (2, c, 0)):
        F = _const_functor(pt.levels[0], T.levels[0], obj)
        edges.append((0, k, SimplicialFunctor(pt, T, {n: F for n in range(3)})))
    return colimit_scat([pt, g, c], edges)[0]


def _two_disks():
    """Two 2-simplices glued along their boundary."""
    B, D = boundary(2, 3), delta(2, 3)
    incl = SimplicialMap(B, D, {k: {t: t for t in B.simplices[k]}
                                for k in B.degrees()})
    return colimit_sset([B, D, D], [(0, 1, incl), (0, 2, incl)])[0]


CASES = {
    # simplicial sets
    "delta(2,3)": lambda: _sset(delta(2, 3)),
    "boundary(3,3)": lambda: _sset(boundary(3, 3)),
    "horn(3,1,3)": lambda: _sset(horn(3, 1, 3)),
    "truncate(sphere(2,4),2)": lambda: _sset(truncate(sphere(2, 4), 2)),
    "coproduct": lambda: _sset(coproduct([delta(1, 2), sphere(1, 2)])[0]),
    "sphere(2,3)": lambda: _sset(sphere(2, 3)),
    "quotient": lambda: _sset(quotient(delta(2, 3),
                                       [(1, (0, 1), (1, 2))])[0]),
    "colimit_sset": lambda: _sset(_two_disks()),
    "product_sset": lambda: _sset(product_sset(sphere(1, 3), two_point(3))),
    "c_sigma(3,(0,),2)": lambda: _sset(c_sigma(3, (0,), 2)),
    "nerve(arrow,3)": lambda: _sset(nerve(arrow_cat(), 3)),
    "nerve(chaotic(3),3)": lambda: _sset(nerve(chaotic(range(3)), 3)),
    "nerve(Z/3,2)": lambda: _sset(nerve(cyclic_group(3), 2)),
    "nerve_functor": lambda: _smap(nerve_functor(
        _const_functor(chaotic(range(2)), cyclic_group(2), "*"), 3)),
    # bisimplicial sets and their simplicial sets
    "box_product": lambda: _bisset(box_product(delta(1, 2), sphere(1, 2))),
    "dec(sphere(1,4))": lambda: _bisset(dec(sphere(1, 4))),
    "d_star(delta(1,3))": lambda: _bisset(d_star(delta(1, 3))),
    "d_star(sphere(1,3))": lambda: _bisset(d_star(sphere(1, 3))),
    "row": lambda: _sset(dec(delta(2, 4)).row(1)),
    "diag": lambda: _sset(diag(dec(sphere(1, 4)))),
    "wbar": lambda: _sset(wbar(dec(delta(1, 4)))),
    "wbar(box)": lambda: _sset(wbar(box_product(sphere(1, 3), delta(1, 3)))),
    # simplicial categories
    "constant_scat": lambda: _scat(constant_scat(cyclic_group(2), 2)),
    "constant_pointed_scat": lambda: _scat(
        constant_pointed_scat(cyclic_group(2), 0, 2)),
    "s0_scat": lambda: _scat(s0_scat(2)),
    "add_basepoint(Z/2)": lambda: _scat(
        add_basepoint(constant_scat(cyclic_group(2), 2))),
    "add_basepoint(arrow)": lambda: _scat(
        add_basepoint(constant_scat(arrow_cat(), 2))),
    "add_basepoint(pi)": lambda: _scat(
        add_basepoint(pi_levelwise(dec(sphere(1, 5))))),
    "pi_levelwise(dec)": lambda: _scat(pi_levelwise(dec(sphere(1, 5)))),
    "pi_levelwise(d_star)": lambda: _scat(pi_levelwise(d_star(delta(1, 5)))),
    "colimit_scat(no edges)": lambda: _scat(colimit_scat(
        [s0_scat(2), constant_scat(arrow_cat(), 2)], [])[0]),
    "colimit_scat(edges)": lambda: _scat(_glued_pair()),
    "product_scat": lambda: _scat(product_scat(
        s0_scat(2), constant_scat(cyclic_group(2), 2))),
    "product_scat(rho)": lambda: _scat(product_scat(
        constant_scat(cyclic_group(2), 2), rho(delta(1, 5)))),
    "smash": lambda: _scat(smash(s0_scat(2), two_point(5))),
    "suspend": lambda: _scat(suspend(s0_scat(2))),
    "nerve_iso_levelwise": lambda: _bisset(nerve_iso_levelwise(
        pi_levelwise(dec(sphere(1, 5))), 2)),
    "diag_nerve_iso(s0)": lambda: _sset(diag_nerve_iso(s0_scat(3))),
    "diag_nerve_iso(pi)": lambda: _sset(diag_nerve_iso(
        pi_levelwise(d_star(delta(1, 5))))),
    "diag_nerve_iso(suspend(s0))": lambda: _sset(diag_nerve_iso(
        suspend(s0_scat(3)))),
    "diag_nerve_iso_map(horn(2,2))": lambda: _probe_map(_horn_probe_map()),
    "mapping_space": lambda: _sset(mapping_space(
        two_point(3), add_basepoint(constant_scat(cyclic_group(2), 3)))),
}

FROZEN = {
    'add_basepoint(Z/2)': '40dffa504b5849c00aab6d90964981c0f918b78ef548f86a7ee01afcfc0b5b3c',
    'add_basepoint(arrow)': '2665f1d4b4ff43e649fc052455720a6d6dfa2dfc1420ec04a28a7ca1c11fe0de',
    'add_basepoint(pi)': '9923cf89d7a6c0c5f3f1d9a7723c085dee6ffdb6dd95c0dce5fbb9986f464105',
    'boundary(3,3)': 'babb64860e87c372e94151d838bb1e52ea22b711451c9a5ef1a2942b219b3ed8',
    'box_product': '0c2e7cf04ceb3dc2861743eccc2e775c498cfd074256341b258be8dc099185fc',
    'c_sigma(3,(0,),2)': '846d98c88e00aac5d2d27419308df8ce10f6ddd75beeab3c317b29c361ea11e8',
    'colimit_scat(edges)': 'd4642c2dba29b7e5e1eb54587a9f2c40d2075653c19884059b52e39a05a7b725',
    'colimit_scat(no edges)': 'e414b94f7fa840a6e1e2f30c7f0023d20e747ae044f4da9f360d774087dacc92',
    'colimit_sset': 'e044a8be30d5e137ec11de7443e10cb2359c8f27d8cf8af86e12201f683539df',
    'constant_pointed_scat': '03804c844cbde522e8832726cc86733ef8c6bfdd36e33f1a8551fb9bfe54e570',
    'constant_scat': '1dcebb8b4e2a3ee89e8c4282b9a41aaff1c954dde30072e0c1f38f32fdebd7a6',
    'coproduct': 'f6505a3827df972792c7ce2b9cd0dad2654e89a1c83360b1fc9805e0674c4079',
    'd_star(delta(1,3))': '9510eacbe66db5bd734311a578af74005f8c1431408891df611e4a8c373db39c',
    'd_star(sphere(1,3))': '3c935127c8f286685c28a4236b443fa36887bbaa44438682aed2a467d21abbe9',
    'dec(sphere(1,4))': '83981044fb63d990861216454832287b74eb087449a94e441c7a7cb1b48cf576',
    'delta(2,3)': 'f1da32c8983b8f4519cde2842a069beaaf23712e9492be692921b26fa1b980e3',
    'diag': '5c4d7b44bb3f9b8aeb278fb3906346cd328891750cb5e8558bff6b3b3846000e',
    'diag_nerve_iso(pi)': '7d5d803960a7afc238699d362ce997f3ce7a0b086878ebb469ae7d6351e06eda',
    'diag_nerve_iso(s0)': 'fa8ffb67d347b6d1039a654d9102114dfad2704121e07bb7403e0bce20bb22ec',
    'diag_nerve_iso(suspend(s0))': '47a6b2ee8dca883bad908c7efea4c1d3c37fe1512af03d7fcee1da2098a50222',
    'diag_nerve_iso_map(horn(2,2))': '5764fd39ec89160cd45d962cb0b61c35fbe0eeeb8f9055241c428543cba633eb',
    'horn(3,1,3)': '111f7312da6ff4c11f773fb3ecc56a1b578437975fe9ba20f646c47e94c56106',
    'mapping_space': '566a4ece57f49fa0ae14c36a5363b79e1f2bd2f087034deda2b26a38efd65e56',
    'nerve(Z/3,2)': 'd46dbef74fa0b5ff8ac98dc2941059e1dff2648251116420de0323b64512d140',
    'nerve(arrow,3)': '7c8027fd77da8e425d946ed61b248ec3c0e75986583293724fab43ec7ca8cfec',
    'nerve(chaotic(3),3)': '39e79a8470124c9681d265db7ce1a4d761229172108d2ce327ac85b5764a1970',
    'nerve_functor': '44908ede1264250db54c9d3fb437c3924995a999bf00ec9a4c29f8f0373f1354',
    'nerve_iso_levelwise': 'fb88fe1bfa15c5c1317a4b003328eb7cdb2576c87a38a63261fe7c9be98325c4',
    'pi_levelwise(d_star)': '09dcd9f2850b978415cbc91199e71391da1de13b6cef77a2c6fb28c920e2a211',
    'pi_levelwise(dec)': 'e4dbd46094079d6ba3e2cf3ec2bcda17632208030a57e1fa0dcd3a476c389a3a',
    'product_scat': '038c4feca093a4eaf8111bcad185deddaf60089adef0ccd141c3eedf520077af',
    'product_scat(rho)': 'bf39ffe36349bd3310bfa3aa267a911d0b5b7dc698dce3328c94f4b7d4984a84',
    'product_sset': '668650d0e560f7e65aa6e64b7e8203415e9d167d8911c2145e7459dd2df12551',
    'quotient': '467b7daea59fb8ac480acb00fd8cfa28d3b0824d0511f5a64219100d503fe202',
    'row': '998733d91c288ae4cf563d9ceb8165d90f36e3c774631e8979528e1706dd7f58',
    's0_scat': 'd9e8f6733511b11184e8343854b3c31aec77c79ae7d7d4be2c0b42bc58513dc4',
    'smash': '45c23da471b47e64875fa8748f53efe8c74abb49c7f72d9e15a1d21f07f31f7e',
    'sphere(2,3)': 'dc62fe2e3e2c43211a87618402b31a6b04280304c13188c4c273002845e47c70',
    'suspend': '9ab24b5e18c076813d83e7426389a4caae958420dd7ba2dc5794903a922b7acd',
    'truncate(sphere(2,4),2)': '2d7698a24b2ff4e398ac095e3674b64b4e35c86502a725c5f799b20a0b0b40b4',
    'wbar': 'e0cf3c829688715dd7b3da524388a98cb172dd9d8e3240fc457dfe30004d6c7d',
    'wbar(box)': 'd88a3297732ab04f2b5597684bfea7b4065139287a01447dabff73cd89c041aa',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_frozen_table_digest(name):
    assert _sha(CASES[name]()) == FROZEN[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}: {_sha(CASES[name]())!r},")
