"""JSON schemas for every wire type, with path-carrying validation errors.

Parsers raise SchemaError whose message starts with the JSON path of the
offending node; encoders emit documents that re-parse under the same
schemas (round-trip property).
"""

from __future__ import annotations

from itertools import chain

from cechtower.abelian import FgAbGroup, Homomorphism
from cechtower.cochain import (
    Cochain,
    CochainComplex,
    CohomologyClass,
    SimplicialComplex,
    cech_complex,
    cochain_from_values,
)
from cechtower.errors import SchemaError, ValidationError
from cechtower.exactseq import ShortExactSequence, validate_ses
from cechtower.liftgerbe import (
    CentralExtension,
    FiniteGroup,
    TransitionCocycle,
    transition_from_values,
    validate_extension,
)
from cechtower.spectral import FilteredComplex
from cechtower.tower import TowerSpec


def _expect(doc: object, path: str, kind: type, what: str):
    if not isinstance(doc, kind) or (kind is int and isinstance(doc, bool)):
        raise SchemaError(path, f"expected {what}")
    return doc


def _expect_int(doc: object, path: str) -> int:
    return _expect(doc, path, int, "an integer")


def _expect_list(doc: object, path: str) -> list:
    return _expect(doc, path, list, "an array")


def _expect_dict(doc: object, path: str) -> dict:
    return _expect(doc, path, dict, "an object")


def _get(doc: dict, key: str, path: str):
    if key not in doc:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return doc[key]


def parse_group(doc: object, path: str) -> FgAbGroup:
    d = _expect_dict(doc, path)
    free_rank = _expect_int(_get(d, "free_rank", path), f"{path}.free_rank")
    torsion = _expect_list(_get(d, "torsion", path), f"{path}.torsion")
    vals = [_expect_int(v, f"{path}.torsion[{i}]") for i, v in enumerate(torsion)]
    try:
        return FgAbGroup(free_rank, tuple(vals))
    except ValidationError as e:
        raise SchemaError(path, str(e)) from None


def group_to_doc(g: FgAbGroup) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


def parse_matrix(doc: object, path: str) -> tuple[tuple[int, ...], ...]:
    rows = _expect_list(doc, path)
    out = []
    for i, row in enumerate(rows):
        r = _expect_list(row, f"{path}[{i}]")
        out.append(tuple(_expect_int(v, f"{path}[{i}][{j}]")
                         for j, v in enumerate(r)))
    return tuple(out)


def parse_homomorphism(doc: object, path: str) -> Homomorphism:
    d = _expect_dict(doc, path)
    source = parse_group(_get(d, "source", path), f"{path}.source")
    target = parse_group(_get(d, "target", path), f"{path}.target")
    matrix = parse_matrix(_get(d, "matrix", path), f"{path}.matrix")
    try:
        return Homomorphism(source, target, matrix)
    except ValidationError as e:
        raise SchemaError(f"{path}.matrix", str(e)) from None


def homomorphism_to_doc(h: Homomorphism) -> dict:
    return {"source": group_to_doc(h.source), "target": group_to_doc(h.target),
            "matrix": [list(r) for r in h.matrix]}


def parse_complex(doc: object, path: str) -> SimplicialComplex:
    """A site from its vertex count and facets.  Every facet entry is
    type-checked in one pass; only when that fails are the entries walked
    one by one, to name the path of the first bad node."""
    d = _expect_dict(doc, path)
    vc = _expect_int(_get(d, "vertex_count", path), f"{path}.vertex_count")
    facets = _expect_list(_get(d, "facets", path), f"{path}.facets")
    if not ({list}.issuperset(map(type, facets))
            and {int}.issuperset(map(type, chain.from_iterable(facets)))):
        for i, f in enumerate(facets):
            for j, v in enumerate(_expect_list(f, f"{path}.facets[{i}]")):
                _expect_int(v, f"{path}.facets[{i}][{j}]")
    if vc <= 0:
        raise SchemaError(f"{path}.vertex_count", "vertex_count must be positive")
    try:
        return SimplicialComplex(vc, facets)
    except ValidationError as e:
        raise SchemaError(f"{path}.facets", str(e)) from None


def complex_to_doc(x: SimplicialComplex) -> dict:
    return {"vertex_count": x.vertex_count,
            "facets": [list(f) for f in x.facets]}


def _parse_cell_key(key: str, seen: dict, path: str) -> tuple[int, ...]:
    """The cell a key names, refused when a key before it in ``seen``
    names the same cell ("0" and "+0", or "0,1" and "0, 1")."""
    try:
        cell = tuple(int(part) for part in key.split(","))
    except ValueError:
        raise SchemaError(path, f"cell key {key!r} is not comma-joined integers") \
            from None
    if any(a >= b for a, b in zip(cell, cell[1:])):
        raise SchemaError(path, f"cell key {key!r} is not strictly increasing")
    if cell in seen:
        raise SchemaError(path, f"cell key {key!r} names the cell {cell} of an earlier key")
    return cell


def parse_cochain(doc: object, complex_: CochainComplex, path: str) -> Cochain:
    d = _expect_dict(doc, path)
    degree = _expect_int(_get(d, "degree", path), f"{path}.degree")
    if degree < 0:
        raise SchemaError(f"{path}.degree", "degree must be non-negative")
    values_doc = _expect_dict(_get(d, "values", path), f"{path}.values")
    values = {}
    for key, val in values_doc.items():
        cell = _parse_cell_key(key, values, f"{path}.values.{key}")
        vl = _expect_list(val, f"{path}.values.{key}")
        values[cell] = [_expect_int(v, f"{path}.values.{key}[{j}]")
                        for j, v in enumerate(vl)]
    try:
        return cochain_from_values(complex_, degree, values)
    except ValidationError as e:
        raise SchemaError(f"{path}.values", str(e)) from None


def cochain_to_doc(c: Cochain) -> dict:
    k = c.complex.ncells(c.degree)
    cells = c.complex.base.cells(c.degree)
    ng = c.complex.coefficients.ngens
    values = {}
    for s, cell in enumerate(cells):
        values[",".join(map(str, cell))] = [c.coords[g * k + s] for g in range(ng)]
    return {"degree": c.degree, "values": values}


def class_to_doc(cl: CohomologyClass) -> dict:
    return {"degree": cl.degree, "group": group_to_doc(cl.group),
            "coords": list(cl.coords)}


def parse_ses(doc: object, path: str) -> ShortExactSequence:
    d = _expect_dict(doc, path)
    a = parse_group(_get(d, "A", path), f"{path}.A")
    b = parse_group(_get(d, "B", path), f"{path}.B")
    c = parse_group(_get(d, "C", path), f"{path}.C")
    iota_m = parse_matrix(_get(d, "iota", path), f"{path}.iota")
    pi_m = parse_matrix(_get(d, "pi", path), f"{path}.pi")
    try:
        iota = Homomorphism(a, b, iota_m)
    except ValidationError as e:
        raise SchemaError(f"{path}.iota", str(e)) from None
    try:
        pi = Homomorphism(b, c, pi_m)
    except ValidationError as e:
        raise SchemaError(f"{path}.pi", str(e)) from None
    try:
        return validate_ses(a, b, c, iota, pi)
    except ValidationError as e:
        raise SchemaError(path, str(e)) from None


def ses_to_doc(s: ShortExactSequence) -> dict:
    return {"A": group_to_doc(s.a), "B": group_to_doc(s.b), "C": group_to_doc(s.c),
            "iota": [list(r) for r in s.iota.matrix],
            "pi": [list(r) for r in s.pi.matrix]}


def parse_tower_spec(doc: object, path: str) -> TowerSpec:
    d = _expect_dict(doc, path)
    x = parse_complex(_get(d, "complex", path), f"{path}.complex")
    seq_doc = _expect_list(_get(d, "sequences", path), f"{path}.sequences")
    sequences = tuple(parse_ses(s, f"{path}.sequences[{i}]")
                      for i, s in enumerate(seq_doc))
    if sequences:
        band = sequences[0].c
        if "band" in d:
            declared = parse_group(d["band"], f"{path}.band")
            if declared != band:
                raise SchemaError(f"{path}.band",
                                  "band disagrees with the first sequence's C term")
    elif "band" in d:
        band = parse_group(d["band"], f"{path}.band")
    else:
        raise SchemaError(f"{path}.band",
                          "a tower without sequences needs an explicit band")
    comp = cech_complex(x, band)
    c2 = parse_cochain(_get(d, "c2", path), comp, f"{path}.c2")
    try:
        return TowerSpec(x, c2, sequences)
    except ValidationError as e:
        raise SchemaError(path, str(e)) from None


def parse_filtered(doc: object, path: str) -> FilteredComplex:
    d = _expect_dict(doc, path)
    x = parse_complex(_get(d, "complex", path), f"{path}.complex")
    summands_doc = _expect_list(_get(d, "summands", path), f"{path}.summands")
    if not summands_doc:
        raise SchemaError(f"{path}.summands", "need at least one summand")
    summands = tuple(parse_group(s, f"{path}.summands[{i}]")
                     for i, s in enumerate(summands_doc))
    return FilteredComplex(x, summands)


def parse_finite_group(doc: object, path: str) -> FiniteGroup:
    d = _expect_dict(doc, path)
    order = _expect_int(_get(d, "order", path), f"{path}.order")
    table = parse_matrix(_get(d, "table", path), f"{path}.table")
    identity = _expect_int(_get(d, "identity", path), f"{path}.identity")
    try:
        return FiniteGroup(order, table, identity)
    except ValidationError as e:
        raise SchemaError(path, str(e)) from None


def finite_group_to_doc(g: FiniteGroup) -> dict:
    return {"order": g.order, "table": [list(r) for r in g.table],
            "identity": g.identity}


def parse_extension(doc: object, path: str) -> CentralExtension:
    d = _expect_dict(doc, path)
    g = parse_finite_group(_get(d, "G", path), f"{path}.G")
    lab = parse_group(_get(d, "L", path), f"{path}.L")
    le_doc = _expect_list(_get(d, "L_elements", path), f"{path}.L_elements")
    le = [_expect_int(v, f"{path}.L_elements[{i}]") for i, v in enumerate(le_doc)]
    pi_doc = _expect_list(_get(d, "pi", path), f"{path}.pi")
    pi = [_expect_int(v, f"{path}.pi[{i}]") for i, v in enumerate(pi_doc)]
    q = parse_finite_group(_get(d, "Q", path), f"{path}.Q")
    try:
        return validate_extension(g, lab, le, pi, q)
    except ValidationError as e:
        raise SchemaError(path, str(e)) from None


def parse_transition(doc: object, site: SimplicialComplex, quotient: FiniteGroup,
                     path: str) -> TransitionCocycle:
    d = _expect_dict(doc, path)
    labels = {}
    for key, val in d.items():
        cell = _parse_cell_key(key, labels, f"{path}.{key}")
        if len(cell) != 2:
            raise SchemaError(f"{path}.{key}", "edge keys must have two vertices")
        labels[cell] = _expect_int(val, f"{path}.{key}")
    try:
        return transition_from_values(site, quotient, labels)
    except ValidationError as e:
        raise SchemaError(path, str(e)) from None


def extension_to_doc(ext: CentralExtension) -> dict:
    return {"G": finite_group_to_doc(ext.group),
            "L": group_to_doc(ext.kernel_group),
            "L_elements": list(ext.kernel_elements),
            "pi": list(ext.projection),
            "Q": finite_group_to_doc(ext.quotient)}
