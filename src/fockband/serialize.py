"""JSON wire formats for tuples, elements, and certificates.

Matrices travel as ``{"rows", "cols", "re", "im"}`` with row-major nested
lists, so complex data survives plain JSON.  Compound objects carry their
shape parameters and a ``kind`` tag.  Certificates embed everything
needed to re-check them from scratch: a serialized completion carries its
arms, a serialized decomposition carries the element it decomposes.

``dumps_canonical`` fixes key order alphabetically and keeps Python's
shortest-round-trip float formatting, so identical objects serialize to
byte-identical strings.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import InputError
from .ensys import (DualElement, DualMap, EnDecomposition, EnElement, dual_element,
                    dual_map, en_element)
from .fock import MatrixTuple
from .linalg import as_matrix, lam_min
from .radius import ContractionVerdict, RadiusEstimate
from .shorted import AndoCertificate, arrowhead_matrix


def matrix_to_json(m: np.ndarray) -> dict[str, Any]:
    m = np.asarray(m, dtype=np.complex128)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [[float(x) for x in row] for row in m.real],
        "im": [[float(x) for x in row] for row in m.imag],
    }


def matrix_from_json(d: Any, name: str = "matrix") -> np.ndarray:
    if not isinstance(d, dict):
        raise InputError(f"{name}: expected an object, got {type(d).__name__}")
    try:
        rows, cols = int(d["rows"]), int(d["cols"])
        re = np.asarray(d["re"], dtype=np.float64)
        im = np.asarray(d["im"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{name}: malformed matrix object ({exc})")
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise InputError(
            f"{name}: data shape {re.shape}/{im.shape} disagrees with ({rows}, {cols})")
    return as_matrix(re + 1j * im, name)


def tuple_to_json(t: MatrixTuple) -> dict[str, Any]:
    return {"kind": "matrix_tuple", "n": t.n, "p": t.p,
            "a": [matrix_to_json(m) for m in t.a]}


def tuple_from_json(d: Any) -> MatrixTuple:
    if not isinstance(d, dict) or "a" not in d:
        raise InputError("tuple JSON must be an object with an 'a' array")
    entries = d["a"]
    if not isinstance(entries, list) or not entries:
        raise InputError("'a' must be a nonempty array of matrices")
    return MatrixTuple.from_arrays(
        [matrix_from_json(m, f"a[{i}]") for i, m in enumerate(entries)])


def en_element_to_json(e: EnElement) -> dict[str, Any]:
    return {"kind": "en_element", "n": e.n, "p": e.p,
            "a0": matrix_to_json(e.a0), "b": matrix_to_json(e.b),
            "arms": [matrix_to_json(m) for m in e.arms]}


def en_element_from_json(d: Any) -> EnElement:
    if not isinstance(d, dict):
        raise InputError("element JSON must be an object")
    try:
        return en_element(matrix_from_json(d["a0"], "a0"), matrix_from_json(d["b"], "b"),
                          [matrix_from_json(m, f"arms[{i}]")
                           for i, m in enumerate(d["arms"])])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed element JSON ({exc})")


def dual_element_from_json(d: Any) -> DualElement:
    if not isinstance(d, dict):
        raise InputError("dual element JSON must be an object")
    try:
        return dual_element(matrix_from_json(d["B0"], "B0"),
                            [matrix_from_json(m, f"B[{i}]") for i, m in enumerate(d["B"])])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed dual element JSON ({exc})")


def dual_map_from_json(d: Any) -> DualMap:
    if not isinstance(d, dict):
        raise InputError("map JSON must be an object")
    try:
        return dual_map(matrix_from_json(d["unit"], "unit"),
                        [matrix_from_json(m, f"x[{i}]") for i, m in enumerate(d["x"])])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed map JSON ({exc})")


def certificate_to_json(c: AndoCertificate) -> dict[str, Any]:
    return {
        "kind": "ando_certificate",
        "a": matrix_to_json(c.a),
        "b": matrix_to_json(c.b),
        "arms": [matrix_to_json(m) for m in c.arms.a],
        "margin": float(c.margin),
        "epsilon": float(c.epsilon_used),
        "depth": int(c.depth_used),
    }


def certificate_from_json(d: Any) -> AndoCertificate:
    if not isinstance(d, dict):
        raise InputError("certificate JSON must be an object")
    try:
        a = matrix_from_json(d["a"], "a")
        b = matrix_from_json(d["b"], "b")
        arms = MatrixTuple.from_arrays(
            [matrix_from_json(m, f"arms[{i}]") for i, m in enumerate(d["arms"])])
        epsilon = float(d["epsilon"])
        depth = int(d["depth"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed certificate JSON ({exc})")
    if a.shape != (arms.p, arms.p) or b.shape != a.shape:
        raise InputError(f"a {a.shape} and b {b.shape} must be {(arms.p, arms.p)} like the arms")
    head = arrowhead_matrix(a, arms.a, b)
    return AndoCertificate(a=a, b=b, arrowhead=head, margin=lam_min(head),
                           epsilon_used=epsilon, depth_used=depth, arms=arms)


def decomposition_to_json(dec: EnDecomposition, element: EnElement) -> dict[str, Any]:
    return {
        "kind": "en_decomposition",
        "n": dec.n,
        "p": dec.p,
        "epsilon": float(dec.epsilon),
        "D": matrix_to_json(dec.D),
        "P": [[float(x) for x in row] for row in dec.P],
        "Q": matrix_to_json(dec.Q),
        "element": en_element_to_json(element),
    }


def decomposition_from_json(d: Any) -> tuple[EnDecomposition, EnElement]:
    if not isinstance(d, dict):
        raise InputError("decomposition JSON must be an object")
    try:
        n, p = int(d["n"]), int(d["p"])
        dec = EnDecomposition(
            n=n, p=p,
            D=matrix_from_json(d["D"], "D"),
            P=np.asarray(d["P"], dtype=np.float64),
            Q=matrix_from_json(d["Q"], "Q"),
            epsilon=float(d["epsilon"]))
        element = en_element_from_json(d["element"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed decomposition JSON ({exc})")
    m = n + 1
    for name, got, want in (("element (n, p)", (element.n, element.p), (n, p)),
                            ("P", dec.P.shape, (m * m, m * m)), ("D", dec.D.shape, (p, p)),
                            ("Q", dec.Q.shape, (m * p, m * p))):
        if got != want:
            raise InputError(f"{name} is {got}, expected {want}")
    return dec, element


def verdict_to_json(v: ContractionVerdict) -> dict[str, Any]:
    out: dict[str, Any] = {"status": v.status, "margin": float(v.margin)}
    if v.depth is not None:
        out["depth"] = int(v.depth)
    if v.certificate is not None:
        out["certificate"] = certificate_to_json(v.certificate)
    return out


def estimate_to_json(e: RadiusEstimate) -> dict[str, Any]:
    out: dict[str, Any] = {"lower": float(e.lower), "upper": float(e.grid_upper),
                           "theta_points": int(e.theta_points)}
    if e.depth is not None:
        out["depth"] = int(e.depth)
    return out


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, shortest-round-trip floats."""
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}")
