"""Seeded inputs and output oracles for the fockband benchmark workloads.

Every workload is a fixed *pass*: a list of items whose shapes, verbs and
scales are set here, and whose matrix entries and unitaries come from
the seed.  A run repeats whole passes, so each run measures the same mix
whatever the seed, and two seeds differ only in the random entries.

An item is one user request: one CLI call, or a check followed by
``verify`` on the certificate it emitted.  The oracles never trust the
program's own numbers.  Verdicts are judged against a truth known from
the way the input was built, radii against closed forms and bounds.

Facts the oracles rest on, for a tuple a = (a_1, .., a_n) with row norm
r = ||sum a_i a_i*||^(1/2) and joint numerical radius w:

* w_d <= ||T_d|| = r and w_d >= r/2 at every depth d >= 1, so r <= 1/2
  means a dual row contraction (yes) and r > 1 means none (no), with a
  refutation at depth 1 already.
* For a unitarily conjugated diagonal tuple a_j = U diag(c_j) U*, the
  depth-d radius is max_k ||c^(k)|| cos(pi/(d+2)), where c^(k) collects
  the k-th diagonal entries; its limit is max_k ||c^(k)||.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

#: Verdict strings of the CLI reports.
YES, NO, UNDECIDED = "certified_yes", "certified_no", "undecided"

#: Exit code the CLI returns for each verdict.
VERDICT_EXIT = {YES: 0, NO: 1, UNDECIDED: 2}

#: Accepted verdicts per truth; an undecided verdict is never a failure.
ACCEPTS = {"yes": {YES, UNDECIDED}, "no": {NO, UNDECIDED}}

#: Agreement demanded of a computed radius with its closed form.
RADIUS_TOL = 1e-8

#: Slack for comparisons between two computed radii (ordering, bounds).
ORDER_TOL = 1e-10


@dataclass(frozen=True)
class Item:
    """One request: CLI arguments, the JSON fed on stdin, and oracle data."""

    kind: str
    argv: tuple
    payload: str
    truth: str | None = None
    oracle: dict = field(default_factory=dict, compare=False)


def matrix_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "re": m.real.tolist(), "im": m.imag.tolist()}


def tuple_json(mats) -> dict:
    return {"kind": "matrix_tuple", "n": len(mats), "p": int(mats[0].shape[0]),
            "a": [matrix_json(m) for m in mats]}


def json_matrix(d: dict) -> np.ndarray:
    return np.asarray(d["re"], dtype=np.float64) + 1j * np.asarray(d["im"], dtype=np.float64)


def row_norm(mats) -> float:
    g = sum(m @ m.conj().T for m in mats)
    return math.sqrt(max(0.0, float(np.linalg.eigvalsh(0.5 * (g + g.conj().T))[-1])))


class Gen:
    """Seeded tuple factory."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def gaussian(self, p: int) -> np.ndarray:
        return self.rng.standard_normal((p, p)) + 1j * self.rng.standard_normal((p, p))

    def unitary(self, p: int) -> np.ndarray:
        q, r = np.linalg.qr(self.gaussian(p))
        d = np.diag(r)
        return q * (d / np.abs(d))

    def random_tuple(self, n: int, p: int, r: float) -> list:
        """Gaussian tuple scaled to row norm exactly ``r``."""
        mats = [self.gaussian(p) for _ in range(n)]
        s = r / row_norm(mats)
        return [s * m for m in mats]

    def diag_tuple(self, n: int, blocks: list, radius: float) -> list:
        """Tuple U diag(c_j) U* with block-diagonal U and max_k ||c^(k)|| = ``radius``.

        ``radius`` is the tuple's joint numerical radius, exactly.
        """
        p = sum(blocks)
        c = self.rng.standard_normal((n, p)) + 1j * self.rng.standard_normal((n, p))
        c *= radius / np.linalg.norm(c, axis=0).max()
        u = np.zeros((p, p), dtype=np.complex128)
        off = 0
        for s in blocks:
            u[off:off + s, off:off + s] = self.unitary(s)
            off += s
        return [u @ np.diag(c[j]) @ u.conj().T for j in range(n)]


def _check_item(mats, truth: str) -> Item:
    return Item("check", ("check-dual-row",), json.dumps(tuple_json(mats)), truth,
                {"arms": mats})


def _cp_item(adj, truth: str) -> Item:
    """cp-check on the map whose adjoint arm tuple is ``adj``, the tuple it decides."""
    q = int(adj[0].shape[0])
    payload = {"kind": "dual_map", "n": len(adj), "q": q, "unit": matrix_json(np.eye(q)),
               "x": [matrix_json(m.conj().T) for m in adj]}
    return Item("cp", ("cp-check",), json.dumps(payload), truth, {"arms": adj})


def _dilate_item(mats, depth: int) -> Item:
    n = len(mats)
    return Item("dilate", ("dilate", "--depth", str(depth)), json.dumps(tuple_json(mats)),
                None, {"depth": depth, "words": sum(n ** k for k in range(1, min(3, depth) + 1)),
                       "rank_max": n * int(mats[0].shape[0])})


#: (n, p) of the check-dual-row items per pass.  The (2, 2) shapes, dense
#: at 254 rows, hold the middle ranks of the latency order, so the median
#: sits inside one group of like items rather than on the edge between two.
CERTIFY_YES = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 2), (2, 2), (2, 2), (2, 2),
               (2, 2), (3, 1), (3, 1), (2, 3), (2, 3), (3, 3), (3, 3), (3, 2), (3, 2))
CERTIFY_NO = ((2, 2), (3, 1))


def certify_items(seed: int) -> list[Item]:
    """Interior tuples on the main check-then-verify path.

    Sizes straddle the 1024-row switch between dense and Lanczos
    eigensolves (n = 3 at depth 6 has 1093 p rows).  Row norms r <= 0.45
    certify yes, r >= 1.1 refute; no item sits near the boundary, so no
    item reaches the peeling recursion.  One dilate item keeps the
    dilation layer in the mix at a small share.
    """
    g = Gen(seed)
    items = [_check_item(g.random_tuple(n, p, g.rng.uniform(0.25, 0.45)), "yes")
             for n, p in CERTIFY_YES]
    items += [_check_item(g.random_tuple(n, p, g.rng.uniform(1.1, 1.6)), "no")
              for n, p in CERTIFY_NO]
    items.append(_cp_item(g.random_tuple(2, 2, g.rng.uniform(0.25, 0.45)), "yes"))
    items.append(_cp_item(g.random_tuple(2, 2, g.rng.uniform(1.1, 1.6)), "no"))
    items.append(_cp_item(g.random_tuple(1, 3, g.rng.uniform(0.25, 0.45)), "yes"))
    items.append(_dilate_item(g.random_tuple(2, 2, g.rng.uniform(0.25, 0.45)), 4))
    return items


#: (n, p, deepest depth) of the radius sweeps.  Operators stay at most 40
#: rows, where the per-angle operator rotation in ``radius`` costs more
#: than the dense eigensolve in ``linalg``, and items stay short enough
#: for a run to hold many.
SWEEPS = ((1, 1, 6), (1, 2, 6), (1, 3, 6), (1, 4, 5), (2, 1, 3), (2, 1, 4), (2, 2, 3),
          (2, 3, 2), (3, 1, 2), (3, 1, 3), (3, 2, 2))


def _sweep_item(mats, depth: int, closed: float | None) -> Item:
    return Item("sweep", ("sweep", "--theta-points", "24", "--depth", str(depth)),
                json.dumps(tuple_json(mats)), None,
                {"depth": depth, "closed": closed, "row_norm": row_norm(mats)})


def _lift_item(g: Gen, n: int, blocks: list, ideal: list, radius: float) -> Item:
    kept = [s for k, s in enumerate(blocks) if k not in ideal]
    mats = g.diag_tuple(n, kept, radius)
    payload = {"block_sizes": blocks, "ideal": ideal, "tuple": tuple_json(mats)}
    return Item("lift", ("lift", "--theta-points", "16", "--depth", "5"),
                json.dumps(payload), None,
                {"closed": radius, "blocks": blocks, "ideal": ideal, "arms": mats})


def radius_items(seed: int) -> list[Item]:
    """Angle-sweep path: ``sweep`` ladders and ``lift`` at criterion 10's setting.

    Every ladder runs once on a random tuple and once on a conjugated
    diagonal tuple whose radius has a closed form.  One small cp-check
    keeps the ensys and shorted layers in the mix at a small share.
    """
    g = Gen(seed)
    items = []
    for n, p, depth in SWEEPS:
        items.append(_sweep_item(g.random_tuple(n, p, g.rng.uniform(0.3, 0.9)), depth, None))
        closed = g.rng.uniform(0.2, 0.6)
        items.append(_sweep_item(g.diag_tuple(n, [p], closed), depth, closed))
    items.append(_lift_item(g, 1, [1, 2], [0], g.rng.uniform(0.2, 0.6)))
    items.append(_lift_item(g, 1, [2, 1, 1], [1], g.rng.uniform(0.2, 0.6)))
    items.append(_lift_item(g, 2, [1, 1], [1], g.rng.uniform(0.2, 0.6)))
    items.append(_cp_item(g.random_tuple(1, 2, g.rng.uniform(0.25, 0.45)), "yes"))
    return items


#: (n, [p]) of the rho = 1 check items per pass.  The one-letter shapes,
#: with the rho = 1 cp-check, form a group of like items that holds the
#: median rank; the two-letter shapes are slower and hold the tail.
BOUNDARY_SHAPES = ((1, [1]), (1, [2]), (1, [1]), (1, [2]), (1, [1]), (1, [2]),
                   (2, [1]), (2, [2]), (2, [1]), (2, [2]))


def boundary_items(seed: int) -> list[Item]:
    """Conjugated diagonal tuples at limit radius rho/2 with rho near 1.

    rho = 1 sits on the boundary: the truth is yes, reached only through
    the peeling recursion, so undecided is accepted too.  rho in
    [1.01, 1.05] is a no that no depth up to 6 can refute (refutation
    needs rho cos(pi/8) > 1), so it comes back undecided.  rho in
    [0.99, 0.999] is an interior yes close to the boundary.  A cp-check
    of a rho = 1 map and the dilation of a rho = 1 tuple (a row
    contraction, r = 1/2) bring in the ensys and dilation layers.
    """
    g = Gen(seed)
    items = [_check_item(g.diag_tuple(n, p, 0.5), "yes") for n, p in BOUNDARY_SHAPES]
    for n, p in ((1, 2), (2, 1), (2, 2)):
        items.append(_check_item(g.diag_tuple(n, [p], 0.5 * g.rng.uniform(1.01, 1.05)), "no"))
    for n, p in ((1, 2), (2, 2)):
        items.append(_check_item(g.diag_tuple(n, [p], 0.5 * g.rng.uniform(0.99, 0.999)), "yes"))
    items.append(_cp_item(g.diag_tuple(1, [2], 0.5), "yes"))
    items.append(_dilate_item(g.diag_tuple(2, [2], 0.5), 4))
    return items


GENERATORS = {"certify": certify_items, "radius": radius_items, "boundary": boundary_items}


def digest(items: list[Item]) -> str:
    """Digest of everything the program receives for a list of items."""
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps([list(item.argv), item.payload]).encode("utf-8"))
    return h.hexdigest()


# ---------------------------------------------------------------- oracles

def check_verdict(item: Item, code: int, report: dict) -> str | None:
    """Judge a check-dual-row or cp-check report; returns a failure reason or None."""
    status = report.get("status")
    if status not in VERDICT_EXIT:
        return f"no verdict in report: {report}"
    if code != VERDICT_EXIT[status]:
        return f"exit code {code} does not match verdict {status}"
    if status not in ACCEPTS[item.truth]:
        return f"verdict {status} contradicts truth {item.truth}"
    if status == NO and not report["margin"] < 0.0:
        return f"refutation without a negative witness (margin {report['margin']})"
    if status == YES:
        cert = report.get("certificate")
        if cert is None:
            return "certified_yes without a certificate"
        return check_certificate(item, cert)
    return None


def check_certificate(item: Item, cert: dict) -> str | None:
    """The certificate covers the requested tuple and splits the identity exactly."""
    arms = [json_matrix(m) for m in cert["arms"]]
    want = item.oracle["arms"]
    if len(arms) != len(want) or any(not np.array_equal(x, y) for x, y in zip(arms, want)):
        return "certificate arms differ from the requested tuple"
    a, b = json_matrix(cert["a"]), json_matrix(cert["b"])
    if not np.array_equal(a + b, np.eye(a.shape[0])):
        return "certificate has a + b != I"
    return None


def check_verify(code: int, report: dict) -> str | None:
    if code != 0 or report.get("valid") is not True:
        return f"verify rejected the certificate (exit {code}): {report}"
    if report.get("sum_gap") != 0.0:
        return f"verify reports a + b != I (gap {report.get('sum_gap')})"
    return None


def check_sweep(item: Item, code: int, report: dict) -> str | None:
    """Bracket, monotonicity, and the closed form for conjugated diagonal tuples."""
    if code != 0:
        return f"sweep exited {code}: {report}"
    depth = item.oracle["depth"]
    if report.get("depths") != list(range(1, depth + 1)):
        return f"sweep depths {report.get('depths')} != 1..{depth}"
    lows, mins = report["radius_lower"], report["band_min_eig"]
    r, closed = item.oracle["row_norm"], item.oracle["closed"]
    prev = 0.0
    for d, lo, mn in zip(report["depths"], lows, mins):
        upper = 0.5 * (1.0 - mn)
        if lo > upper + ORDER_TOL or lo > r + ORDER_TOL:
            return f"depth {d}: lower {lo!r} above upper {upper!r} or row norm {r!r}"
        if lo < prev - ORDER_TOL:
            return f"depth {d}: lower {lo!r} below depth {d - 1} value {prev!r}"
        prev = lo
        if closed is not None:
            want = closed * math.cos(math.pi / (d + 2))
            if abs(lo - want) > RADIUS_TOL or abs(upper - want) > RADIUS_TOL:
                return f"depth {d}: radius {lo!r}/{upper!r} != closed form {want!r}"
    return None


def check_lift(item: Item, code: int, report: dict) -> str | None:
    """Base radius against the closed form, lift gap, and exact zero padding."""
    if code != 0:
        return f"lift exited {code}: {report}"
    if report.get("depths") != [1, 2, 3, 4, 5]:
        return f"lift depths {report.get('depths')} != 1..5"
    closed = item.oracle["closed"]
    for d, base, lifted in zip(report["depths"], report["base_lower"], report["lifted_lower"]):
        want = closed * math.cos(math.pi / (d + 2))
        if abs(base - want) > RADIUS_TOL or abs(lifted - want) > RADIUS_TOL:
            return f"depth {d}: lift radii {base!r}/{lifted!r} != closed form {want!r}"
    blocks, ideal = item.oracle["blocks"], item.oracle["ideal"]
    for m, got in zip(item.oracle["arms"], report["lifted"]["a"]):
        big = np.zeros((sum(blocks), sum(blocks)), dtype=np.complex128)
        full = quot = 0
        for k, s in enumerate(blocks):
            if k not in ideal:
                big[full:full + s, full:full + s] = m[quot:quot + s, quot:quot + s]
                quot += s
            full += s
        if not np.array_equal(json_matrix(got), big):
            return "lifted tuple is not the zero padding of the input"
    return None


#: Largest deviation from the dilation relations accepted (criterion 9's bound).
DILATION_TOL = 1e-9


def check_dilate(item: Item, code: int, report: dict) -> str | None:
    """Orthogonal-range relations and exact word compression of the dilation."""
    if code != 0:
        return f"dilate exited {code}: {report}"
    if report.get("depth") != item.oracle["depth"]:
        return f"dilation depth {report.get('depth')} != {item.oracle['depth']}"
    if report.get("words_checked") != item.oracle["words"]:
        return f"{report.get('words_checked')} words checked, expected {item.oracle['words']}"
    if not 0 <= report["defect_rank"] <= item.oracle["rank_max"]:
        return f"defect rank {report['defect_rank']} outside 0..{item.oracle['rank_max']}"
    if not (report["isometry_deviation"] <= DILATION_TOL
            and report["compression_deviation"] <= DILATION_TOL):
        return (f"dilation relations off by {report['isometry_deviation']!r} / "
                f"{report['compression_deviation']!r}")
    return None


#: Oracles of the items that return no verdict, by item kind.
PLAIN_CHECKS = {"sweep": check_sweep, "lift": check_lift, "dilate": check_dilate}
