"""Output checks computed by the benchmark, apart from FDX.

Every check raises :class:`CheckFailed` with a message naming the input;
a failed check fails the run. Nothing here compares against a stored copy
of an earlier output: the references are the planted truth, a
re-derivation of Algorithm 3 from the returned model, the graphical-lasso
optimality (KKT) conditions, and the program's own answers on other paths
(library vs service, miss vs hit, changelog replay vs final read).
"""

from __future__ import annotations

import numpy as np

#: Magnitudes at or below this are structural zeros of B (paper Algorithm 3
#: with sparsity 0); the configured sparsity threshold applies above it.
B_ZERO = 1e-8

#: Largest KKT residual accepted. The solver stops on a relative change of
#: 1e-4, which leaves residuals of about 1e-5 on these inputs.
KKT_TOLERANCE = 1e-3


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- planted truth -------------------------------------------------------------

class Score:
    """Pooled edge counts: an FD ``X -> y`` contributes one edge per LHS column."""

    def __init__(self) -> None:
        self.tp = self.fp = self.fn = 0

    def add(self, fds, truth) -> None:
        planted = {(a, rhs) for lhs, rhs in truth for a in lhs}
        found = {(a, fd["rhs"]) for fd in fds for a in fd["lhs"]}
        self.tp += len(planted & found)
        self.fp += len(found - planted)
        self.fn += len(planted - found)

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 1.0

    @property
    def f1(self) -> float:
        denominator = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denominator if denominator else 1.0


def check_recall(fds, truth, floor: float, where: str) -> None:
    score = Score()
    score.add(fds, truth)
    require(score.recall >= floor,
            f"{where}: planted-FD recall {score.recall:.3f} below {floor}")


# -- Algorithm 3 re-derivation -------------------------------------------------

def rederive_fds(B: np.ndarray, order: list[str], names: list[str], sparsity: float):
    """FDs read off ``B`` (original attribute order) along ``order``."""
    index = {name: i for i, name in enumerate(names)}
    pos = [index[name] for name in order]
    threshold = max(sparsity, B_ZERO)
    fds = set()
    for j, rhs in enumerate(pos):
        lhs = frozenset(names[pos[i]] for i in range(j) if abs(B[pos[i], rhs]) > threshold)
        if lhs:
            fds.add((lhs, names[rhs]))
    return fds


def check_algorithm3(result: dict, names: list[str], sparsity: float, where: str) -> None:
    order = list(result["attribute_order"])
    require(sorted(order) == sorted(names), f"{where}: attribute order is not a permutation")
    position = {name: i for i, name in enumerate(order)}
    emitted = set()
    for fd in result["fds"]:
        for a in fd["lhs"]:
            require(position[a] < position[fd["rhs"]],
                    f"{where}: FD {fd} has an LHS column after its RHS")
        emitted.add((frozenset(fd["lhs"]), fd["rhs"]))
    B = np.asarray(result["autoregression"], dtype=float)
    expected = rederive_fds(B, order, names, sparsity)
    require(emitted == expected,
            f"{where}: emitted FDs differ from Algorithm 3 on the returned B "
            f"(extra {sorted(map(str, emitted - expected))[:3]}, "
            f"missing {sorted(map(str, expected - emitted))[:3]})")


# -- graphical-lasso optimality ------------------------------------------------

def kkt_residual(S: np.ndarray, Theta: np.ndarray, lam: float) -> float:
    """Largest violation of the stationarity conditions of
    ``-logdet(Theta) + tr(S Theta) + lam * sum|Theta_ij|`` (diagonal penalized):
    ``W_ii = S_ii + lam``, ``W_ij - S_ij = lam * sign(Theta_ij)`` on the
    support and ``|W_ij - S_ij| <= lam`` off it, with ``W = inv(Theta)``.
    """
    W = np.linalg.inv(Theta)
    G = W - S
    p = S.shape[0]
    diag = np.abs(np.diag(G) - lam)
    off = ~np.eye(p, dtype=bool)
    support = (Theta != 0) & off
    on = np.abs(G[support] - lam * np.sign(Theta[support]))
    outside = np.maximum(np.abs(G[off & ~support]) - lam, 0.0)
    return float(max(diag.max(initial=0.0), on.max(initial=0.0), outside.max(initial=0.0)))


def check_kkt(covariance, precision, lam: float, where: str) -> float:
    residual = kkt_residual(np.asarray(covariance, float), np.asarray(precision, float), lam)
    require(residual <= KKT_TOLERANCE,
            f"{where}: KKT residual {residual:.2e} at lambda={lam} exceeds {KKT_TOLERANCE}")
    return residual


def selected_lambda(diagnostics: dict, configured) -> float:
    info = (diagnostics.get("solver_health") or {}).get("lambda") or {}
    return float(info.get("selected", configured))


def check_undegraded(diagnostics: dict, where: str) -> None:
    require(not diagnostics.get("degraded", False),
            f"{where}: discovery degraded (fallback chain "
            f"{diagnostics.get('fallback_chain')})")


def check_discovery(result, names, sparsity, lam, truth, floor, where) -> dict:
    """All checks on an in-process :class:`FDXResult`; returns its dict form."""
    payload = result.to_dict()
    check_undegraded(payload["diagnostics"], where)
    check_algorithm3(payload, names, sparsity, where)
    check_kkt(result.covariance, result.precision,
              selected_lambda(payload["diagnostics"], lam), where)
    check_recall(payload["fds"], truth, floor, where)
    return payload


# -- cross-path equality -------------------------------------------------------

def check_same_result(got: dict, want: dict, where: str) -> None:
    require(got["fds"] == want["fds"], f"{where}: FDs differ ({got['fds']} vs {want['fds']})")
    require(got["attribute_order"] == want["attribute_order"], f"{where}: attribute order differs")
    diff = np.max(np.abs(np.asarray(got["autoregression"]) - np.asarray(want["autoregression"])),
                  initial=0.0)
    require(diff <= 1e-9, f"{where}: autoregression differs by {diff:.2e}")


def replay_changelog(records: list[dict]) -> set:
    """The FD set left after applying ``added``/``removed`` from version 0."""
    current: set = set()
    version = 0
    for record in records:
        require(record["version"] == version + 1,
                f"changelog skips from version {version} to {record['version']}")
        version = record["version"]
        for fd in record["removed"]:
            current.discard((tuple(fd["lhs"]), fd["rhs"]))
        for fd in record["added"]:
            current.add((tuple(fd["lhs"]), fd["rhs"]))
    return current


# -- catalog -------------------------------------------------------------------

def check_catalog(report: dict, manifest: dict, score: Score, where: str) -> None:
    sample = manifest["sample"]
    tables = {t["table"]: t for t in report["tables"]}
    require(sorted(tables) == sorted(manifest["tables"]),
            f"{where}: swept tables {sorted(tables)} != {sorted(manifest['tables'])}")
    for name, planted in manifest["tables"].items():
        table = tables[name]
        require(table["status"] == "ok", f"{where}: table {name} is {table['status']}: "
                                         f"{table.get('error')}")
        rows = planted["rows"]
        sampled = table["sampling"]["n_sampled"]
        require(sampled == min(sample, rows),
                f"{where}: table {name} sampled {sampled} rows, expected {min(sample, rows)}")
        require(table["info"]["n_rows"] == rows,
                f"{where}: table {name} reports {table['info']['n_rows']} rows, has {rows}")
        check_undegraded(table["diagnostics"], f"{where}/{name}")
        score.add(table["fds"], planted["truth"])
    (lt, lc), (rt, rc) = manifest["shared_key"]
    want = {(lt, lc), (rt, rc)}
    require(any({(h["left"]["table"], h["left"]["column"]),
                 (h["right"]["table"], h["right"]["column"])} == want
                for h in report["hints"]),
            f"{where}: no hint for the shared key {lt}.{lc} ~ {rt}.{rc}")
