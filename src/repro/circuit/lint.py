"""Netlist health lint: severity-graded sanity checks before simulation.

The extract -> simulate -> compare loop is only as trustworthy as the
netlists handed to the MNA engine, and a surprising number of extraction
bugs show up as *structurally* broken circuits long before a waveform
looks wrong: a sink left floating by a mis-keyed node name, a negative
capacitance from a subtraction gone wrong, a mutual inductance that
violates passivity and pumps energy into the clock net.  This module
grades a circuit against those failure modes and returns a
:class:`NetlistHealthReport` that downstream layers (the clocktree
extractor, ``simulate_clocktree``, the ``repro lint`` CLI, RunReport v3)
attach to their outputs.

Checks (severity in parentheses):

* empty circuit / no ground connection (error),
* non-positive or non-finite R, L, C values (error),
* mutual coupling ``|k| >= 1`` (error) and ``|k| > 0.95`` (warning),
* inductance-matrix passivity: the assembled ``[L, M]`` block must be
  positive semi-definite or the circuit can generate energy (error),
* nodes with no conducting path to ground -- current sources do not
  count as conducting, matching the MNA singularity they cause (error),
* dangling single-terminal nodes (warning),
* VCVS control-only nodes, which have an all-zero KCL row (error),
* element-count statistics (info, carried in ``stats``).

Constructor validation in :mod:`repro.circuit.elements` already rejects
most bad *values* at build time; the lint re-checks them anyway so that
circuits assembled by other paths (or mutated after construction) are
still caught, and so a report on a known-good circuit positively
asserts the invariants rather than assuming them.

Every run executes under a ``netlist.lint`` span and ticks the
``netlist_lint`` / ``netlist_lint_finding`` counters (observational --
excluded from zero-solve assertions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.circuit.elements import (
    VCVS,
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
)
from repro.circuit.netlist import GROUND, Circuit
from repro.errors import CircuitError
from repro.telemetry.registry import (
    NETLIST_LINT,
    NETLIST_LINT_FINDING,
    get_registry,
)
from repro.telemetry.spans import span

__all__ = [
    "LintFinding",
    "NetlistHealthReport",
    "lint_circuit",
    "lint_spice",
]

#: Coupling magnitude above which a warning is emitted (on-chip wire
#: coupling this extreme usually signals an extraction bug even though
#: it is still formally passive).
COUPLING_WARN = 0.95

#: Relative tolerance for the L-matrix PSD check: eigenvalues above
#: ``-PSD_RTOL * max(diag L)`` count as non-negative.
PSD_RTOL = 1e-12

_SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class LintFinding:
    """One graded finding: what is wrong, how bad, and where."""

    severity: str
    code: str
    message: str
    #: Offending element or node name when the finding is localized.
    subject: str = ""

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITIES:
            raise CircuitError(f"unknown severity {self.severity!r}")

    def to_dict(self) -> Dict[str, str]:
        return {
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
            "subject": self.subject,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "LintFinding":
        return cls(
            severity=data["severity"],
            code=data["code"],
            message=data["message"],
            subject=data.get("subject", ""),
        )


@dataclass
class NetlistHealthReport:
    """Severity-graded lint result for one netlist."""

    name: str = ""
    findings: List[LintFinding] = field(default_factory=list)
    #: Element-count statistics (resistors, capacitors, ... , nodes).
    stats: Dict[str, int] = field(default_factory=dict)
    #: Smallest eigenvalue of the assembled inductance matrix (None when
    #: the circuit has no inductors).
    l_min_eigenvalue: Optional[float] = None
    #: Largest |k| over all mutual couplings (None without mutuals).
    max_coupling: Optional[float] = None

    # ------------------------------------------------------------------
    # interrogation
    # ------------------------------------------------------------------
    @property
    def errors(self) -> List[LintFinding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[LintFinding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def clean(self) -> bool:
        """True when the netlist has no error-severity findings."""
        return not self.errors

    def summary(self) -> str:
        """One-line verdict suitable for logs and report sections."""
        label = self.name or "netlist"
        counts = ", ".join(
            f"{v} {k}" for k, v in self.stats.items() if v and k != "nodes"
        )
        if self.clean and not self.warnings:
            return f"{label}: clean ({counts})"
        return (
            f"{label}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s) ({counts})"
        )

    def render(self) -> str:
        """Multi-line human-readable report."""
        lines = [self.summary()]
        for finding in self.findings:
            where = f" [{finding.subject}]" if finding.subject else ""
            lines.append(
                f"  {finding.severity.upper():7s} {finding.code}{where}: "
                f"{finding.message}"
            )
        if self.l_min_eigenvalue is not None:
            lines.append(
                f"  l-matrix min eigenvalue: {self.l_min_eigenvalue:.6e} H"
            )
        if self.max_coupling is not None:
            lines.append(f"  max |k|: {self.max_coupling:.6f}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # serialization (RunReport v3 simulation section)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "clean": self.clean,
            "num_errors": len(self.errors),
            "num_warnings": len(self.warnings),
            "findings": [f.to_dict() for f in self.findings],
            "stats": dict(self.stats),
            "l_min_eigenvalue": self.l_min_eigenvalue,
            "max_coupling": self.max_coupling,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "NetlistHealthReport":
        return cls(
            name=data.get("name", ""),
            findings=[LintFinding.from_dict(f) for f in data.get("findings", [])],
            stats=dict(data.get("stats", {})),
            l_min_eigenvalue=data.get("l_min_eigenvalue"),
            max_coupling=data.get("max_coupling"),
        )


class _UnionFind:
    """Minimal union-find over node names for connectivity analysis."""

    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}

    def add(self, node: str) -> None:
        self._parent.setdefault(node, node)

    def find(self, node: str) -> str:
        self.add(node)
        root = node
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[node] != root:  # path compression
            self._parent[node], node = root, self._parent[node]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb

    def connected(self, a: str, b: str) -> bool:
        return self.find(a) == self.find(b)


def _value_findings(circuit: Circuit) -> List[LintFinding]:
    """Non-positive / non-finite R, L, C values."""
    findings: List[LintFinding] = []
    kinds = (
        (Resistor, "resistance", "ohm"),
        (Capacitor, "capacitance", "F"),
        (Inductor, "inductance", "H"),
    )
    for element in circuit.elements:
        for cls, attr, unit in kinds:
            if not isinstance(element, cls):
                continue
            value = getattr(element, attr)
            if not math.isfinite(value):
                findings.append(LintFinding(
                    "error", "non_finite_value",
                    f"{attr} is {value!r}", element.name,
                ))
            elif value <= 0.0:
                findings.append(LintFinding(
                    "error", "non_positive_value",
                    f"{attr} = {value:.6e} {unit} must be > 0", element.name,
                ))
    return findings


def _coupling_findings(circuit: Circuit):
    """|k| checks for every mutual; returns (findings, max |k|)."""
    findings: List[LintFinding] = []
    max_k: Optional[float] = None
    inductors = {
        e.name: e for e in circuit.elements if isinstance(e, Inductor)
    }
    for mutual in circuit.mutuals:
        l1 = inductors.get(mutual.inductor1)
        l2 = inductors.get(mutual.inductor2)
        if l1 is None or l2 is None:
            findings.append(LintFinding(
                "error", "unknown_inductor",
                f"couples unknown inductor "
                f"{mutual.inductor1!r}/{mutual.inductor2!r}", mutual.name,
            ))
            continue
        denom = math.sqrt(l1.inductance * l2.inductance)
        k = abs(mutual.mutual) / denom if denom > 0 else math.inf
        max_k = k if max_k is None else max(max_k, k)
        if k >= 1.0:
            findings.append(LintFinding(
                "error", "coupling_exceeds_unity",
                f"|k| = {k:.6f} >= 1 violates passivity", mutual.name,
            ))
        elif k > COUPLING_WARN:
            findings.append(LintFinding(
                "warning", "coupling_near_unity",
                f"|k| = {k:.6f} > {COUPLING_WARN} is suspiciously strong",
                mutual.name,
            ))
    return findings, max_k


def _passivity_findings(circuit: Circuit):
    """PSD check of the assembled inductance matrix [L_i, M_ij].

    A non-PSD inductance matrix stores negative energy for some current
    vector -- the simulated circuit would amplify rather than damp, which
    is exactly the artifact the paper's partial-inductance modeling must
    avoid.  Returns (findings, min eigenvalue or None).

    Without mutuals the matrix is diagonal and its eigenvalues are the
    inductances themselves, so only a coupled deck needs ``eigvalsh``.
    """
    inductors = [e for e in circuit.elements if isinstance(e, Inductor)]
    if not inductors:
        return [], None
    index = {ind.name: i for i, ind in enumerate(inductors)}
    diagonal = np.array([ind.inductance for ind in inductors])
    l_matrix = None
    for mutual in circuit.mutuals:
        i = index.get(mutual.inductor1)
        j = index.get(mutual.inductor2)
        if i is None or j is None:
            continue  # reported by _coupling_findings
        if l_matrix is None:
            l_matrix = np.diag(diagonal)
        l_matrix[i, j] += mutual.mutual
        l_matrix[j, i] += mutual.mutual
    if l_matrix is None:
        min_eig = float(diagonal.min())
    else:
        min_eig = float(np.linalg.eigvalsh(l_matrix)[0])
    findings: List[LintFinding] = []
    tol = PSD_RTOL * float(np.max(diagonal))
    if min_eig < -tol:
        findings.append(LintFinding(
            "error", "l_matrix_not_psd",
            f"inductance matrix has negative eigenvalue {min_eig:.6e} H; "
            "the mutual couplings are collectively non-passive",
        ))
    return findings, min_eig


def _connectivity_findings(circuit: Circuit) -> List[LintFinding]:
    """Ground reachability, dangling nodes and control-only nodes."""
    findings: List[LintFinding] = []
    uf = _UnionFind()
    uf.add(GROUND)
    degree: Dict[str, int] = {}
    control_only: Dict[str, bool] = {}
    for element in circuit.elements:
        for node in (element.node1, element.node2):
            uf.add(node)
            degree[node] = degree.get(node, 0) + 1
            control_only[node] = False
        # Current sources inject current but add no conductance: a node
        # reachable only through one has a singular KCL row, so they do
        # not count as a conducting path.
        if not isinstance(element, CurrentSource):
            uf.union(element.node1, element.node2)
        if isinstance(element, VCVS):
            for node in (element.control1, element.control2):
                uf.add(node)
                control_only.setdefault(node, True)

    for node in sorted(control_only):
        if node == GROUND:
            continue
        if control_only[node]:
            findings.append(LintFinding(
                "error", "control_only_node",
                "appears only as a VCVS control terminal; its KCL row is "
                "all-zero and the MNA system is singular", node,
            ))
        elif not uf.connected(node, GROUND):
            findings.append(LintFinding(
                "error", "disconnected_from_ground",
                "no conducting path (R/C/L/V/E) to ground", node,
            ))
        elif degree.get(node, 0) == 1:
            findings.append(LintFinding(
                "warning", "dangling_node",
                "touches a single element terminal (dead-end stub)", node,
            ))
    return findings


def _stats(circuit: Circuit) -> Dict[str, int]:
    counts = {
        "resistors": 0, "capacitors": 0, "inductors": 0,
        "vsources": 0, "isources": 0, "vcvs": 0,
    }
    for element in circuit.elements:
        if isinstance(element, Resistor):
            counts["resistors"] += 1
        elif isinstance(element, Capacitor):
            counts["capacitors"] += 1
        elif isinstance(element, Inductor):
            counts["inductors"] += 1
        elif isinstance(element, VoltageSource):
            counts["vsources"] += 1
        elif isinstance(element, CurrentSource):
            counts["isources"] += 1
        elif isinstance(element, VCVS):
            counts["vcvs"] += 1
    counts["mutuals"] = len(circuit.mutuals)
    counts["nodes"] = len(circuit.nodes)
    return counts


def lint_circuit(circuit: Circuit, name: str = "") -> NetlistHealthReport:
    """Run every health check against *circuit*.

    Never raises on an unhealthy circuit -- problems become graded
    findings so callers can decide whether to proceed, warn or abort.
    """
    registry = get_registry()
    with span("netlist.lint", elements=len(circuit.elements)) as sp:
        registry.inc(NETLIST_LINT)
        findings: List[LintFinding] = []
        if not circuit.elements:
            findings.append(LintFinding(
                "error", "empty_circuit", "circuit has no elements",
            ))
            report = NetlistHealthReport(
                name=name or circuit.title, findings=findings, stats=_stats(circuit),
            )
        else:
            if not any(
                GROUND in (e.node1, e.node2) for e in circuit.elements
            ):
                findings.append(LintFinding(
                    "error", "no_ground",
                    "no element terminal touches ground node '0'",
                ))
            findings.extend(_value_findings(circuit))
            coupling_findings, max_k = _coupling_findings(circuit)
            findings.extend(coupling_findings)
            passivity_findings, min_eig = _passivity_findings(circuit)
            findings.extend(passivity_findings)
            findings.extend(_connectivity_findings(circuit))
            report = NetlistHealthReport(
                name=name or circuit.title,
                findings=findings,
                stats=_stats(circuit),
                l_min_eigenvalue=min_eig,
                max_coupling=max_k,
            )
        if report.findings:
            registry.inc(NETLIST_LINT_FINDING, len(report.findings))
        if sp is not None:
            sp.tags["errors"] = len(report.errors)
            sp.tags["warnings"] = len(report.warnings)
    return report


def lint_spice(text: str, name: str = "") -> NetlistHealthReport:
    """Lint a SPICE deck string.

    Decks the importer refuses outright (negative capacitance, ``|k| >=
    1`` K cards, malformed lines) become a single ``parse_error``
    finding instead of an exception: from the lint CLI's point of view
    an unparseable deck is simply a very unhealthy one.
    """
    try:
        from repro.circuit.spice_import import from_spice

        deck = from_spice(text)
    except CircuitError as exc:
        get_registry().inc(NETLIST_LINT)
        get_registry().inc(NETLIST_LINT_FINDING)
        return NetlistHealthReport(
            name=name,
            findings=[LintFinding(
                "error", "parse_error", f"deck rejected by importer: {exc}",
            )],
        )
    return lint_circuit(deck.circuit, name=name or deck.title)
