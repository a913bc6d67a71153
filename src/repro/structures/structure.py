"""Weighted relational structures A(w) and their Gaifman graphs (paper §2-3).

A :class:`Structure` stores a finite domain, named relations (sets of
tuples), and named weight functions (sparse maps ``tuple -> value``; absent
tuples weigh the semiring zero).  The paper's well-formedness requirement —
weights of arity > 1 vanish outside the relations — is enforced by
:meth:`Structure.validate`.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

from ..graphs import Graph

Element = Hashable
Tup = Tuple[Element, ...]

#: Debug mode: every :meth:`Structure.fingerprint` cross-checks the
#: incrementally-maintained digest against a full content rehash and
#: raises :class:`FingerprintMismatch` on divergence.  The incremental
#: digest is updated by the mutator *methods*; a raw write into
#: ``structure.relations``/``structure.weights`` bypasses it silently —
#: this switch is how such bypasses are hunted down.
VERIFY_FINGERPRINT_ENV = "REPRO_VERIFY_FINGERPRINT"

#: Width of the incremental digest (XOR-folded sha256 prefixes).
_DIGEST_BYTES = 16

#: Sentinel distinguishing "no previous weight" from any carrier value.
_ABSENT = object()


class FingerprintMismatch(RuntimeError):
    """The incremental digest diverged from the full content rehash
    (``REPRO_VERIFY_FINGERPRINT`` mode): some mutation bypassed the
    :class:`Structure` mutator methods."""


def _entry_digest(tag: bytes, payload: str) -> int:
    """A keyed per-entry hash, XOR-folded into the structure digest.

    Entries are independent 128-bit values, so the fold is
    order-independent (mutation order never matters) and self-inverse
    (removing an entry XORs its hash back out).  ``tag`` separates the
    entry kinds (domain / relation tuple / weight entry) so payloads
    can never collide across kinds."""
    return int.from_bytes(
        hashlib.sha256(tag + payload.encode()).digest()[:_DIGEST_BYTES],
        "big")


def _verify_fingerprint_enabled() -> bool:
    return os.environ.get(VERIFY_FINGERPRINT_ENV, "") not in ("", "0")


class Structure:
    """A finite relational structure with semiring-valued weights."""

    def __init__(self, domain: Iterable[Element],
                 relations: Optional[Mapping[str, Iterable[Tup]]] = None,
                 weights: Optional[Mapping[str, Mapping[Tup, Any]]] = None):
        self.domain: List[Element] = list(dict.fromkeys(domain))
        self._domain_set: Set[Element] = set(self.domain)
        self.relations: Dict[str, Set[Tup]] = {}
        self.weights: Dict[str, Dict[Tup, Any]] = {}
        self._arity: Dict[str, int] = {}
        self._gaifman: Optional[Graph] = None
        # The incrementally-maintained content digest: the XOR of one
        # per-entry hash per relation tuple / weight assignment, plus one
        # hash of the (immutable) ordered domain.  Every mutator folds its
        # delta in, so fingerprint() is O(1) regardless of structure size.
        self._digest: int = _entry_digest(b"\x00", repr(self.domain))
        # Counts digest-changing mutations since construction; lets
        # Database skip per-transaction reconciliation entirely when a
        # transaction turned out to be a no-op.
        self._mutations: int = 0
        for name, tuples in (relations or {}).items():
            for tup in tuples:
                self.add_tuple(name, tup)
            self.relations.setdefault(name, set())
        for name, mapping in (weights or {}).items():
            for tup, value in mapping.items():
                self.set_weight(name, tup, value)
            self.weights.setdefault(name, {})
        self._mutations = 0

    # -- construction ---------------------------------------------------------

    def _fold(self, entry_hash: int, keys_changed: bool = True) -> None:
        """Fold one entry in or out of the digest (XOR is self-inverse).
        A change to the tuple keys also drops the Gaifman memo; a
        value-only weight write keeps it (the graph reads keys only)."""
        self._digest ^= entry_hash
        self._mutations += 1
        if keys_changed:
            self._gaifman = None

    def checked(self, name: str, tup: Tup) -> Tup:
        """``tup`` as a tuple, checked as a write of ``name(tup)`` checks
        it — every element in the domain, the arity ``name`` was first
        used with (``ValueError`` otherwise) — registering nothing."""
        tup = tuple(tup)
        for element in tup:
            if element not in self._domain_set:
                raise ValueError(f"{element!r} is not in the domain")
        known = self._arity.get(name, len(tup))
        if known != len(tup):
            raise ValueError(f"{name} used with arities {known} and {len(tup)}")
        return tup

    def _check_arity(self, name: str, tup: Tup) -> Tup:
        tup = self.checked(name, tup)
        self._arity.setdefault(name, len(tup))
        return tup

    def add_tuple(self, relation: str, tup: Tup) -> None:
        tup = self._check_arity(relation, tup)
        tuples = self.relations.setdefault(relation, set())
        if tup not in tuples:
            tuples.add(tup)
            self._fold(_entry_digest(b"\x01", repr((relation, tup))))

    def remove_tuple(self, relation: str, tup: Tup) -> None:
        tup = tuple(tup)
        tuples = self.relations[relation]
        if tup in tuples:
            tuples.discard(tup)
            self._fold(_entry_digest(b"\x01", repr((relation, tup))))

    def set_weight(self, weight: str, tup: Tup, value: Any) -> None:
        tup = self._check_arity(weight, tup)
        mapping = self.weights.setdefault(weight, {})
        old = mapping.get(tup, _ABSENT)
        new_hash = _entry_digest(b"\x02", repr((weight, tup, repr(value))))
        if old is _ABSENT:
            delta = new_hash
        else:
            old_hash = _entry_digest(b"\x02", repr((weight, tup, repr(old))))
            if old_hash == new_hash:
                mapping[tup] = value
                return  # same rendered value: content unchanged, no-op
            delta = old_hash ^ new_hash
        mapping[tup] = value
        self._fold(delta, keys_changed=old is _ABSENT)

    def remove_weight(self, weight: str, tup: Optional[Tup] = None) -> None:
        """Drop one weight entry, or the whole weight function when
        ``tup`` is ``None``.  Missing names are a no-op."""
        if weight not in self.weights:
            return
        if tup is None:
            for entry, value in self.weights[weight].items():
                self._fold(_entry_digest(
                    b"\x02", repr((weight, entry, repr(value)))))
            del self.weights[weight]
            if weight not in self.relations:
                self._arity.pop(weight, None)
        else:
            tup = tuple(tup)
            if tup in self.weights[weight]:
                value = self.weights[weight].pop(tup)
                self._fold(_entry_digest(
                    b"\x02", repr((weight, tup, repr(value)))))

    # -- queries ---------------------------------------------------------------

    def __contains__(self, element: object) -> bool:
        """Whether ``element`` is in the domain (one set lookup)."""
        return element in self._domain_set

    def arity(self, name: str) -> int:
        return self._arity[name]

    def has_tuple(self, relation: str, tup: Tup) -> bool:
        return tuple(tup) in self.relations.get(relation, ())

    def weight(self, weight: str, tup: Tup, zero: Any = 0) -> Any:
        """The weight of ``tup`` (the semiring zero when unset)."""
        return self.weights.get(weight, {}).get(tuple(tup), zero)

    def size(self) -> int:
        """``|A|`` plus the number of stored tuples — the representation
        size that 'linear time' refers to for bounded-expansion classes."""
        return (len(self.domain)
                + sum(len(t) for t in self.relations.values())
                + sum(len(w) for w in self.weights.values()))

    def fingerprint(self) -> str:
        """A content hash of the structure: domain, relations, and weights
        (weight values via ``repr``, which every shipped carrier renders
        deterministically).  Two structures with equal fingerprints are
        interchangeable inputs to ``compile_structure_query``, which is
        what the compile-plan cache keys on.

        Maintained *incrementally* by the mutator methods (an
        order-independent XOR fold of per-entry hashes), so this is O(1)
        — Theorem 8's constant-time update model extends to the cache
        keys.  Declared-but-empty relations and weight functions carry no
        entries and therefore do not distinguish structures, which is
        sound for plan keying: an empty relation contributes nothing to
        the compiled circuit.  Mutating ``relations``/``weights`` dicts
        directly bypasses the fold and silently stales the digest; set
        ``REPRO_VERIFY_FINGERPRINT=1`` to cross-check every call against
        :meth:`full_fingerprint` and raise on divergence."""
        if _verify_fingerprint_enabled():
            full = self.full_fingerprint()
            if full != f"{self._digest:0{2 * _DIGEST_BYTES}x}":
                raise FingerprintMismatch(
                    f"incremental digest {self._digest:0{2 * _DIGEST_BYTES}x} "
                    f"!= full rehash {full}: a mutation bypassed the "
                    "Structure mutator methods")
        return f"{self._digest:0{2 * _DIGEST_BYTES}x}"

    def full_fingerprint(self) -> str:
        """Recompute the fingerprint from current content — O(size).

        The verification fallback for the incremental digest: equal to
        :meth:`fingerprint` whenever every mutation went through the
        mutator methods.  Used by tests, the ``REPRO_VERIFY_FINGERPRINT``
        cross-check, and as a resync point after deliberate raw edits.
        Never call this on the update hot path (lint rule REP007)."""
        digest = _entry_digest(b"\x00", repr(self.domain))
        for name, tuples in self.relations.items():
            for tup in tuples:
                digest ^= _entry_digest(b"\x01", repr((name, tup)))
        for name, mapping in self.weights.items():
            for tup, value in mapping.items():
                digest ^= _entry_digest(b"\x02", repr((name, tup, repr(value))))
        return f"{digest:0{2 * _DIGEST_BYTES}x}"

    def rehash(self) -> str:
        """Resynchronise the incremental digest from current content and
        return the fingerprint.  The escape hatch after editing
        ``relations``/``weights`` in place (e.g. bulk load code that
        bypasses the mutator methods); counts as one mutation."""
        digest = int(self.full_fingerprint(), 16)
        if digest != self._digest:
            self._digest = digest
            self._mutations += 1
        self._gaifman = None
        return f"{self._digest:0{2 * _DIGEST_BYTES}x}"

    # -- the Gaifman graph -------------------------------------------------------

    def gaifman(self) -> Graph:
        """Distinct elements are adjacent when they co-occur in a relation
        tuple or a stored weight tuple (paper §2, §7).  Built from tuple
        keys only, so a write that changes just a weight's value keeps
        the memo."""
        if self._gaifman is None:
            graph = Graph(self.domain)
            for tuples in self.relations.values():
                for tup in tuples:
                    graph.add_clique(set(tup))
            for mapping in self.weights.values():
                for tup in mapping:
                    graph.add_clique(set(tup))
            self._gaifman = graph
        return self._gaifman

    def validate(self, is_zero=lambda value: value == 0) -> None:
        """Enforce the paper's weight-support requirement: a weight of arity
        r > 1 may be nonzero only on tuples present in some arity-r relation."""
        for name, mapping in self.weights.items():
            if self._arity.get(name, 1) <= 1:
                continue
            arity = self._arity[name]
            supports = [tuples for rel, tuples in self.relations.items()
                        if self._arity[rel] == arity]
            for tup, value in mapping.items():
                if is_zero(value):
                    continue
                if not any(tup in tuples for tuples in supports):
                    raise ValueError(
                        f"weight {name}{tup} is nonzero but {tup} is in no "
                        f"arity-{arity} relation")

    def copy(self) -> "Structure":
        # Bypass the constructor: the clone's content is identical by
        # construction, so the digest carries over verbatim and the copy
        # costs no hashing at all (services and cluster shards
        # snapshot unchanged structures constantly).
        clone = Structure.__new__(Structure)
        clone.domain = list(self.domain)
        clone._domain_set = set(self._domain_set)
        clone.relations = {r: set(t) for r, t in self.relations.items()}
        clone.weights = {w: dict(m) for w, m in self.weights.items()}
        clone._arity = dict(self._arity)
        clone._gaifman = None
        clone._digest = self._digest
        clone._mutations = self._mutations
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rels = ", ".join(f"{r}:{len(t)}" for r, t in self.relations.items())
        return f"<Structure |A|={len(self.domain)} {rels}>"


def graph_structure(graph: Graph, directed: bool = True,
                    edge_relation: str = "E") -> Structure:
    """View a graph as a structure with edge relation ``E`` (both
    orientations when ``directed``, matching the paper's examples)."""
    structure = Structure(graph.vertices())
    for u, v in graph.edges():
        structure.add_tuple(edge_relation, (u, v))
        if directed:
            structure.add_tuple(edge_relation, (v, u))
    return structure
