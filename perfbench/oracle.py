"""Reference answers computed apart from the program, and the output checks.

Two independent computations, both plain Python over the benchmark's own
input tuples (nothing here imports the program):

* :class:`OwlModel` saturates the workload's OWL 2 QL core TBox over its
  ABox (a restricted chase of the DL-Lite axioms read from the Table 1
  encoding) and evaluates basic graph patterns over the result.  Variables
  range over the graph's named terms; blank nodes do too under ``U`` and
  may also take the anonymous witnesses under ``All`` (Section 5.3).
* :func:`closure_pairs` is breadth-first reachability.

The ``check_*`` functions compare a program output with a reference and
return a list of human-readable problems (empty when the output is right).
"""

from __future__ import annotations

import zlib
from collections import defaultdict, deque
from typing import Dict, Iterable, List, Sequence, Set, Tuple

Triple = Tuple[str, str, str]
Row = Tuple[str, ...]

_VOCABULARY = {
    "rdf:type", "rdfs:subClassOf", "rdfs:subPropertyOf", "owl:inverseOf",
    "owl:onProperty", "owl:someValuesFrom", "owl:disjointWith",
    "owl:propertyDisjointWith",
}
_DECLARATION_TYPES = {"owl:Class", "owl:ObjectProperty", "owl:Restriction", "owl:Thing"}
_ANONYMOUS = "_:anon"
_MAX_ANONYMOUS = 1_000_000


def _inverse(role: str) -> str:
    return role[:-1] if role.endswith("-") else role + "-"


def _some(role: str) -> str:
    return "some_" + role


class OwlModel:
    """A universal model of an OWL 2 QL core graph, built without the program."""

    def __init__(self, triples: Iterable[Triple]):
        triples = list(triples)
        self.named: Set[str] = {term for triple in triples for term in triple}
        role_up: Dict[str, Set[str]] = defaultdict(set)
        concept_up: Dict[str, Set[str]] = defaultdict(set)
        assertions: List[Triple] = []
        for s, p, o in triples:
            if p == "rdfs:subPropertyOf":
                role_up[s].add(o)
                role_up[_inverse(s)].add(_inverse(o))
            elif p == "rdfs:subClassOf":
                concept_up[s].add(o)
            elif p == "rdf:type" and o not in _DECLARATION_TYPES:
                assertions.append((s, p, o))
            elif p not in _VOCABULARY:
                assertions.append((s, p, o))
        for sub, sups in list(role_up.items()):
            for sup in sups:
                concept_up[_some(sub)].add(_some(sup))
        self._role_up = {role: _reflexive_closure(role, role_up) for role in role_up}
        self._concept_up = concept_up
        self._concept_closure: Dict[str, Set[str]] = {}
        self.types: Dict[str, Set[str]] = defaultdict(set)
        self.out: Dict[str, Dict[str, Set[str]]] = defaultdict(lambda: defaultdict(set))
        self._pending: deque = deque()
        self.anonymous = 0
        for s, p, o in assertions:
            if p == "rdf:type":
                self._add_type(s, o)
            else:
                self._add_edge(s, p, o)
        self._chase()
        self.by_type: Dict[str, Set[str]] = defaultdict(set)
        for individual, concepts in self.types.items():
            for concept in concepts:
                self.by_type[concept].add(individual)

    def _roles_above(self, role: str) -> Set[str]:
        return self._role_up.get(role) or {role}

    def _concepts_above(self, concept: str) -> Set[str]:
        closure = self._concept_closure.get(concept)
        if closure is None:
            closure = self._concept_closure[concept] = _reflexive_closure(
                concept, self._concept_up
            )
        return closure

    def _add_type(self, individual: str, concept: str) -> None:
        known = self.types[individual]
        for sup in self._concepts_above(concept):
            if sup not in known:
                known.add(sup)
                if sup.startswith("some_"):
                    self._pending.append((individual, sup[len("some_"):]))

    def _add_edge(self, subject: str, role: str, obj: str) -> None:
        for sup in self._roles_above(role):
            targets = self.out[subject][sup]
            if obj not in targets:
                targets.add(obj)
                self.out[obj][_inverse(sup)].add(subject)
                self._add_type(subject, _some(sup))
                self._add_type(obj, _some(_inverse(sup)))

    def _chase(self) -> None:
        """Invent one witness per unsatisfied ``∃R`` (restricted chase)."""
        while self._pending:
            individual, role = self._pending.popleft()
            if self.out[individual][role]:
                continue
            self.anonymous += 1
            if self.anonymous > _MAX_ANONYMOUS:
                raise RuntimeError("reference chase does not terminate")
            self._add_edge(individual, role, f"{_ANONYMOUS}{self.anonymous}")

    # -- query answering ------------------------------------------------------

    def answers(self, query, mode: str) -> Set[Row]:
        """``⟦query⟧^mode`` as a set of rows over the projected variables."""
        projection, patterns = query
        blanks_named = mode == "U"
        rows: Set[Row] = set()

        def allowed(term: str, value: str) -> bool:
            if term.startswith("?") or blanks_named:
                return value in self.named
            return True

        def match(index: int, binding: Dict[str, str]) -> None:
            if index == len(patterns):
                rows.add(tuple(binding[v] for v in projection))
                return
            s, p, o = (binding.get(t, t) for t in patterns[index])
            s_free = s.startswith(("?", "_:")) and s not in binding
            o_free = o.startswith(("?", "_:")) and o not in binding
            for subject, obj in self._candidates(s, p, o, s_free, o_free):
                extended = dict(binding)
                if s_free:
                    if not allowed(s, subject):
                        continue
                    extended[s] = subject
                if o_free:
                    if o == s and s_free:
                        if obj != subject:
                            continue
                    elif not allowed(o, obj):
                        continue
                    else:
                        extended[o] = obj
                match(index + 1, extended)

        match(0, {})
        return rows

    def _candidates(self, s, p, o, s_free, o_free):
        if p == "rdf:type":
            if o_free:
                raise ValueError("the reference handles rdf:type with a constant class only")
            members = self.by_type.get(o, ())
            if s_free:
                return [(x, o) for x in members]
            return [(s, o)] if s in members else []
        if not s_free:
            targets = self.out[s][p] if s in self.out else ()
            return [(s, y) for y in targets if o_free or y == o]
        if not o_free:
            sources = self.out[o][_inverse(p)] if o in self.out else ()
            return [(x, o) for x in sources]
        return [(x, y) for x, roles in self.out.items() for y in roles.get(p, ())]


def _reflexive_closure(start: str, up: Dict[str, Set[str]]) -> Set[str]:
    seen = {start}
    stack = [start]
    while stack:
        for sup in up.get(stack.pop(), ()):
            if sup not in seen:
                seen.add(sup)
                stack.append(sup)
    return seen


# ---------------------------------------------------------------------------
# Transitive closure
# ---------------------------------------------------------------------------


def closure_pairs(edges: Sequence[Tuple[str, str]]) -> Set[Tuple[str, str]]:
    """Every (x, y) with a non-empty path from x to y, by BFS from each node."""
    succ: Dict[str, List[str]] = defaultdict(list)
    for a, b in edges:
        succ[a].append(b)
    pairs = set()
    for start in list(succ):
        seen = set()
        queue = deque(succ[start])
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            queue.extend(succ.get(node, ()))
        pairs.update((start, node) for node in seen)
    return pairs


def pair_fingerprint(pairs: Iterable[Tuple[str, str]]) -> Tuple[int, int]:
    """(count, order-free checksum) of a pair set."""
    count, total = 0, 0
    for a, b in pairs:
        count += 1
        total += zlib.crc32(f"{a}\t{b}".encode())
    return count, total % (1 << 64)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_rows(label: str, got: Set[Row], expected: Set[Row]) -> List[str]:
    """Exact equality of two answer sets."""
    if got == expected:
        return []
    missing, extra = sorted(expected - got)[:3], sorted(got - expected)[:3]
    return [
        f"{label}: {len(got)} rows, expected {len(expected)}; "
        f"missing {missing}, unexpected {extra}"
    ]


def check_subset(label: str, u_rows: Set[Row], all_rows: Set[Row]) -> List[str]:
    """U-mode answers must be contained in All-mode answers."""
    outside = u_rows - all_rows
    if not outside:
        return []
    return [f"{label}: {len(outside)} U answers not in All, e.g. {sorted(outside)[:3]}"]


def check_closure(label: str, got_pairs, expected: Set[Tuple[str, str]]) -> List[str]:
    """A closure output, given as a pair set, equals the BFS pair set."""
    return check_rows(label, set(got_pairs), expected)


def check_fingerprint(label: str, got: Tuple[int, int], expected: Tuple[int, int]) -> List[str]:
    """A closure output, given as a fingerprint, matches the BFS fingerprint."""
    if tuple(got) == tuple(expected):
        return []
    return [f"{label}: fingerprint {tuple(got)}, expected {tuple(expected)}"]


def check_chain_size(label: str, count: int, depth: int) -> List[str]:
    """The branched chain of depth d has exactly d*(d+1) closure pairs."""
    if count == depth * (depth + 1):
        return []
    return [f"{label}: {count} pairs, a depth-{depth} branched chain has {depth * (depth + 1)}"]
