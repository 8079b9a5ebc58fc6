"""Seeded inputs for the three workloads, generated by the benchmark itself.

Nothing here imports the program: the graphs, queries, write batches and
closure edges are plain strings and tuples, so a change to the program's own
workload generators cannot silently change what the benchmark measures.

The LUBM-style graph follows the shape of the repository's university
series (professor ranks, graduate courses, research groups, advisor edges,
``subOrganizationOf`` existentials) and is stored as RDF with the paper's
Table 1 encoding: ``some_p`` is the URI of the restriction ``∃p`` and ``p-``
the URI of the inverse property ``p⁻``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

Triple = Tuple[str, str, str]

RDF_TYPE = "rdf:type"

#: The workload TBox: (kind, first, second).  ``some`` is ``first ⊑ ∃second``
#: and ``some_inv`` is ``∃first⁻ ⊑ second``.
TBOX = (
    ("sub_class", "FullProfessor", "Professor"),
    ("sub_class", "AssociateProfessor", "Professor"),
    ("sub_class", "AssistantProfessor", "Professor"),
    ("sub_class", "Professor", "Faculty"),
    ("sub_class", "Lecturer", "Faculty"),
    ("sub_class", "Faculty", "Employee"),
    ("sub_class", "Employee", "Person"),
    ("sub_class", "UndergraduateStudent", "Student"),
    ("sub_class", "GraduateStudent", "Student"),
    ("sub_class", "Student", "Person"),
    ("sub_class", "ResearchGroup", "Organization"),
    ("sub_class", "Department", "Organization"),
    ("sub_class", "University", "Organization"),
    ("sub_class", "GraduateCourse", "Course"),
    ("sub_property", "headOf", "worksFor"),
    ("sub_property", "worksFor", "memberOf"),
    ("sub_property", "teacherOf", "involvedIn"),
    ("sub_property", "takesCourse", "involvedIn"),
    ("sub_property", "advisor", "knows"),
    ("some", "Professor", "teacherOf"),
    ("some", "Student", "takesCourse"),
    ("some", "Faculty", "worksFor"),
    ("some", "GraduateStudent", "advisor"),
    ("some", "Department", "subOrganizationOf"),
    ("some_inv", "teacherOf", "Course"),
    ("some_inv", "takesCourse", "Course"),
    ("some_inv", "worksFor", "Department"),
    ("some_inv", "advisor", "Professor"),
    ("some_inv", "subOrganizationOf", "University"),
)

_RANKS = ("FullProfessor", "AssociateProfessor", "AssistantProfessor")


class Scale:
    """Size of one LUBM-style graph."""

    def __init__(self, universities, departments, students, faculty=4, courses=6):
        self.universities = universities
        self.departments = departments
        self.students = students
        self.faculty = faculty
        self.courses = courses


#: service_mix: 3 universities x 4 departments x 40 students (13,804 facts).
SERVICE_SCALE = Scale(3, 4, 40)
#: cold_triq: 1 x 3 x 30, about a fifth of a second per cold query.
COLD_SCALE = Scale(1, 3, 30)


def _tbox_triples() -> Tuple[List[Triple], set, set]:
    triples: List[Triple] = []
    classes, properties = set(), set()
    for kind, first, second in TBOX:
        if kind == "sub_class":
            triples.append((first, "rdfs:subClassOf", second))
            classes.update((first, second))
        elif kind == "sub_property":
            triples.append((first, "rdfs:subPropertyOf", second))
            properties.update((first, second))
        elif kind == "some":
            triples.append((first, "rdfs:subClassOf", f"some_{second}"))
            classes.add(first)
            properties.add(second)
        else:
            triples.append((f"some_{first}-", "rdfs:subClassOf", second))
            properties.add(first)
            classes.add(second)
    return triples, classes, properties


def lubm_abox(scale: Scale, seed: int) -> List[Triple]:
    """The ABox: class and property assertions over named individuals."""
    rng = random.Random(seed)
    abox: List[Triple] = []
    for u in range(scale.universities):
        university = f"univ{u}"
        abox.append((university, RDF_TYPE, "University"))
        for d in range(scale.departments):
            department = f"u{u}dept{d}"
            group = f"u{u}d{d}group"
            abox += [
                (department, RDF_TYPE, "Department"),
                (department, "subOrganizationOf", university),
                (group, RDF_TYPE, "ResearchGroup"),
                (group, "subOrganizationOf", department),
            ]
            courses = [f"u{u}d{d}course{c}" for c in range(scale.courses)]
            for c, course in enumerate(courses):
                abox.append((course, RDF_TYPE, "GraduateCourse" if c % 3 == 0 else "Course"))
            professors = []
            for f in range(scale.faculty):
                person = f"u{u}d{d}fac{f}"
                if f % 4 == 3:
                    abox.append((person, RDF_TYPE, "Lecturer"))
                else:
                    abox.append((person, RDF_TYPE, _RANKS[f % len(_RANKS)]))
                    professors.append(person)
                abox += [(person, "worksFor", department), (person, "memberOf", group)]
                abox.append((person, "teacherOf", courses[rng.randrange(len(courses))]))
                if f == 0:
                    abox.append((person, "headOf", department))
            for s in range(scale.students):
                student = f"u{u}d{d}stud{s}"
                graduate = s % 4 == 0
                abox.append(
                    (student, RDF_TYPE, "GraduateStudent" if graduate else "UndergraduateStudent")
                )
                for _ in range(1 + s % 2):
                    abox.append((student, "takesCourse", courses[rng.randrange(len(courses))]))
                if graduate and professors:
                    abox.append((student, "advisor", professors[rng.randrange(len(professors))]))
    return abox


def lubm_graph(scale: Scale, seed: int) -> List[Triple]:
    """Declarations + TBox + ABox, deduplicated, in a stable order."""
    tbox, classes, properties = _tbox_triples()
    abox = lubm_abox(scale, seed)
    for _, predicate, obj in abox:
        if predicate == RDF_TYPE:
            classes.add(obj)
        else:
            properties.add(predicate)
    declarations: List[Triple] = [(c, RDF_TYPE, "owl:Class") for c in sorted(classes)]
    for p in sorted(properties):
        inverse, some, some_inverse = f"{p}-", f"some_{p}", f"some_{p}-"
        declarations += [
            (p, RDF_TYPE, "owl:ObjectProperty"),
            (inverse, RDF_TYPE, "owl:ObjectProperty"),
            (p, "owl:inverseOf", inverse),
            (inverse, "owl:inverseOf", p),
            (some, RDF_TYPE, "owl:Restriction"),
            (some_inverse, RDF_TYPE, "owl:Restriction"),
            (some, "owl:onProperty", p),
            (some_inverse, "owl:onProperty", inverse),
            (some, "owl:someValuesFrom", "owl:Thing"),
            (some_inverse, "owl:someValuesFrom", "owl:Thing"),
            (some, RDF_TYPE, "owl:Class"),
            (some_inverse, RDF_TYPE, "owl:Class"),
        ]
    return list(dict.fromkeys(declarations + tbox + abox))


def ntriples(triples: List[Triple]) -> str:
    """The graph as the line-per-triple text ``python -m repro.service`` loads."""
    return "".join(f"{s} {p} {o} .\n" for s, p, o in triples)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

#: A query: projected variables and a basic graph pattern.  Terms starting
#: with ``?`` are variables, with ``_:`` blank nodes; the rest are URIs.
Query = Tuple[Tuple[str, ...], Tuple[Triple, ...]]


def query_text(query: Query) -> str:
    """SPARQL text of a query."""
    projection, patterns = query
    body = " . ".join(" ".join(pattern) for pattern in patterns)
    return f"SELECT {' '.join(projection)} WHERE {{ {body} }}"


def lubm_queries(scale: Scale, seed: int) -> List[Query]:
    """Six entailment-regime queries; the seed picks the department and university.

    Class hierarchy (0, 1), two-pattern joins (2, 3), and blank-node
    existentials (4, 5), whose U and All answers differ once individuals
    without a named witness are pushed.  The seed changes which entities a
    query names, not how much work it does: the graph is symmetric across
    departments and universities.
    """
    rng = random.Random(seed * 7919 + 1)
    u = rng.randrange(scale.universities)
    d = rng.randrange(scale.departments)
    return [
        (("?X",), (("?X", RDF_TYPE, "Person"),)),
        (("?X",), (("?X", RDF_TYPE, "Employee"),)),
        (("?X", "?Y"), (("?X", "advisor", "?Y"), ("?Y", "worksFor", f"u{u}dept{d}"))),
        (("?X", "?C"), (("?X", "involvedIn", "?C"), ("?C", RDF_TYPE, "GraduateCourse"))),
        (("?X",), (("?X", "advisor", "_:B"),)),
        (("?X",), (("?X", "worksFor", "_:D"), ("_:D", "subOrganizationOf", f"univ{u}"))),
    ]


def write_batches(scale: Scale, seed: int, count: int) -> List[List[Triple]]:
    """``count`` three-triple batches, each about one fresh individual.

    Even batches add a graduate student with a named advisor; odd batches add
    one whose advisor is left to the ontology's existential axiom, and a
    lecturer-less course enrolment, so All-mode answers gain invented nulls.
    """
    rng = random.Random(seed * 104729 + 2)
    batches = []
    for i in range(count):
        u, d = rng.randrange(scale.universities), rng.randrange(scale.departments)
        person = f"s{seed}new{i}"
        course = f"u{u}d{d}course{rng.randrange(scale.courses)}"
        if i % 2 == 0:
            faculty = f"u{u}d{d}fac{rng.randrange(3)}"
            batches.append([
                (person, RDF_TYPE, "GraduateStudent"),
                (person, "takesCourse", course),
                (person, "advisor", faculty),
            ])
        else:
            batches.append([
                (person, RDF_TYPE, "GraduateStudent"),
                (person, "takesCourse", course),
                (person, "memberOf", f"u{u}d{d}group"),
            ])
    return batches


# ---------------------------------------------------------------------------
# Closure shapes
# ---------------------------------------------------------------------------

#: Layered DAG: layers x width, each node with this many distinct
#: successors, drawn at random from the next layer.
WIDE_LAYERS, WIDE_WIDTH, WIDE_FANOUT = 7, 32, 4
#: Branched chain depth: a spine of DEPTH edges with one leaf per spine node.
DEEP_DEPTH = 128


def layered_dag(seed: int) -> List[Tuple[str, str]]:
    """Few rounds of wide deltas: edges only between consecutive layers.

    A fixed fan-out keeps the edge count, and nearly the pair count, the same
    for every seed.
    """
    rng = random.Random(seed * 31 + 3)
    edges = []
    for layer in range(WIDE_LAYERS - 1):
        for i in range(WIDE_WIDTH):
            for j in sorted(rng.sample(range(WIDE_WIDTH), WIDE_FANOUT)):
                edges.append((f"w{layer}_{i}", f"w{layer + 1}_{j}"))
    return edges


def branched_chain(seed: int) -> List[Tuple[str, str]]:
    """Hundreds of rounds of narrow deltas; closure has depth*(depth+1) pairs.

    The seed only renames the nodes: the shape is fixed so the pair count is
    a property the check can state.
    """
    prefix = f"c{seed}_"
    spine = [(f"{prefix}{i}", f"{prefix}{i + 1}") for i in range(DEEP_DEPTH)]
    leaves = [(f"{prefix}{i}", f"{prefix}leaf{i}") for i in range(DEEP_DEPTH)]
    return spine + leaves


CLOSURE_PROGRAM = "e(?X, ?Y) -> tc(?X, ?Y).\ntc(?X, ?Y), e(?Y, ?Z) -> tc(?X, ?Z).\n"

SHAPES: Dict[str, object] = {"wide": layered_dag, "deep": branched_chain}
