"""Namespace helpers and the vocabularies used by the paper's examples.

The paper's running examples (Figs. 4-9) draw on the FOAF vocabulary plus
an ``ns:`` example namespace providing ``ns:knowsNothingAbout``. These are
provided ready-made so that tests, examples, and workload generators all
spell terms identically.
"""

from __future__ import annotations

from typing import Dict

from .terms import IRI

__all__ = ["Namespace", "FOAF", "NS", "RDF", "RDFS", "XSD_NS", "COMMON_PREFIXES"]


class Namespace:
    """A factory of IRIs sharing a common prefix.

    >>> foaf = Namespace("http://xmlns.com/foaf/0.1/")
    >>> foaf.name
    IRI(value='http://xmlns.com/foaf/0.1/name')
    >>> foaf["knows"]
    IRI(value='http://xmlns.com/foaf/0.1/knows')
    """

    def __init__(self, base: str) -> None:
        if not base:
            raise ValueError("namespace base must be non-empty")
        self._base = base

    @property
    def base(self) -> str:
        return self._base

    def term(self, local: str) -> IRI:
        return IRI(self._base + local)

    def __getitem__(self, local: str) -> IRI:
        return self.term(local)

    def __getattr__(self, local: str) -> IRI:
        if local.startswith("_"):
            raise AttributeError(local)
        return self.term(local)

    def __contains__(self, iri: IRI) -> bool:
        return isinstance(iri, IRI) and iri.value.startswith(self._base)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Namespace({self._base!r})"


#: The FOAF vocabulary used throughout the paper's example queries.
FOAF = Namespace("http://xmlns.com/foaf/0.1/")
#: The paper's example namespace (PREFIX ns: <http://example.org/ns#>).
NS = Namespace("http://example.org/ns#")
RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
XSD_NS = Namespace("http://www.w3.org/2001/XMLSchema#")

#: Prefix map pre-loaded into the SPARQL parser for convenience in tests
#: and examples; real queries may of course re-declare them.
COMMON_PREFIXES: Dict[str, str] = {
    "foaf": FOAF.base,
    "ns": NS.base,
    "rdf": RDF.base,
    "rdfs": RDFS.base,
    "xsd": XSD_NS.base,
}
