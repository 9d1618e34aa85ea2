"""Seeded creditmap generators for the benchmark workloads.

Each generated product is one `Product` record: its canonical id text, its
weighted references as canonical id text, and the JSON-LD document bytes
that the program ingests. The reference propagation reads the records; the
program only ever sees the bytes, written to disk as `.jsonld` files.

Ids are generated already in canonical form (lower-case DOIs, names and
emails, URLs without a trailing slash), so the text the reference computes
with is the text the command line prints. Everything here is stdlib only
and does not import `credit_ledger`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

DOI_PREFIX = "10.5555/"
UNIT = 10**6
PRODUCT_TYPES = ("ScholarlyArticle", "Code", "Dataset")


@dataclass(frozen=True)
class Product:
    """One generated credit map."""

    id: str
    refs: tuple[tuple[str, float], ...]
    doc: bytes


@dataclass(frozen=True)
class Contributor:
    """A person or external software entry: canonical id plus document keys."""

    id: str
    keys: tuple[tuple[str, str], ...]


def orcid_check_char(base15: str) -> str:
    """ISO 7064 mod 11-2 check character for 15 ORCID base digits."""
    total = 0
    for ch in base15:
        total = (total + int(ch)) * 2
    result = (12 - total % 11) % 11
    return "X" if result == 10 else str(result)


def mint_orcid(rng: random.Random) -> str:
    base = "0000" + "".join(str(rng.randrange(10)) for _ in range(11))
    full = base + orcid_check_char(base)
    return "-".join(full[k:k + 4] for k in range(0, 16, 4))


def person_pool(rng: random.Random, size: int, tag: str) -> list[Contributor]:
    """Authors: about 60% ORCID-keyed, the rest keyed by their name."""
    pool = []
    for k in range(size):
        if rng.random() < 0.6:
            orcid = mint_orcid(rng)
            pool.append(Contributor(
                f"orcid:{orcid}",
                (("@type", "Person"), ("name", f"Author {tag} {k}"),
                 ("@id", f"http://orcid.org/{orcid}")),
            ))
        else:
            name = f"contributor {tag} {k}"
            pool.append(Contributor(f"name:{name}", (("@type", "Person"), ("name", name))))
    return pool


def ack_pool(size: int, tag: str) -> list[Contributor]:
    return [
        Contributor(
            f"email:helper{k}.{tag}@example.org",
            (("@type", "Person"), ("name", f"Helper {k}"),
             ("email", f"helper{k}.{tag}@example.org")),
        )
        for k in range(size)
    ]


def software_pool(size: int, tag: str) -> list[Contributor]:
    return [
        Contributor(
            f"url:https://github.com/lib{tag}/tool{k}",
            (("@type", "Code"), ("name", f"tool{k}"),
             ("codeRepository", f"https://github.com/lib{tag}/tool{k}")),
        )
        for k in range(size)
    ]


def weight_texts(rng: random.Random, n: int, unit: int = UNIT) -> list[str]:
    """n positive decimal weights with six places that sum to unit / 10**6."""
    parts = [rng.randint(50, 1000) for _ in range(n)]
    total = sum(parts)
    units = [p * unit // total for p in parts]
    units[0] += unit - sum(units)
    return ["1" if u == UNIT else f"0.{u:06d}" for u in units]


def product_id(tag: str, index: int) -> str:
    return f"doi:{DOI_PREFIX}{tag}.p{index}"


def make_product(
    rng: random.Random,
    pid: str,
    authors: list[Contributor],
    cited: list[str],
    software: list[Contributor],
    acks: list[Contributor],
    *,
    unit: int = UNIT,
) -> Product:
    """Build the document and reference record of one product.

    unit below 10**6 makes the weights sum to less than 1, which the
    program must reject.
    """
    groups = [
        ("author", [c.keys for c in authors], [c.id for c in authors]),
        ("articles",
         [(("@type", "ScholarlyArticle"), ("doi", c[len("doi:"):])) for c in cited],
         cited),
        ("software", [c.keys for c in software], [c.id for c in software]),
        ("acknowledgment", [c.keys for c in acks], [c.id for c in acks]),
    ]
    texts = iter(weight_texts(rng, sum(len(ids) for _, _, ids in groups), unit))
    refs = []
    rendered: dict[str, list[dict[str, str]]] = {}
    for key, key_sets, ids in groups:
        for keys, target in zip(key_sets, ids):
            weight = next(texts)
            rendered.setdefault(key, []).append(dict(keys, creditWeight=weight))
            refs.append((target, float(weight)))
    doc: dict[str, object] = {
        "@context": "http://schema.org",
        "@type": rng.choice(PRODUCT_TYPES),
        "doi": pid[len("doi:"):],
        "headline": f"Generated product {pid[len('doi:'):]}",
        "dateCreated": f"20{rng.randint(10, 24)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
    }
    if "author" in rendered:
        doc["author"] = rendered.pop("author")
    if rendered:
        doc["citation"] = rendered
    data = (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    return Product(pid, tuple(refs), data)


class WideShape:
    """Shallow products like tests/corpus.py: 1-4 pooled authors, at most
    2 citations of any earlier product, 0-2 external software refs and an
    occasional email acknowledgment."""

    def __init__(self, rng: random.Random, tag: str, expected: int):
        self.rng = rng
        self.tag = tag
        self.people = person_pool(rng, max(40, expected // 3), tag)
        self.software = software_pool(max(20, expected // 10), tag)
        self.acks = ack_pool(max(20, expected // 5), tag)

    def product(
        self, index: int, *, pid: str | None = None, unit: int = UNIT, authors: bool = True
    ) -> Product:
        """Product number index, citing only products numbered below it.

        pid, unit and authors make the invalid documents of ingest-mixed:
        an id outside the numbering, weights that do not sum to 1, or no
        author entry.
        """
        rng = self.rng
        chosen = rng.sample(self.people, rng.randint(1, 4)) if authors else []
        n_cite = min(index, rng.choice((0, 1, 1, 2)))
        cited = [product_id(self.tag, j) for j in rng.sample(range(index), n_cite)]
        software = rng.sample(self.software, rng.randint(1 if not authors else 0, 2))
        acks = rng.sample(self.acks, rng.choice((0, 0, 1)))
        return make_product(
            rng, pid or product_id(self.tag, index), chosen, cited, software, acks, unit=unit
        )


class DeepShape:
    """Each product has 2 pooled authors and cites 3 random products among
    its previous 50, so citation chains run the length of the registry."""

    WINDOW = 50
    CITES = 3

    def __init__(self, rng: random.Random, tag: str, expected: int):
        self.rng = rng
        self.tag = tag
        self.people = person_pool(rng, max(40, expected), tag)

    def product(self, index: int) -> Product:
        rng = self.rng
        window = range(max(0, index - self.WINDOW), index)
        cited = [
            product_id(self.tag, j)
            for j in rng.sample(window, min(self.CITES, len(window)))
        ]
        return make_product(
            rng, product_id(self.tag, index), rng.sample(self.people, 2), cited, [], []
        )


def as_corpus(products: list[Product]) -> dict[str, list[tuple[str, float]]]:
    """Registry contents as the reference sees them: id -> weighted refs."""
    return {p.id: list(p.refs) for p in products}
