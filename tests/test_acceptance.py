"""End-to-end acceptance checks.

Each test verifies one externally stated guarantee of the system at its
pinned tolerance and prints a single PASS/FAIL line (bypassing pytest's
capture so the verdicts always appear in the run log).
"""

from __future__ import annotations

import math
import random
import time
from pathlib import Path

import conftest

from credit_ledger import (
    CycleError,
    build_graph,
    canonicalize_id,
    parse_creditmap,
    serialize_creditmap,
    transitive_credit,
    validate_creditmap,
    validate_orcid_checksum,
)
from conftest import (
    AUTHOR_C,
    CORPUS_FILES,
    DEV1,
    PRODUCT_B,
    PRODUCT_C,
    fixture_bytes,
    fixture_path,
)
from corpus import as_plain, make_chain, make_corpus
from oracles import credit_by_paths, orcid_is_valid


def _report(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {name}: {verdict}{suffix}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def _load_fixture_graph():
    maps = [parse_creditmap(fixture_bytes(name))[0] for name in CORPUS_FILES]
    return build_graph(maps)


def test_acceptance_worked_example_credit_flow() -> None:
    """Credit reaching the toolkit's lead developer one and two steps up."""
    ok = False
    detail = ""
    try:
        start = time.perf_counter()
        graph = _load_fixture_graph()
        one_step = transitive_credit(graph, PRODUCT_B).shares.get(DEV1, 0.0)
        two_step = transitive_credit(graph, PRODUCT_C).shares.get(DEV1, 0.0)
        elapsed = time.perf_counter() - start
        ok = (
            abs(one_step - 0.125) <= 1e-12
            and abs(two_step - 0.0125) <= 1e-12
            and elapsed < 1.0
        )
        detail = f"one step {one_step!r}, two steps {two_step!r}, {elapsed * 1000:.0f}ms"
        assert abs(one_step - 0.125) <= 1e-12, detail
        assert abs(two_step - 0.0125) <= 1e-12, detail
        assert elapsed < 1.0, detail
    finally:
        _report("worked-example-credit-flow", ok, detail)


def test_acceptance_golden_document_round_trip() -> None:
    """The published example document validates and normalizes byte-stably."""
    ok = False
    detail = ""
    try:
        creditmap, warnings = parse_creditmap(fixture_bytes("article_creditmap.jsonld"))
        violations = validate_creditmap(creditmap)
        weights = [e.weight for e in creditmap.entries]
        total = math.fsum(weights)
        once = serialize_creditmap(creditmap)
        twice = serialize_creditmap(parse_creditmap(once)[0])
        ok = (
            warnings == []
            and violations == []
            and weights == [0.25, 0.25, 0.3, 0.04, 0.01, 0.15]
            and abs(total - 1.0) <= 1e-12
            and once == twice
        )
        detail = f"weights {weights}, sum {total!r}, byte-stable {once == twice}"
        assert violations == []
        assert weights == [0.25, 0.25, 0.3, 0.04, 0.01, 0.15]
        assert abs(total - 1.0) <= 1e-12
        assert once == twice
    finally:
        _report("golden-document-round-trip", ok, detail)


def test_acceptance_credit_conservation() -> None:
    """Every allocation sums to one at any depth limit, over 1000 corpora."""
    ok = False
    detail = ""
    try:
        rng = random.Random(424242)
        worst = 0.0
        checked = 0
        for _ in range(1000):
            maps = make_corpus(rng, max_products=50, max_entries=8)
            graph = build_graph(maps)
            for creditmap in maps:
                for depth in (None, 1, 2, 3):
                    allocation = transitive_credit(graph, creditmap.product.id, depth)
                    error = abs(math.fsum(allocation.shares.values()) - 1.0)
                    worst = max(worst, error)
                    checked += 1
                    assert error <= 1e-9, (
                        f"{creditmap.product.id} at depth {depth}: off by {error}"
                    )
        ok = True
        detail = f"{checked} allocations, worst deviation {worst:.3e}"
    finally:
        _report("credit-conservation", ok, detail)


def test_acceptance_path_oracle_equivalence() -> None:
    """Mass-push propagation matches all-paths enumeration, 200 corpora."""
    ok = False
    detail = ""
    try:
        rng = random.Random(515151)
        worst = 0.0
        compared = 0
        for _ in range(200):
            maps = make_corpus(rng, max_products=10, max_entries=8)
            graph = build_graph(maps)
            plain = as_plain(maps)
            for creditmap in maps:
                pid = creditmap.product.id
                got = transitive_credit(graph, pid).shares
                want = credit_by_paths(plain, pid)
                assert got.keys() == want.keys(), pid
                for key in want:
                    error = abs(got[key] - want[key])
                    worst = max(worst, error)
                    compared += 1
                    assert error <= 1e-12, f"{pid} -> {key}: off by {error}"
        ok = True
        detail = f"{compared} shares compared, worst deviation {worst:.3e}"
    finally:
        _report("path-oracle-equivalence", ok, detail)


def test_acceptance_chain_multiplication() -> None:
    """Down a citation chain, credit is the product of the edge weights."""
    ok = False
    detail = ""
    try:
        rng = random.Random(616161)
        worst = 0.0
        checked = 0
        for length in range(1, 9):
            for _ in range(25):
                maps, lead, hops, lead_weight = make_chain(rng, length)
                graph = build_graph(maps)
                got = transitive_credit(graph, maps[-1].product.id).shares.get(lead, 0.0)
                want = lead_weight
                for hop in hops:
                    want *= hop
                error = abs(got - want)
                worst = max(worst, error)
                checked += 1
                assert error <= 1e-12, f"chain length {length}: off by {error}"
        ok = True
        detail = f"{checked} chains up to length 8, worst deviation {worst:.3e}"
    finally:
        _report("chain-multiplication", ok, detail)


def test_acceptance_cycle_rejection(run_cli, tmp_path: Path) -> None:
    """Cyclic corpora are refused with a witness, in the library and the CLI."""
    ok = False
    detail = ""
    try:
        maps = [
            parse_creditmap(fixture_bytes(name))[0]
            for name in ("cycle_x.jsonld", "cycle_y.jsonld")
        ]
        witness = None
        try:
            build_graph(maps)
        except CycleError as exc:
            witness = exc.witness
        assert witness is not None, "cycle was not detected"
        cited = {(m.product.id, e.entity) for m in maps for e in m.entries}
        assert len(witness) >= 2 and witness[0] == witness[-1]
        for source, target in zip(witness, witness[1:]):
            assert (source, target) in cited, "witness edge not in the corpus"

        registry = str(tmp_path / "cycle-reg")
        code, _, _ = run_cli(
            "ingest",
            "--registry",
            registry,
            str(fixture_path("cycle_x.jsonld")),
            str(fixture_path("cycle_y.jsonld")),
        )
        assert code == 0, "individually valid documents should ingest"
        code, _, err = run_cli("graph", "--registry", registry)
        assert code == 1, f"expected exit 1, got {code}"
        assert "citation cycle" in err
        ok = True
        detail = "witness " + " -> ".join(witness)
    finally:
        _report("cycle-rejection", ok, detail)


def test_acceptance_orcid_checksum_suite() -> None:
    """Known ORCIDs validate; single-digit perturbations fail; oracle agrees."""
    ok = False
    detail = ""
    try:
        known = (
            "0000-0001-5934-7525",
            "0000-0002-7217-4494",
            "0000-0002-5702-149X",
        )
        for orcid in known:
            assert validate_orcid_checksum(orcid), orcid
            assert orcid_is_valid(orcid), orcid
            assert canonicalize_id(orcid) == f"orcid:{orcid}"

        subject = known[0]
        digit_positions = [i for i, ch in enumerate(subject) if ch.isdigit()][:15]
        cases = 0
        disagreements = 0
        for position in digit_positions:
            for digit in "0123456789":
                mutated = subject[:position] + digit + subject[position + 1 :]
                expected = digit == subject[position]
                got = validate_orcid_checksum(mutated)
                oracle = orcid_is_valid(mutated)
                cases += 1
                if got != oracle:
                    disagreements += 1
                assert got == expected, f"position {position} digit {digit}"
                assert got == oracle, f"oracle disagrees at position {position} digit {digit}"
        assert cases == 150
        ok = True
        detail = f"3 known ids, {cases} perturbation cases, {disagreements} oracle disagreements"
    finally:
        _report("orcid-checksum-suite", ok, detail)


def test_acceptance_cli_end_to_end(run_cli, tmp_path: Path) -> None:
    """Fresh registry, three ingests, a credit query, and a global ranking."""
    ok = False
    detail = ""
    try:
        registry = str(tmp_path / "reg")
        start = time.perf_counter()
        code, out, err = run_cli(
            "ingest",
            "--registry",
            registry,
            *(str(fixture_path(name)) for name in CORPUS_FILES),
        )
        assert code == 0, err
        assert len(out.splitlines()) == 3

        code, credit_out, err = run_cli(
            "credit",
            "--registry",
            registry,
            "--product",
            PRODUCT_B,
            "--entity",
            DEV1,
        )
        assert code == 0, err

        code, rank_out, err = run_cli("rank", "--registry", registry, "--scope", "all")
        elapsed = time.perf_counter() - start
        assert code == 0, err

        # Expected table from the definition: an entity's share of a product
        # is the product of the weights along each citation path, summed over
        # paths; `rank --scope all` sums those shares over every product.
        # For the lead developer that is
        #   0.5 (A) + 0.25 * 0.5 (B) + 0.1 * 0.25 * 0.5 (C) = 0.6375,
        # while the authors of C (0.9, nothing cites C) and of B
        # (0.75 + 0.1 * 0.75 = 0.825) rank above. 0.625 would be the
        # developer's total over A and B alone, where B's author still leads.
        plain = as_plain([parse_creditmap(fixture_bytes(name))[0] for name in CORPUS_FILES])
        oracle: dict[str, float] = {}
        for product in plain:
            for entity, share in credit_by_paths(plain, product).items():
                oracle[entity] = oracle.get(entity, 0.0) + share
        expected = sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))

        got = [
            (entity, float(total))
            for _, entity, total in (line.split() for line in rank_out.splitlines())
        ]
        first_entity, first_total = got[0]
        dev1_total = next(total for entity, total in got if entity == DEV1)

        credit_ok = credit_out == "0.125000000000\n"
        rank_ok = (
            first_entity == AUTHOR_C
            and abs(first_total - 0.9) <= 1e-12
            and abs(dev1_total - 0.6375) <= 1e-12
        )
        table_ok = (
            [entity for entity, _ in got] == [entity for entity, _ in expected]
            and all(
                abs(total - want) <= 1e-12
                for (_, total), (_, want) in zip(got, expected)
            )
        )
        time_ok = elapsed < 2.0
        ok = credit_ok and rank_ok and table_ok and time_ok
        detail = (
            f"credit line {credit_out.strip()!r}; rank leader {first_entity} "
            f"at {first_total}, dev1 total {dev1_total}; {elapsed * 1000:.0f}ms"
        )
        assert credit_ok, detail
        assert rank_ok, (
            f"expected {AUTHOR_C} ranked first with total 0.9 and {DEV1} at 0.6375, "
            f"got {first_entity} with {first_total} (dev1 holds {dev1_total}): {detail}"
        )
        assert table_ok, f"rank table {got} differs from the path oracle {expected}"
        assert time_ok, detail
    finally:
        _report("cli-end-to-end", ok, detail)
