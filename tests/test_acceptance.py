"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Every expected value is either hand-derived in comments or
recomputed by an independent oracle inside the test.
"""

import json
import time
from math import gcd
from pathlib import Path

import jsonschema
import pytest

from nclosed import closedness
from nclosed.cli import main
from nclosed.closedness import (
    analyze_coset,
    analyze_subgroup,
    closedness_spectrum,
    is_n_closed,
    least_closed_scan,
    least_exponent,
    least_power_exponent,
    power_coset_closedness,
)
from nclosed.groups import Element, validate_cayley_table
from nclosed.normality import normal_iff_existential, normal_iff_index_plus_one
from nclosed.parsing import parse_group_spec
from nclosed.subsets import (
    GSubset,
    Subgroup,
    coset_commutes,
    left_cosets,
    proper_subgroups,
    translate_mask_left,
)
from nclosed.verify import (
    DEFAULT_CORPUS,
    cross_check_engine_oracle,
    multiplicative_semigroup,
    cor22_coset_checks,
    sweep_extraction,
)

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / "schemas" / "verify.schema.json"


def report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def corpus():
    return [parse_group_spec(spec) for spec in DEFAULT_CORPUS]


@pytest.fixture(scope="module")
def default_cli_run():
    """One timed CLI run of `verify --corpus default --format json`."""
    import contextlib
    import io

    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--corpus", "default", "--format", "json",
                     "--jobs", "2", "--seed", "0"])
    elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def test_criterion_1_cor22_equivalence(corpus):
    start = time.perf_counter()
    checked, violations = 0, []
    for g in corpus:
        for h in proper_subgroups(g):
            for coset_report in analyze_subgroup(h).cosets:
                c, v = cor22_coset_checks(coset_report)
                checked += c
                violations.extend(v)
    elapsed = time.perf_counter() - start
    ok = checked >= 2000 and not violations and elapsed < 30
    report(1, ok, f"coset fast-path vs engine: {checked} checks, "
                  f"{len(violations)} mismatches, {elapsed:.1f}s")


def test_criterion_2_normality_via_index_plus_one(corpus):
    disagreements = 0
    classic = {}
    for g in corpus:
        for h in proper_subgroups(g):
            v = normal_iff_index_plus_one(analyze_subgroup(h))
            if not v.agreement or v.violations:
                disagreements += 1
            classic[(g.name, tuple(sorted(h.carrier.labels())))] = v.verdict_classic

    s3 = next(g for g in corpus if g.name == "S3")
    a4 = next(g for g in corpus if g.name.startswith("perm(4)"))
    # required positives
    assert classic[("S3", tuple(sorted(["e", "(1 2 3)", "(1 3 2)"])))]
    assert classic[("Q8", tuple(sorted(["1", "-1", "i", "-i"])))]
    for g in corpus:
        if g.is_abelian():
            assert all(classic[key] for key in classic if key[0] == g.name)
    # required negatives
    assert not classic[("S3", tuple(sorted(["e", "(1 2)"])))]
    for name in ("D4", "D5"):
        g = next(x for x in corpus if x.name == name)
        refl = [i for i in range(g.order) if g.labels[i].startswith("s")]
        assert any(not classic[(name, tuple(sorted([g.labels[0], g.labels[r]])))]
                   for r in refl)
    order3 = [h for h in proper_subgroups(a4) if h.order == 3]
    assert order3 and all(
        not classic[(a4.name, tuple(sorted(h.carrier.labels())))] for h in order3)

    ok = disagreements == 0
    report(2, ok, f"classic vs (index+1)-closed over {len(classic)} proper "
                  f"subgroups, {disagreements} disagreements")


def test_criterion_3_normality_existential(corpus):
    subgroups = 0
    disagreements = 0
    bad_witnesses = 0
    for g in corpus:
        for h in proper_subgroups(g):
            subgroups += 1
            v = normal_iff_existential(analyze_subgroup(h))
            if not v.agreement or v.violations:
                disagreements += 1
            for check in v.per_coset:
                if check.closedness_checked is None:
                    continue
                t = least_exponent(Element(g, check.rep), h)
                if (check.closedness_checked - 1) % t != 0:
                    bad_witnesses += 1
    ok = disagreements == 0 and bad_witnesses == 0
    report(3, ok, f"existential closedness vs classic over {subgroups} "
                  f"subgroups, {disagreements} disagreements, "
                  f"{bad_witnesses} inconsistent witnesses")


def test_criterion_4_exhaustive_extraction(corpus):
    start = time.perf_counter()
    checked = 0
    violations = []
    for g in corpus:
        if g.order > 10:
            continue
        c, v = sweep_extraction(g)
        checked += c
        violations.extend(v)
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 60 and checked > 0
    report(4, ok, f"subset extraction over all groups of order <= 10: "
                  f"{checked} qualifying (D, n) pairs, {len(violations)} "
                  f"violations, {elapsed:.1f}s")


def test_criterion_5_engine_oracle_agreement():
    count, violations = cross_check_engine_oracle(seed=0)
    ok = count >= 500 and not violations
    report(5, ok, f"engine vs tuple oracle on {count} (D, n) pairs, "
                  f"{len(violations)} mismatches")


def test_criterion_6_membership_and_spectrum(corpus):
    checked_cosets = 0
    mismatches = 0
    for g in corpus:
        for h in proper_subgroups(g):
            for rep, coset in zip(*_nontrivial_cosets(g, h)):
                a = Element(g, rep)
                if not coset_commutes(a, h):
                    continue
                checked_cosets += 1
                t = least_exponent(a, h)
                x = g.identity
                for m in range(1, 2 * g.order + 1):
                    x = g.mul(x, rep)
                    if (x in h) != (m % t == 0):
                        mismatches += 1
                desc = closedness_spectrum(analyze_coset(a, h), verify_up_to=20)
                mismatches += len(desc.violations)
                for m in range(2, 21):
                    if is_n_closed(coset, m) != desc.contains(m):
                        mismatches += 1
    ok = mismatches == 0 and checked_cosets > 0
    report(6, ok, f"power membership (m <= 2|G|) and spectrum (m <= 20) on "
                  f"{checked_cosets} commuting cosets, {mismatches} mismatches")


def _nontrivial_cosets(g, h):
    part = left_cosets(h)
    reps, cosets = [], []
    for rep, coset in zip(part.representatives, part.cosets):
        if rep not in h:
            reps.append(rep)
            cosets.append(coset)
    return reps, cosets


def test_criterion_7_gcd_formulas(corpus):
    checked = 0
    mismatches = 0
    for g in corpus:
        for h in proper_subgroups(g):
            for rep, coset in zip(*_nontrivial_cosets(g, h)):
                a = Element(g, rep)
                if not coset_commutes(a, h):
                    continue
                t = least_exponent(a, h)  # k - 1 in terms of least closedness
                r = analyze_coset(a, h)
                for m in range(1, 2 * t + 1):
                    checked += 1
                    # independent search for the least power of a^m landing in H
                    base = g.pow(rep, m)
                    x, direct = base, 1
                    while x not in h:
                        x = g.mul(x, base)
                        direct += 1
                    c, c_violations = least_power_exponent(r, m)
                    if c != direct or c_violations:
                        mismatches += 1
                    pc, k2, pc_violations = power_coset_closedness(r, m)
                    if pc_violations:
                        mismatches += 1
                    scan = least_closed_scan(pc, max(k2, 3))
                    if base in h:
                        if scan != 2 or k2 != 2:
                            mismatches += 1
                    elif scan != k2 or k2 != t // gcd(m, t) + 1:
                        mismatches += 1
    ok = checked > 0 and mismatches == 0
    report(7, ok, f"gcd exponent and power-coset formulas vs direct search: "
                  f"{checked} (coset, m) pairs, {mismatches} mismatches")


class TestCriterion8Fixtures:
    def test_a_s3_coset_never_closed(self, s3):
        h = Subgroup.from_labels(s3, ["e", "(1 2)"])
        a = Element(s3, s3.index_of_label("(1 3)"))
        coset = GSubset(s3, translate_mask_left(s3, a.index, h.mask))
        assert sorted(coset.labels()) == ["(1 2 3)", "(1 3)"]
        for b in coset.indices():
            assert s3.pow(b, 6) in h
            assert s3.pow(b, 7) in coset
        assert least_closed_scan(coset, 12) is None
        rep = analyze_coset(a, h)
        assert not rep.commutes and rep.least_closedness is None
        report("8a", True, "non-commuting coset of order-6 group: powers land "
                           "as stated, never m-closed, fast path proves it")

    def test_b_z9_progression(self, z9):
        d = GSubset.from_indices(z9, [1, 4, 7])
        ok = (is_n_closed(d, 4) and not is_n_closed(d, 2)
              and not is_n_closed(d, 3))
        report("8b", ok, "mod-9 progression {1,4,7}: 4-closed, not 2-/3-closed")

    def test_c_z4_odds(self, z4):
        d = GSubset.from_indices(z4, [1, 3])
        ok = is_n_closed(d, 3) and not is_n_closed(d, 2)
        report("8c", ok, "mod-4 odd residues {1,3}: 3-closed, not 2-closed")

    def test_d_singletons(self):
        cases = []
        for spec, label in (("Z4", "1"), ("S3", "(1 2 3)"), ("S3", "(1 2)"),
                            ("Z12", "2")):
            g = parse_group_spec(spec)
            idx = g.index_of_label(label)
            k = g.order_of(idx)
            d = GSubset.from_indices(g, [idx])
            for m in range(2, 3 * k + 2):
                assert is_n_closed(d, m) == ((m - 1) % k == 0), (spec, label, m)
            cases.append((spec, label, k))
        report("8d", True, f"singleton spectra m = b*k + 1 up to 3k+1 for {cases}")

    def test_e_semigroup_shifts(self):
        m6 = multiplicative_semigroup(6)
        d = GSubset.from_labels(m6, ["3", "5"])
        ok = is_n_closed(d, 3) and not is_n_closed(d, 2)
        # D^(3-2) = D = {3, 5}, so the shift sets are 3*D and 5*D
        s3_, s5_ = (GSubset(m6, translate_mask_left(m6, p, d.mask)) for p in (3, 5))
        ok = ok and is_n_closed(s3_, 2) and is_n_closed(s5_, 2)
        ok = ok and s3_.labels() == ["3"] and s5_.labels() == ["1", "3"]
        report("8e", ok, "multiplicative mod-6 semigroup {3,5}: 3-closed, "
                         "not 2-closed, both shift sets 2-closed")


class TestCriterion9CliContract:
    def test_default_verify_json_validates(self, default_cli_run):
        code, out, _ = default_cli_run
        payload = json.loads(out)
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.validate(payload, schema)
        ok = code == 0 and payload["violation_count"] == 0
        report("9 (clean run)", ok,
               f"verify default exits {code}, JSON validates, "
               f"{payload['checks_total']} checks")

    def test_corrupted_table_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"table": [[0, 1], [1, 1]]}))
        code = main(["verify", "--corpus", f"table:{bad}"])
        capsys.readouterr()
        report("9 (corrupt input)", code == 1,
               f"corrupted Cayley table exits {code}")

    def test_mutated_predicate_exits_2_with_replayable_certificate(
            self, monkeypatch, capsys):
        # deliberately wrong engine: every subset n-closed for every n
        everywhere = closedness.ClosednessProfile(start=2, period=1, closed=(2,))
        monkeypatch.setattr(closedness, "closedness_profile", lambda d: everywhere)
        code = main(["verify", "--corpus", "S3", "--jobs", "1",
                     "--format", "json"])
        out = capsys.readouterr().out
        monkeypatch.undo()
        payload = json.loads(out)
        certs = [v for c in payload["claims"].values() for v in c["violations"]]
        certs += payload["cross_check_violations"]
        assert code == 2 and certs
        # replay one certificate from its own table
        cert = certs[0]
        g = validate_cayley_table(cert["table"], cert["labels"])
        assert g.order == 6
        if cert.get("subset"):
            d = GSubset.from_labels(g, cert["subset"])
            n = cert.get("n") or 3
            assert isinstance(closedness.is_n_closed(d, n), bool)
        report("9 (mutation)", True,
               f"mutated closedness predicate exits {code} with "
               f"{len(certs)} replayable certificates")


def test_criterion_10_default_suite_wall_clock(default_cli_run):
    code, out, elapsed = default_cli_run
    ok = code == 0 and elapsed < 120
    report(10, ok, f"default verification suite finished in {elapsed:.1f}s "
                   f"(budget 120s)")
