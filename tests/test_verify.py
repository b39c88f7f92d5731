import concurrent.futures
import json
from collections import Counter
from math import gcd
from pathlib import Path

import jsonschema
import pytest

from nclosed import closedness, util, verify
from nclosed.cli import main
from nclosed.errors import GroupTooLargeForScan
from nclosed.groups import FiniteGroup, validate_cayley_table
from nclosed.parsing import parse_group_spec
from nclosed.subsets import left_cosets, proper_subgroups
from nclosed.verify import (
    CLAIMS,
    DEFAULT_CORPUS,
    cross_check_engine_oracle,
    multiplicative_semigroup,
    run_verification,
    sweep_extraction,
    sweep_semigroup_shifts,
)


def products(struct, ids, k):
    """Every product of k factors from ids, with plain Python sets."""
    out = set(ids)
    for _ in range(k - 1):
        out = {struct.mul(p, q) for p in out for q in ids}
    return out


SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas"


class Flipped2Closedness(closedness.ClosednessProfile):
    """A profile whose 2-closedness verdict is wrong; least is kept."""

    def is_closed(self, n):
        return super().is_closed(n) != (n == 2)


def flip_semigroup_2closedness(monkeypatch):
    """Make the engine wrong about the 2-closedness of every semigroup
    subset, the verdict the C2.1 sweep reads for each shift set; group
    subsets are profiled as before."""
    real = closedness.closedness_profile

    def profile(d):
        p = real(d)
        if isinstance(d.owner, FiniteGroup):
            return p
        return Flipped2Closedness(p.start, p.period, p.closed)

    monkeypatch.setattr(closedness, "closedness_profile", profile)


def is_closed_by_sets(struct, ids, n):
    return products(struct, ids, n) <= set(ids)


def power(g, x, k):
    """x^k for k >= 1, one table product at a time."""
    p = x
    for _ in range(k - 1):
        p = g.mul(p, x)
    return p


def least_landing(g, x, h):
    """Least c >= 1 with x^c in h, walking the powers of x."""
    p, c = x, 1
    while p not in h:
        p, c = g.mul(p, x), c + 1
    return c


def replay_formula_certificate(cert):
    """Rebuild a spectrum, power-exponent or power-coset certificate from
    its own table and labels; return (formula side, set-power side) of the
    identity it names, each a bool or an int."""
    g = validate_cayley_table(cert["table"], cert["labels"])
    h = {g.index_of_label(x) for x in cert["subgroup"]}
    a = g.index_of_label(cert["rep"])
    t, n = cert["least_exponent"], cert["n"]
    if cert["claim"] == "spectrum":
        coset = [g.index_of_label(x) for x in cert["subset"]]
        assert set(coset) == {g.mul(a, x) for x in h}
        return (n - 1) % t == 0, is_closed_by_sets(g, coset, n)
    m = cert["m"]
    c = t // gcd(m, t)
    base = power(g, a, m)
    if cert["claim"] == "power-exponent":
        if cert["detail"].startswith("direct search"):
            return n, least_landing(g, base, h)
        return n % c == 0, power(g, base, n) in h
    assert cert["claim"] == "power-coset"
    coset = [g.index_of_label(x) for x in cert["subset"]]
    assert set(coset) == {g.mul(base, x) for x in h}
    if cert["detail"].startswith("engine found"):
        # the least closedness, read off the set powers up to n
        closed = [k for k in range(2, n + 1) if is_closed_by_sets(g, coset, k)]
        return n, min(closed, default=None)
    return (n - 1) % c == 0, is_closed_by_sets(g, coset, n)


@pytest.fixture(scope="module")
def small_report():
    return run_verification(("S3", "Z8", "Q8"), seed=0)


class TestReport:
    def test_no_violations_and_all_claims_exercised(self, small_report):
        assert small_report.violation_count == 0
        for cid in CLAIMS:
            assert cid in small_report.claims
            assert small_report.claims[cid].checked > 0, cid

    def test_json_shape(self, small_report):
        payload = small_report.to_json_dict()
        assert payload["schema"] == "nclosed.verify/1"
        assert set(payload["claims"]) == set(CLAIMS)
        assert "elapsed" not in json.dumps(payload)  # byte-stable output

    def test_text_rendering_mentions_every_claim(self, small_report):
        text = small_report.render_text()
        for cid in CLAIMS:
            assert cid in text

    def test_seed_changes_only_sampling_not_verdicts(self, capsys):
        a = run_verification(("S3",), seed=1)
        b = run_verification(("S3",), seed=2)
        assert a.violation_count == b.violation_count == 0
        assert a.cross_checks == b.cross_checks
        assert {c: (t.checked, t.violations) for c, t in a.claims.items()} \
            == {c: (t.checked, t.violations) for c, t in b.claims.items()}
        # scan and coset checks are exact, so the seed is at most echoed;
        # the coset's L^(t-1) has 5^4 tuples
        for argv in (["scan", "Z6"], ["coset", "Z25", "--subgroup", "5", "--rep", "1"]):
            payloads = []
            for seed in (0, 5):
                code = main([*argv, "--seed", str(seed), "--jobs", "1", "--format", "json"])
                assert code == 0
                payloads.append(json.loads(capsys.readouterr().out))
            if argv[0] == "scan":
                assert [p.pop("seed") for p in payloads] == [0, 5]
            assert payloads[0] == payloads[1]


class TestOnePass:
    def test_each_coset_analysed_once_per_subgroup(self, monkeypatch):
        real_analyze, real_decide = closedness.analyze_coset, closedness.is_n_closed
        analysed = Counter()
        decided = []

        def analysing(a, h, **kwargs):
            report = real_analyze(a, h, **kwargs)
            analysed[(a.owner.name, h.mask, report.coset.mask)] += 1
            return report

        def deciding(d, n):
            decided.append(d.owner.name)
            return real_decide(d, n)

        monkeypatch.setattr(closedness, "analyze_coset", analysing)
        monkeypatch.setattr(closedness, "is_n_closed", deciding)
        specs = ("D3", "Z10")  # neither is a cross-check group
        run_verification(specs, jobs=1)
        expected = {(g.name, h.mask, c.mask)
                    for g in map(parse_group_spec, specs)
                    for h in proper_subgroups(g)
                    for c in left_cosets(h).cosets if c.mask != h.mask}
        assert set(analysed) == expected
        assert set(analysed.values()) == {1}
        # the normality verdicts read the coset reports, not the engine
        assert not set(decided) & set(specs)

    def test_each_spec_parsed_once(self, monkeypatch):
        parsed = []

        def parsing(spec):
            parsed.append(spec)
            return parse_group_spec(spec)

        monkeypatch.setattr(verify, "parse_group_spec", parsing)
        specs = ("Z5", "D3", "perm(3): (1 2), (1 2 3)")  # none is a cross-check group
        run_verification(specs, jobs=1)
        assert [s for s in parsed if s in specs] == list(specs)


class TestSweeps:
    def test_cor22_sweep_counts(self):
        checked, violations = 0, []
        for h in proper_subgroups(parse_group_spec("S3")):
            for report in closedness.analyze_subgroup(h).cosets:
                c, v = verify.cor22_coset_checks(report)
                checked += c
                violations.extend(v)
        # trivial gives 5 reps, the three order-2 subgroups 2 each, A3 one:
        # 12 non-subgroup cosets, 8 values of n apiece
        assert checked == 96
        assert violations == []

    def test_extraction_sweep_covers_known_sets(self, z9):
        checked, violations = sweep_extraction(z9)
        assert violations == []
        assert checked > 0

    def test_extraction_sweep_cap(self):
        with pytest.raises(GroupTooLargeForScan):
            sweep_extraction(parse_group_spec("Z16"))

    def test_semigroup_sweep(self):
        checked, violations = sweep_semigroup_shifts(multiplicative_semigroup(6))
        assert checked > 0
        assert violations == []

    def test_semigroup_sweep_decides_each_d_and_shift_set_once(self, monkeypatch):
        """Every nonempty subset, so every D and every shift set p*D, is
        profiled exactly once, and is_n_closed is never called."""
        struct = multiplicative_semigroup(8)
        real_profile = closedness.closedness_profile
        profiled = Counter()

        def profiling(d):
            profiled[d.mask] += 1
            return real_profile(d)

        def deciding(d, n):
            raise AssertionError(f"is_n_closed called on {d.labels()} at n={n}")

        monkeypatch.setattr(closedness, "closedness_profile", profiling)
        monkeypatch.setattr(closedness, "is_n_closed", deciding)
        checked, violations = sweep_semigroup_shifts(struct)
        assert violations == [] and checked > 0
        assert profiled == Counter(range(1, 1 << struct.order))

    def test_cross_checks_meet_quota(self):
        count, violations = cross_check_engine_oracle(seed=0)
        assert count >= 500
        assert violations == []


class TestMutationDetection:
    def test_broken_engine_is_caught_with_certificates(self, monkeypatch):
        monkeypatch.setattr(closedness, "is_n_closed", lambda d, n: True)
        report = run_verification(("S3",), seed=0)
        assert report.violation_count > 0
        certs = [v for t in report.claims.values() for v in t.violations]
        certs += report.cross_violations
        assert certs
        for cert in certs:
            assert {"claim", "group", "labels", "table"} <= set(cert)

    def test_wrong_profile_exits_2_with_replayable_certificates(
            self, monkeypatch, capsys):
        everywhere = closedness.ClosednessProfile(start=2, period=1, closed=(2,))
        monkeypatch.setattr(closedness, "closedness_profile", lambda d: everywhere)
        code = main(["verify", "--corpus", "S3", "--jobs", "1", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        monkeypatch.undo()
        assert code == 2
        certs = payload["claims"]["C2.2"]["violations"]
        assert certs
        from nclosed.subsets import GSubset
        for cert in certs:
            g = validate_cayley_table(cert["table"], cert["labels"])
            d = GSubset.from_labels(g, cert["subset"])
            # the real engine sides with the fast path the mutant contradicted
            assert cert["detail"].endswith("fast path False")
            assert not closedness.is_n_closed(d, cert["n"])

    def test_engine_fault_in_semigroup_sweep_exits_2(self, monkeypatch, capsys):
        real = closedness.is_n_closed
        payloads = []
        # at --jobs 2 the sweep runs in a forked worker, which inherits the fault
        for jobs in ("1", "2"):
            flip_semigroup_2closedness(monkeypatch)
            code = main(["verify", "--corpus", "S3", "--jobs", jobs, "--format", "json"])
            payloads.append(json.loads(capsys.readouterr().out))
            monkeypatch.undo()
            assert code == 2, jobs
        payload = payloads[0]
        assert payloads[1] == payload
        jsonschema.validate(payload, json.loads((SCHEMAS / "verify.schema.json").read_text()))
        certs = payload["claims"]["C2.1"]["violations"]
        assert certs
        from nclosed.groups import validate_semigroup_table
        from nclosed.subsets import GSubset
        for cert in certs:
            s = validate_semigroup_table(cert["table"], cert["labels"])
            d = GSubset.from_labels(s, cert["subset"])
            assert real(d, cert["n"])

    def test_wrong_least_exponent_fires_the_coset_prefix_check(
            self, monkeypatch, capsys):
        real = closedness.least_exponent
        monkeypatch.setattr(closedness, "least_exponent", lambda a, h: real(a, h) + 1)
        code = main(["verify", "--corpus", "Z9", "--jobs", "1", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        monkeypatch.undo()
        assert code == 2
        certs = [c for c in payload["claims"]["T2.2.3"]["violations"]
                 if c["claim"] == "coset-prefix"]
        assert certs
        for cert in certs:
            g = validate_cayley_table(cert["table"], cert["labels"])
            h = {g.index_of_label(x) for x in cert["subgroup"]}
            coset = [g.index_of_label(x) for x in cert["subset"]]
            p, n = g.index_of_label(cert["witness"]), cert["n"]
            # p is a product of n - 2 factors from L that fails to map L
            # onto H, so L is not n-closed at the n the mutant implied
            assert p in products(g, coset, n - 2)
            assert ({g.mul(p, x) for x in coset} != h
                    or {g.mul(x, p) for x in coset} != h)
            assert not products(g, coset, n) <= set(coset)

    def test_wrong_least_exponent_fires_the_formula_checks(self, monkeypatch, capsys):
        real = closedness.least_exponent
        monkeypatch.setattr(closedness, "least_exponent", lambda a, h: real(a, h) + 1)
        code = main(["verify", "--corpus", "S3", "--jobs", "1", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        monkeypatch.undo()
        assert code == 2
        jsonschema.validate(payload, json.loads((SCHEMAS / "verify.schema.json").read_text()))
        # every check of each formula fires: (claim, start of each check's detail)
        for cid, kinds in (("T2.2.5", ("engine True", "engine False")),
                           ("L2.1", ("direct search", "c | f pattern")),
                           ("T2.3", ("engine found", "f = b*c + 1 pattern"))):
            certs = payload["claims"][cid]["violations"]
            for kind in kinds:
                assert any(c["detail"].startswith(kind) for c in certs), (cid, kind)
            for cert in certs:
                g = validate_cayley_table(cert["table"], cert["labels"])
                h = {g.index_of_label(x) for x in cert["subgroup"]}
                # each formula read the mutant's t, one more than the real one
                t = least_landing(g, g.index_of_label(cert["rep"]), h)
                assert cert["least_exponent"] == t + 1
                formula, truth = replay_formula_certificate(cert)
                assert formula != truth, cert["detail"]

    def test_wrong_power_coset_profile_in_the_report_fires_t23(self, monkeypatch, capsys):
        # T2.3 reads each power coset's profile from the subgroup's report,
        # so a report whose profiles are wrong must fail it
        real = closedness.analyze_coset
        never = closedness.ClosednessProfile(start=2, period=1, closed=())
        monkeypatch.setattr(closedness, "analyze_coset",
                            lambda a, h: real(a, h)._replace(profile=never))
        code = main(["verify", "--corpus", "Z9", "--jobs", "1", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        monkeypatch.undo()
        assert code == 2
        certs = payload["claims"]["T2.3"]["violations"]
        for kind in ("engine found None", "f = b*c + 1 pattern"):
            assert any(c["detail"].startswith(kind) for c in certs), kind
        from nclosed.subsets import GSubset
        for cert in certs:
            # the formula was right and the report was not: the real engine,
            # run on the certificate's own table, agrees with the formula
            formula, truth = replay_formula_certificate(cert)
            assert formula == truth, cert["detail"]
            g = validate_cayley_table(cert["table"], cert["labels"])
            profile = closedness.closedness_profile(GSubset.from_labels(g, cert["subset"]))
            c = cert["least_exponent"] // gcd(cert["m"], cert["least_exponent"])
            assert profile.least == c + 1
            assert profile.is_closed(cert["n"]) is ((cert["n"] - 1) % c == 0)

    def test_wrong_profile_makes_coset_exit_2_with_certificates_on_stdout(
            self, monkeypatch, capsys):
        everywhere = closedness.ClosednessProfile(start=2, period=1, closed=(2,))
        monkeypatch.setattr(closedness, "closedness_profile", lambda d: everywhere)
        argv = ["coset", "Z9", "--subgroup", "3", "--rep", "1", "--power", "2"]
        code = main([*argv, "--format", "json"])
        out, err = capsys.readouterr()
        assert main([*argv, "--format", "text"]) == 2
        text = capsys.readouterr()
        monkeypatch.undo()
        assert code == 2
        assert err == text.err == ""
        payload = json.loads(out)
        assert f"VIOLATIONS: {len(payload['violations'])} " in text.out
        jsonschema.validate(payload, json.loads((SCHEMAS / "coset.schema.json").read_text()))
        certs = payload["violations"]
        assert {c["claim"] for c in certs} == {"spectrum", "power-coset"}
        # every m the step 3 excludes is a certificate of its own, and both
        # power-coset checks fire
        assert [c["n"] for c in certs if c["claim"] == "spectrum"] == \
            [m for m in range(2, 21) if (m - 1) % 3]
        for kind in ("engine found", "f = b*c + 1 pattern"):
            assert any(c["detail"].startswith(kind) for c in certs), kind
        for cert in certs:
            assert cert["least_exponent"] == 3
            # the formulas were right and the mutant engine was not
            formula, truth = replay_formula_certificate(cert)
            assert formula == truth, cert["detail"]
            if cert["claim"] == "spectrum":
                assert cert["detail"] == "engine True but step predicate False"

    def test_flipped_shift_set_closedness_fires_c21(self, monkeypatch, capsys):
        flip_semigroup_2closedness(monkeypatch)
        code = main(["verify", "--corpus", "Z2", "--jobs", "1", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        monkeypatch.undo()
        assert code == 2
        certs = payload["claims"]["C2.1"]["violations"]
        assert certs
        from nclosed.groups import validate_semigroup_table
        for cert in certs:
            s = validate_semigroup_table(cert["table"], cert["labels"])
            ids = [s.index_of_label(x) for x in cert["subset"]]
            p, n = s.index_of_label(cert["witness"]), cert["n"]
            assert products(s, ids, n) <= set(ids)
            assert p in products(s, ids, n - 2)
            # the real shift set p*D is 2-closed; the mutant said it was not
            shifted = {s.mul(p, q) for q in ids}
            assert products(s, shifted, 2) <= shifted

    def test_certificate_is_replayable(self, monkeypatch):
        everywhere = closedness.ClosednessProfile(start=2, period=1, closed=(2,))
        monkeypatch.setattr(closedness, "closedness_profile", lambda d: everywhere)
        report = run_verification(("S3",), seed=0)
        cert = next((v for t in report.claims.values() for v in t.violations
                     if v.get("subset") and v.get("n")), None)
        monkeypatch.undo()
        assert cert is not None, "no certificate names a subset and an n"
        # rebuild the group purely from the certificate and re-run the check:
        # the mutant called the subset n-closed, the real engine does not
        from nclosed.subsets import GSubset
        g = validate_cayley_table(cert["table"], cert["labels"])
        d = GSubset.from_labels(g, cert["subset"])
        assert cert["detail"].startswith("engine True")
        assert closedness.is_n_closed(d, cert["n"]) is False


class TestExtractionFiling:
    """The extraction sweep's certificates keep the name of their check:
    extraction-subgroup and extraction-prefix are filed under T2.1,
    extraction-coset under C2.01, each once."""

    def test_failed_subgroup_check_is_filed_once_under_t21(self, monkeypatch, capsys):
        payloads = []
        # at --jobs 2 the sweep runs in a forked worker, which inherits the fault
        for jobs in ("1", "2"):
            monkeypatch.setattr(closedness, "is_subgroup", lambda a: False)
            code = main(["verify", "--corpus", "Z9", "--jobs", jobs, "--format", "json"])
            payloads.append(json.loads(capsys.readouterr().out))
            monkeypatch.undo()
            assert code == 2, jobs
        payload = payloads[0]
        assert payloads[1] == payload
        t21, c201 = payload["claims"]["T2.1"], payload["claims"]["C2.01"]
        certs = t21["violations"]
        # every extraction fails its subgroup check, and only that one
        assert certs and len(certs) == t21["checked"] == c201["checked"]
        assert {c["claim"] for c in certs} == {"extraction-subgroup"}
        assert c201["violations"] == []
        assert payload["violation_count"] == len(certs)
        for cert in certs:
            # replayed by its kind: b^(n-2)*D is a subgroup after all
            g = validate_cayley_table(cert["table"], cert["labels"])
            d = {g.index_of_label(x) for x in cert["subset"]}
            b = g.index_of_label(cert["witness"])
            shift = {g.mul(power(g, b, cert["n"] - 2), x) for x in d}
            assert products(g, shift, 2) <= shift and g.identity in shift

    def test_injected_coset_certificate_is_filed_once_unchanged_under_c201(
            self, monkeypatch, capsys):
        real = closedness.extract_subgroup
        injected = []

        def extract(d, n):
            ext = real(d, n)
            cert = closedness.make_certificate(
                d.owner, "extraction-coset", subset=d.labels(), n=n,
                witness=d.labels()[0], detail="injected")
            injected.append(cert)
            return ext._replace(violations=ext.violations + (cert,))

        monkeypatch.setattr(closedness, "extract_subgroup", extract)
        code = main(["verify", "--corpus", "Z9;S3", "--jobs", "1", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        monkeypatch.undo()
        assert code == 2 and injected
        key = lambda c: json.dumps(c, sort_keys=True)
        filed = payload["claims"]["C2.01"]["violations"]
        assert sorted(map(key, filed)) == sorted(map(key, injected))
        assert len(set(map(key, injected))) == len(injected)
        for cid, tally in payload["claims"].items():
            if cid != "C2.01":
                assert tally["violations"] == [], cid
        assert payload["violation_count"] == len(injected)

    def test_sweep_extracts_only_n_closed_non_2_closed_pairs(self, monkeypatch):
        # extract_subgroup refuses any other pair, so the sweep never sees it refuse
        real, profile = closedness.extract_subgroup, closedness.closedness_profile
        calls = []

        def spy(d, n):
            calls.append((d, n))
            return real(d, n)

        monkeypatch.setattr(closedness, "extract_subgroup", spy)
        groups = [g for g in map(parse_group_spec, DEFAULT_CORPUS)
                  if g.order <= verify.EXHAUSTIVE_SUBSET_ORDER_CAP]
        assert len(groups) == 16
        for g in groups:
            calls.clear()
            checked, _ = sweep_extraction(g)
            assert len(calls) == checked, g.name
            for d, n in calls:
                p = profile(d)
                assert d.owner is g and d.mask != 0 and n >= 3
                assert p.is_closed(n) and not p.is_closed(2), (g.name, d.labels(), n)


class TestPool:
    def test_pool_is_capped_at_tasks_and_available_cpus(self, monkeypatch, serial_pool):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool)
        monkeypatch.setattr(util, "available_cpus", lambda: 4)
        specs = ("Z2", "Z3", "S3")
        capped = run_verification(specs, jobs=100_000)
        run_verification(specs + ("Z4", "Z5", "Z6"), jobs=100_000)
        # (workers, tasks) per run: the groups, 7 fixtures, 1 cross-check
        assert serial_pool.sizes == [4, 11, 4, 14]
        assert capped.to_json_dict() == run_verification(specs, jobs=1).to_json_dict()

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -3):
            with pytest.raises(ValueError):
                run_verification(("Z2",), jobs=jobs)


class TestFixtures:
    def test_multiplicative_semigroup_is_associative(self):
        # the fixtures are built without validation, so check them here
        for k in range(1, 11):
            s = multiplicative_semigroup(k)
            for a in range(k):
                for b in range(k):
                    for c in range(k):
                        assert s.mul(s.mul(a, b), c) == s.mul(a, s.mul(b, c)), k

    def test_multiplicative_semigroup_matches_validation(self):
        from nclosed.groups import validate_semigroup_table
        for k in range(1, 11):
            s = multiplicative_semigroup(k)
            table = [[i * j % k for j in range(k)] for i in range(k)]
            checked = validate_semigroup_table(table, [str(i) for i in range(k)])
            assert s.table_lists() == checked.table_lists() == table, k
            assert s.labels == checked.labels
            assert s.name == f"mulZ{k}"

    def test_default_corpus_parses_and_respects_cap(self):
        for spec in DEFAULT_CORPUS:
            g = parse_group_spec(spec)
            assert 2 <= g.order <= 24
