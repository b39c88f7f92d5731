import concurrent.futures
import itertools
import json
from pathlib import Path

import jsonschema
import pytest

from nclosed.cli import main
from nclosed.closedness import ClosednessProfile, least_exponent
from nclosed.errors import GroupTooLargeForScan
from nclosed.groups import Element, validate_cayley_table
from nclosed.parsing import parse_group_spec
from nclosed import closedness, util
from nclosed.scan import run_scan
from nclosed.subsets import GSubset, Subgroup, coset_commutes, translate_mask_left

SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas"


def load_schema(name):
    return json.loads((SCHEMAS / name).read_text())


class TestScanClassification:
    def test_totals_cover_every_nonempty_subset(self, z4, s3):
        for g in (z4, s3):
            report = run_scan(g)
            assert len(report.entries) == (1 << g.order) - 1
            totals = report.totals
            assert sum((totals["two_closed"],
                        totals["n_closed_not_two_closed"],
                        totals["never_up_to_bound"])) == totals["subsets"]

    def test_s3_higher_closed_sets_are_commuting_cosets(self, s3):
        # every n-closed non-2-closed subset must decompose as b*H with
        # bH = Hb and least closedness equal to the least exponent + 1
        report = run_scan(s3)
        higher = [e for e in report.entries
                  if e.least_closedness and e.least_closedness > 2]
        assert higher, "S3 must have nontrivially closed subsets"
        for e in higher:
            h = Subgroup(GSubset(s3, e.subgroup_mask))
            b = Element(s3, e.rep)
            assert coset_commutes(b, h)
            assert translate_mask_left(s3, e.rep, h.mask) == e.mask
            assert e.least_closedness == least_exponent(b, h) + 1
        assert not report.violations

    def test_order_cap(self):
        with pytest.raises(GroupTooLargeForScan):
            run_scan(parse_group_spec("Z15"))

    def test_order_14_is_supported(self):
        report = run_scan(parse_group_spec("D7"))
        assert len(report.entries) == (1 << 14) - 1
        assert not report.violations

    def test_jobs_do_not_change_the_report(self):
        g = parse_group_spec("Z12")
        solo = run_scan(g, seed=1, jobs=1)
        pooled = run_scan(g, seed=1, jobs=3)
        assert json.dumps(solo.to_json_dict(), sort_keys=True) == \
            json.dumps(pooled.to_json_dict(), sort_keys=True)

    def test_pool_is_capped_at_available_cpus(self, monkeypatch, serial_pool):
        monkeypatch.setattr(util, "available_cpus", lambda: 3)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool)
        g = parse_group_spec("Z12")
        pooled = run_scan(g, seed=1, jobs=100_000)
        assert serial_pool.sizes == [3, 12]  # three workers, four chunks each
        assert pooled.entries == run_scan(g, seed=1, jobs=1).entries

    def test_jobs_below_one_rejected(self, z4):
        for jobs in (0, -3):
            with pytest.raises(ValueError):
                run_scan(z4, jobs=jobs)


def least_closed_by_set_powers(g, ids):
    """Least n >= 2 with D^n inside D, powers built as Python sets, or None
    once a power repeats: D^(n+1) = D^n * D, so the powers then cycle."""
    d = frozenset(ids)
    p, seen = d, set()
    for n in itertools.count(2):
        p = frozenset(g.mul(x, y) for x in p for y in d)
        if p <= d:
            return n
        if p in seen:
            return None
        seen.add(p)


class TestScanExactness:
    def test_least_closedness_matches_set_powers(self, small_corpus):
        for g in small_corpus:
            for e in run_scan(g).entries:
                ids = GSubset(g, e.mask).indices()
                assert e.least_closedness == least_closed_by_set_powers(g, ids)


def _shifted_up_by_one(real):
    def profile(d):
        p = real(d)
        return ClosednessProfile(p.start + 1, p.period, tuple(n + 1 for n in p.closed))
    return profile


def _coset_least_dropped(real):
    """A commuting coset loses its least closed n, t + 1, and reads 2t + 1;
    every subset stays in its class, so only the value is wrong."""
    def profile(d):
        p = real(d)
        if p.least is None or p.least == 2:
            return p
        start = p.start + p.period
        return ClosednessProfile(start, p.period, tuple(
            n for n in range(2, start + p.period) if n != p.least and p.is_closed(n)))
    return profile


# wrong engines, each built from the real closedness_profile
PROFILE_FAULTS = {
    "closed-for-every-n": lambda real: lambda d: ClosednessProfile(2, 1, (2,)),
    "shifted-up-by-one": _shifted_up_by_one,
    "coset-least-dropped": _coset_least_dropped,
    "never-closed": lambda real: lambda d: ClosednessProfile(2, 1, ()),
}


def products(struct, ids, k):
    """Every product of k factors from ids, with plain Python sets."""
    out = set(ids)
    for _ in range(k - 1):
        out = {struct.mul(p, q) for p in out for q in ids}
    return out


class TestScanFaults:
    @pytest.mark.parametrize("fault", sorted(PROFILE_FAULTS))
    def test_wrong_profile_exits_2_with_replayable_certificates(
            self, fault, monkeypatch, capsys):
        real = closedness.closedness_profile
        monkeypatch.setattr(closedness, "closedness_profile", PROFILE_FAULTS[fault](real))
        code = main(["scan", "S3", "--format", "json", "--jobs", "1"])
        payload = json.loads(capsys.readouterr().out)
        monkeypatch.undo()
        assert code == 2
        jsonschema.validate(payload, load_schema("scan.schema.json"))
        certs = payload["violations"]
        assert certs and payload["violation_count"] == len(certs)
        assert any(cert["claim"] == "scan-lattice" for cert in certs)
        for cert in certs:
            g = validate_cayley_table(cert["table"], cert["labels"])
            d = GSubset.from_labels(g, cert["subset"])
            # each certificate claims least closedness n; the real engine disagrees
            assert real(d).least != cert["n"]

    def test_non_coset_called_3_closed_fires_the_extraction_prefix_check(
            self, monkeypatch, capsys):
        fake = GSubset.from_labels(parse_group_spec("Z6"), ["1", "2"]).mask
        real = closedness.closedness_profile
        monkeypatch.setattr(closedness, "closedness_profile", lambda d: (
            ClosednessProfile(3, 1, (3,)) if d.mask == fake else real(d)))
        code = main(["scan", "Z6", "--format", "json", "--jobs", "1"])
        payload = json.loads(capsys.readouterr().out)
        monkeypatch.undo()
        assert code == 2
        certs = [c for c in payload["violations"] if c["claim"] == "extraction-prefix"]
        assert certs
        for cert in certs:
            g = validate_cayley_table(cert["table"], cert["labels"])
            ids = GSubset.from_labels(g, cert["subset"]).indices()
            p, n = g.index_of_label(cert["witness"]), cert["n"]
            # p is a product of n - 2 factors from D whose shift set differs
            # from d^(n-2)*D for the least d in D, so D is not n-closed
            [d_power] = products(g, ids[:1], n - 2)
            assert p in products(g, ids, n - 2)
            assert {g.mul(p, q) for q in ids} != {g.mul(d_power, q) for q in ids}
            assert not products(g, ids, n) <= set(ids)


class TestReportSchemas:
    def test_scan_schema(self, z9):
        payload = run_scan(z9).to_json_dict()
        jsonschema.validate(payload, load_schema("scan.schema.json"))

    def test_scan_json_is_one_compact_line(self, capsys):
        assert main(["scan", "Z6", "--format", "json", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1
        assert ": " not in out and ", " not in out
        payload = json.loads(out)
        assert payload["schema"] == "nclosed.scan/2"
        jsonschema.validate(payload, load_schema("scan.schema.json"))

    def test_check_schema(self, capsys):
        main(["check", "S3", "--subset", "(1 3),(1 2 3)", "--n", "3",
              "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, load_schema("check.schema.json"))

    def test_coset_schema_commuting_and_not(self, capsys):
        schema = load_schema("coset.schema.json")
        main(["coset", "Z9", "--subgroup", "3", "--rep", "1",
              "--power", "2", "--format", "json"])
        jsonschema.validate(json.loads(capsys.readouterr().out), schema)
        main(["coset", "S3", "--subgroup", "(1 2)", "--rep", "(1 3)",
              "--format", "json"])
        jsonschema.validate(json.loads(capsys.readouterr().out), schema)

    def test_group_schema_named_and_table(self, capsys, tmp_path):
        from nclosed.groups import dump_cayley_table
        schema = load_schema("group.schema.json")
        path = tmp_path / "s4.json"
        dump_cayley_table(parse_group_spec("S4"), path)
        for spec in ("S4", f"table:{path}"):
            main(["group", spec, "--format", "json"])
            jsonschema.validate(json.loads(capsys.readouterr().out), schema)

    def test_subgroups_schema(self, capsys):
        main(["subgroups", "S4", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, load_schema("subgroups.schema.json"))
        assert payload["count"] == 30
