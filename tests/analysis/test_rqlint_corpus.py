"""Golden verdict corpus: every entry's certified merge class and rule
set must match what is recorded — the acceptance bar for 'zero false
mergeable verdicts'."""

import pytest

from repro.analysis.driver import certify_entry
from repro.sql.certify import SERIAL_ONLY
from repro.workloads.corpus import CORPUS, corpus_schema


@pytest.fixture(scope="module")
def schema():
    return corpus_schema()


def by_name(name):
    matches = [e for e in CORPUS if e.name == name]
    assert len(matches) == 1
    return matches[0]


class TestGoldenVerdicts:
    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_class_matches(self, entry, schema):
        certificate = certify_entry(entry, schema=schema)
        assert certificate.merge_class == entry.expected_class

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_rules_match(self, entry, schema):
        certificate = certify_entry(entry, schema=schema)
        fired = sorted({f.rule for f in certificate.findings})
        assert fired == sorted(entry.expected_rules)

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_findings_anchor_to_entry(self, entry, schema):
        for finding in certify_entry(entry, schema=schema).findings:
            assert finding.file == f"<corpus:{entry.name}>"
            assert finding.symbol == entry.name


class TestSeverityDiscipline:
    """serial-only must come with an error explaining the refusal;
    mergeable entries carry warnings at most (one recorded hygiene
    exception)."""

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_serial_only_iff_errors_or_hygiene(self, entry, schema):
        certificate = certify_entry(entry, schema=schema)
        errors = [f for f in certificate.findings
                  if f.severity == "error"]
        if certificate.merge_class == SERIAL_ONLY:
            assert errors, entry.name
            assert not certificate.mergeable
        elif errors:
            # RQL100 is hygiene, not a refusal: the one corpus entry
            # exercising it stays in its mechanism's class.
            assert {f.rule for f in errors} == {"RQL100"}
            assert entry.name == "loggedin-asof-qq"

    def test_corpus_covers_every_rule(self):
        covered = set()
        for entry in CORPUS:
            covered.update(entry.expected_rules)
        assert covered == {f"RQL10{i}" for i in range(7)}

    def test_corpus_covers_every_merge_class(self):
        classes = {e.expected_class for e in CORPUS}
        assert classes == {"concat", "monoid", "stored-row",
                           "interval-stitch", "serial-only"}

    def test_runnable_flags(self):
        # Only the AS OF entry is unexecutable (parse-level rejection).
        assert [e.name for e in CORPUS if not e.runnable] \
            == ["loggedin-asof-qq"]

    def test_names_are_unique(self):
        names = [e.name for e in CORPUS]
        assert len(names) == len(set(names))
