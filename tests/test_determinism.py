"""Tests of the determinism subsystem: stable helpers, lint, harness."""

from __future__ import annotations

import textwrap

import pytest

from repro.determinism import (
    canonical_kb_lines,
    canonical_kb_text,
    first_divergence,
    sorted_items,
    sorted_set,
    stable_hash,
    stable_str_key,
    stage_of_line,
)
from repro.determinism.lint import PRAGMA, lint_file
from repro.kb import Entity, Relation, Triple, TripleStore


class TestStableHash:
    def test_pinned_value(self):
        # A contract, not an implementation detail: shard assignment and
        # feature hashing depend on this exact mapping.
        assert stable_hash("alpha") == stable_hash("alpha")
        assert stable_hash("alpha") == 11099342189553124947

    def test_strings_hash_their_bytes(self):
        assert stable_hash("x") != stable_hash("'x'")

    def test_non_strings_hash_their_repr(self):
        assert stable_hash(("a", 1)) == stable_hash(repr(("a", 1)))

    def test_spread(self):
        values = {stable_hash(f"key-{i}") % 16 for i in range(200)}
        assert len(values) == 16  # every bucket reachable


class TestCanonicalIteration:
    def test_stable_str_key(self):
        assert stable_str_key("abc") == "abc"
        assert stable_str_key(Entity("world:X")) == repr(Entity("world:X"))

    def test_sorted_items_is_key_sorted(self):
        mapping = {"b": 2, "a": 1, "c": 3}
        assert sorted_items(mapping) == [("a", 1), ("b", 2), ("c", 3)]

    def test_sorted_items_with_entity_keys(self):
        a, b = Entity("world:A"), Entity("world:B")
        assert sorted_items({b: 1, a: 2}) == [(a, 2), (b, 1)]

    def test_sorted_set(self):
        assert sorted_set({"c", "a", "b"}) == ["a", "b", "c"]
        assert sorted_set(frozenset({3, 1, 2}), key=lambda x: x) == [1, 2, 3]


class TestCanonicalSerialization:
    @staticmethod
    def _store() -> TripleStore:
        store = TripleStore()
        store.add(Triple(Entity("world:B"), Relation("rel:r"), Entity("world:C"),
                         confidence=0.8, source="infobox"))
        store.add(Triple(Entity("world:A"), Relation("rel:r"), Entity("world:C")))
        return store

    def test_lines_are_sorted_and_carry_provenance(self):
        lines = canonical_kb_lines(self._store())
        assert lines == sorted(lines)
        assert any("conf=0.8" in line and "src=infobox" in line for line in lines)

    def test_insertion_order_does_not_matter(self):
        forward = self._store()
        backward = TripleStore(reversed(list(forward)))
        assert canonical_kb_text(forward) == canonical_kb_text(backward)

    def test_empty_store(self):
        assert canonical_kb_lines(TripleStore()) == []
        assert canonical_kb_text(TripleStore()) == ""


class TestLint:
    @staticmethod
    def _lint(source: str, tmp_path) -> list:
        path = tmp_path / "snippet.py"
        path.write_text(textwrap.dedent(source))
        return lint_file(str(path))

    # ----------------------------------------------------- true positives

    def test_for_loop_over_set_literal(self, tmp_path):
        findings = self._lint(
            """
            items = {"a", "b"}
            for item in items:
                print(item)
            """,
            tmp_path,
        )
        assert [f.code for f in findings] == ["DET001"]

    def test_for_loop_over_set_call(self, tmp_path):
        findings = self._lint(
            """
            def f(rows):
                seen = set(rows)
                for row in seen:
                    yield row
            """,
            tmp_path,
        )
        assert [f.code for f in findings] == ["DET001"]

    def test_comprehension_over_set_annotation(self, tmp_path):
        findings = self._lint(
            """
            def f(names: set[str]) -> list[str]:
                return [n.upper() for n in names]
            """,
            tmp_path,
        )
        assert [f.code for f in findings] == ["DET002"]

    def test_list_materializes_set(self, tmp_path):
        findings = self._lint(
            """
            def f():
                return list(frozenset(["a"]))
            """,
            tmp_path,
        )
        assert [f.code for f in findings] == ["DET003"]

    def test_set_operator_expression(self, tmp_path):
        findings = self._lint(
            """
            def f(a: set, b: set):
                for x in a & b:
                    print(x)
            """,
            tmp_path,
        )
        assert [f.code for f in findings] == ["DET001"]

    def test_self_attribute_set(self, tmp_path):
        findings = self._lint(
            """
            class C:
                def __init__(self):
                    self.members = set()

                def walk(self):
                    return [m for m in self.members]
            """,
            tmp_path,
        )
        assert [f.code for f in findings] == ["DET002"]

    def test_builtin_hash_flagged(self, tmp_path):
        findings = self._lint(
            """
            def shard(key, n):
                return hash(key) % n
            """,
            tmp_path,
        )
        assert [f.code for f in findings] == ["DET004"]

    def test_known_set_returning_method(self, tmp_path):
        findings = self._lint(
            """
            def f(store):
                for entity in store.entities():
                    print(entity)
            """,
            tmp_path,
        )
        assert [f.code for f in findings] == ["DET001"]

    def test_def_time_constructed_default_flagged(self, tmp_path):
        findings = self._lint(
            """
            def build(world, config: BuildConfig = BuildConfig()):
                return config
            """,
            tmp_path,
        )
        assert [f.code for f in findings] == ["DET005"]

    def test_def_time_default_in_kwonly_args_flagged(self, tmp_path):
        findings = self._lint(
            """
            def build(world, *, config=WikiConfig(), verbose=False):
                return config
            """,
            tmp_path,
        )
        assert [f.code for f in findings] == ["DET005"]

    # ---------------------------------------------------- false positives

    def test_sorted_set_is_clean(self, tmp_path):
        assert self._lint(
            """
            items = {"a", "b"}
            for item in sorted(items):
                print(item)
            """,
            tmp_path,
        ) == []

    def test_order_insensitive_reducers_are_clean(self, tmp_path):
        assert self._lint(
            """
            def f(values: set[int]) -> int:
                total = sum(v for v in values)
                lowest = min(v for v in values)
                return total + lowest + len(values)
            """,
            tmp_path,
        ) == []

    def test_set_comprehension_is_clean(self, tmp_path):
        assert self._lint(
            """
            def f(values: set[str]):
                return {v.lower() for v in values}
            """,
            tmp_path,
        ) == []

    def test_dict_iteration_is_clean(self, tmp_path):
        assert self._lint(
            """
            def f(mapping: dict) -> list:
                return [k for k in mapping]
            """,
            tmp_path,
        ) == []

    def test_list_iteration_is_clean(self, tmp_path):
        assert self._lint(
            """
            def f(rows):
                ordered = list(rows)
                for row in ordered:
                    print(row)
            """,
            tmp_path,
        ) == []

    def test_pragma_allowlists_a_site(self, tmp_path):
        assert self._lint(
            f"""
            counts = {{}}
            for item in {{"a", "b"}}:  # {PRAGMA} -- membership only
                counts[item] = 1
            """,
            tmp_path,
        ) == []

    def test_none_sentinel_default_is_clean(self, tmp_path):
        assert self._lint(
            """
            def build(world, config=None):
                if config is None:
                    config = BuildConfig()
                return config
            """,
            tmp_path,
        ) == []

    def test_plain_immutable_defaults_are_clean(self, tmp_path):
        assert self._lint(
            """
            def f(x=0, label="kb", flags=(), scale=1.5, mode=None):
                return x
            """,
            tmp_path,
        ) == []

    def test_lowercase_call_default_not_flagged(self, tmp_path):
        # Factory-function defaults (tuple(), frozenset()) return fresh or
        # immutable values; DET005 targets CamelCase constructor calls.
        assert self._lint(
            """
            def f(items=tuple(), names=frozenset()):
                return items, names
            """,
            tmp_path,
        ) == []

    def test_rebound_name_is_not_set_like(self, tmp_path):
        assert self._lint(
            """
            def f(rows):
                items = set(rows)
                items = sorted(items)
                for item in items:
                    print(item)
            """,
            tmp_path,
        ) == []

    def test_repo_tree_is_clean(self):
        from repro.determinism.lint import lint_paths
        import os

        package_root = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src", "repro",
        )
        assert lint_paths([package_root]) == []


class TestCrossModeReporting:
    def test_too_few_modes_rejected(self, monkeypatch):
        import io

        from repro.cli import main
        from repro.determinism import MODES, check, harness

        calls = []

        def in_process(argv, hash_seed):
            calls.append((hash_seed, list(argv)))
            assert main(argv, out=io.StringIO()) == 0

        monkeypatch.setattr(harness, "_run_repro", in_process)
        # One run covers one mode only: the matrix is refused before any
        # build starts.
        for runs in (1, 0):
            with pytest.raises(ValueError):
                check(people=20, runs=runs)
        assert calls == []
        # The smallest accepted matrix covers every mode once, each under
        # its own hash seed.
        report = check(people=20, runs=len(MODES))
        assert report.ok, report.describe()
        assert report.runs == [
            f"{mode}@{index}" for index, (mode, __) in enumerate(MODES)
        ]
        assert [seed for seed, __ in calls] == list(range(len(MODES)))
        for (__, argv), (__, workers) in zip(calls, MODES):
            if workers:
                assert argv[argv.index("--workers") + 1] == str(workers)
            else:
                assert "--workers" not in argv


class TestHarnessReporting:
    def test_first_divergence_differing_line(self):
        a = ["<world:A> <<rel:r>> <world:B> .", "x"]
        b = ["<world:A> <<rel:r>> <world:C> .", "x"]
        divergence = first_divergence(a, b, 0, 1)
        assert divergence.run_a == 0 and divergence.run_b == 1
        assert divergence.line_a == a[0]
        assert divergence.line_b == b[0]

    def test_first_divergence_prefix(self):
        a = ["line-1"]
        b = ["line-1", "line-2"]
        divergence = first_divergence(a, b, 0, 3)
        assert divergence.line_a is None
        assert divergence.line_b == "line-2"

    def test_stage_attribution(self):
        assert stage_of_line(
            "<world:A> <<rel:bornIn>> <world:B> . # conf=0.95 src=infobox"
        ) == "pipeline.extract.infobox"
        assert stage_of_line(
            "<world:A> <<rel:bornIn>> <world:B> . # src=surface-patterns"
        ) == "pipeline.extract.sentences"
        assert stage_of_line(
            "<world:A> <<rdf:type>> <cls:person> ."
        ) == "pipeline.taxonomy"
        assert stage_of_line(
            '<world:A> <<rdfs:label>> "Ada"@de . # conf=0.95 src=Ada'
        ) == "pipeline.multilingual"
        assert stage_of_line(
            '<world:A> <<rdfs:prefLabel>> "Ada" .'
        ) == "pipeline.labels"
        assert stage_of_line(
            "<<rel:bornIn>> <<rdfs:domain>> <cls:person> ."
        ) == "pipeline.schema"
        assert stage_of_line(
            "<cls:city> <<rdfs:subClassOf>> <cls:location> ."
        ) == "pipeline.schema"
        assert stage_of_line(
            "<wcat:Belcaran_writers> <<rdfs:subClassOf>> <wn:writer.n.01> ."
        ) == "pipeline.taxonomy"
        assert stage_of_line(None) == "unknown"

    def test_every_line_of_a_build_maps_to_a_traced_span(self, tmp_path):
        import io

        from repro import obs
        from repro.cli import main
        from repro.kb.rdfio import load

        kb_path = str(tmp_path / "kb.nt")
        buffer = io.StringIO()
        try:
            assert main(
                ["build", "--seed", "7", "--people", "40", "--out", kb_path,
                 "--trace"],
                out=buffer,
            ) == 0
        finally:
            obs.reset()
        trace = buffer.getvalue().split("--- trace ---")[1]
        trace = trace.split("--- metrics ---")[0]
        spans = {
            line.lstrip("├└│─ ").split()[0]
            for line in trace.splitlines() if line.strip()
        }
        lines = canonical_kb_lines(load(kb_path))
        stages = {stage_of_line(line) for line in lines}
        assert stages <= spans, stages - spans
        assert {"pipeline.schema", "pipeline.labels"} <= stages

    def test_check_determinism_validates_arguments(self):
        from repro.determinism import check

        with pytest.raises(ValueError):
            check(runs=1)


class TestReport:
    def test_modes_cover_every_strategy(self):
        from repro.determinism import MODES

        assert MODES == (("serial", 0), ("process2", 2))

    def test_describe_ok_and_failing(self):
        from repro.determinism import DeterminismReport

        ok = DeterminismReport(
            runs=["serial@0", "process2@1"], triples=10, files=5,
        )
        assert ok.ok
        assert "deterministic: 2 runs (serial@0, process2@1)" in ok.describe()
        assert "tombstone" not in ok.describe()
        ok.incremental, ok.tombstones = True, 1
        assert "1 tombstone(s) exercised" in ok.describe()
        bad = DeterminismReport(
            runs=["serial@0", "process2@1"],
            failures=["run 1 (process2, PYTHONHASHSEED=1): first\nsecond"],
        )
        assert not bad.ok
        text = bad.describe()
        assert text.startswith("NOT deterministic:")
        assert "  run 1 (process2, PYTHONHASHSEED=1): first\n  second" in text


class TestRunnerFaultInjection:
    """Corrupt one run's artifact; the runner must fail and name that run.

    ``_run_repro`` is replaced by an in-process ``repro.cli.main`` call;
    for run 1 (``PYTHONHASHSEED=1``) the test may rewrite the command line
    first and damage what the build wrote afterwards.
    """

    RUN_1 = "run 1 (process2, PYTHONHASHSEED=1)"

    @staticmethod
    def _check(monkeypatch, damage_build=None, rewrite=None,
               incremental=False):
        import io

        from repro.cli import main
        from repro.determinism import check, harness

        def fake(argv, hash_seed):
            if hash_seed == 1 and rewrite is not None:
                argv = rewrite(list(argv))
            assert main(argv, out=io.StringIO()) == 0
            if hash_seed == 1 and argv[0] == "build" and damage_build:
                damage_build(
                    argv[argv.index("--out") + 1],
                    argv[argv.index("--segments") + 1],
                )

        monkeypatch.setattr(harness, "_run_repro", fake)
        return check(seed=7, people=20, runs=2, incremental=incremental)

    @staticmethod
    def _rewrite(path, edit):
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines(keepends=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(edit(lines))

    def test_changed_triple_reports_its_stage(self, monkeypatch):
        def change_infobox_triple(lines):
            index = next(
                i for i, line in enumerate(lines) if "src=infobox" in line
            )
            lines[index] = lines[index].replace("> . #", "_x> . #", 1)
            return lines

        report = self._check(
            monkeypatch,
            lambda kb, __: self._rewrite(kb, change_infobox_triple),
        )
        assert not report.ok
        text = report.describe()
        assert self.RUN_1 + ": .nt differs from run 0" in text
        assert "stage: pipeline.extract.infobox" in text

    def test_reordered_triples_reported_as_order(self, monkeypatch):
        report = self._check(
            monkeypatch,
            lambda kb, __: self._rewrite(
                kb, lambda lines: lines[1::-1] + lines[2:]
            ),
        )
        assert report.failures == [
            self.RUN_1 + ": same triples as run 0, different order"
        ]

    def test_flipped_segment_byte_names_the_file(self, monkeypatch):
        import os

        flipped = []

        def flip_a_byte(kb, segments):
            name = sorted(
                n for n in os.listdir(segments) if n.startswith("seg-")
            )[0]
            with open(os.path.join(segments, name), "r+b") as handle:
                data = bytearray(handle.read())
                data[len(data) // 2] ^= 0xFF
                handle.seek(0)
                handle.write(data)
            flipped.append(name)

        report = self._check(monkeypatch, flip_a_byte)
        assert len(report.failures) == 1
        assert report.failures[0].startswith(
            f"{self.RUN_1}: segment file {flipped[0]}: sha256"
        )

    def test_retraction_without_tombstone_fails(self, monkeypatch):
        def drop_delta_retraction(argv):
            if "--retract" in argv and "--start" in argv:
                at = argv.index("--retract")
                return argv[:at] + argv[at + 4:]
            return argv

        report = self._check(
            monkeypatch, rewrite=drop_delta_retraction, incremental=True
        )
        assert (
            self.RUN_1 + ": the retraction delta produced no tombstone record"
        ) in report.failures


class TestCheckDeterminismCommand:
    def test_default_matrix_passes_with_one_summary_line(self):
        import io

        from repro.cli import main

        buffer = io.StringIO()
        status = main(
            ["check-determinism", "--runs", "2", "--people", "20",
             "--skip-lint"],
            out=buffer,
        )
        assert status == 0, buffer.getvalue()
        summaries = [
            line for line in buffer.getvalue().splitlines()
            if line.startswith("deterministic:")
        ]
        assert len(summaries) == 1
        assert "serial@0" in summaries[0] and "process2@1" in summaries[0]

    @pytest.mark.parametrize("flag", ["--cross-mode", "--segments", "--fast"])
    def test_removed_flags_are_rejected(self, flag):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["check-determinism", flag])
        assert exit_info.value.code == 2
