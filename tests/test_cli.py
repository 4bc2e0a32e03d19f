"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def built_kb(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "kb.nt"
    out = io.StringIO()
    code = main(
        ["build", "--seed", "7", "--people", "60", "--out", str(path)], out=out
    )
    assert code == 0
    return path, out.getvalue()


class TestBuild:
    def test_reports_counts(self, built_kb):
        path, output = built_kb
        assert "Accepted" in output
        assert path.exists()

    def test_output_is_loadable(self, built_kb):
        from repro.kb import load

        path, __ = built_kb
        kb = load(str(path))
        assert len(kb) > 500

    def test_trace_covers_segment_emission(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["build", "--seed", "7", "--people", "20",
             "--out", str(tmp_path / "kb.nt"),
             "--segments", str(tmp_path / "seg"), "--trace"],
            out=out,
        )
        assert code == 0
        trace = out.getvalue().split("\n--- trace ---\n")[1]
        spans, metrics = trace.split("\n--- metrics ---\n")
        assert "pipeline.segments" in spans
        assert any(
            line.startswith("kb.segments.write ") for line in metrics.splitlines()
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--out", "kb.nt", "--workers", "2"],
        ["build", "--out", "kb.nt", "--corpus-file", "corpus.bin"],
        ["ingest", "--segments", "seg", "--workers", "2"],
        ["scenario", "build", "--name", "baseline", "--workers", "2"],
        ["scenario", "evaluate", "--all", "--workers", "2"],
        ["scenario", "evaluate", "--all", "--no-burst-leg"],
    ],
)
def test_removed_execution_flags_are_rejected(argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv, out=io.StringIO())
    assert exit_info.value.code == 2


class TestStats:
    def test_summary(self, built_kb):
        path, __ = built_kb
        out = io.StringIO()
        assert main(["stats", "--kb", str(path)], out=out) == 0
        text = out.getvalue()
        assert "triples" in text
        assert "rdf:type" in text


class TestQuery:
    def test_by_predicate(self, built_kb):
        path, __ = built_kb
        out = io.StringIO()
        assert main(
            ["query", "--kb", str(path), "--predicate", "rel:bornIn"], out=out
        ) == 0
        assert "rel:bornIn" in out.getvalue()

    def test_no_matches(self, built_kb):
        path, __ = built_kb
        out = io.StringIO()
        main(["query", "--kb", str(path), "--subject", "world:Nobody"], out=out)
        assert "no matching triples" in out.getvalue()

    def test_limit(self, built_kb):
        path, __ = built_kb
        out = io.StringIO()
        main(
            ["query", "--kb", str(path), "--predicate", "rdf:type", "--limit", "3"],
            out=out,
        )
        assert "limited to 3" in out.getvalue()


class TestAsk:
    def test_answerable_question(self, built_kb):
        from repro.kb import load, ns, Literal
        from repro.world import WorldConfig, generate_world
        from repro.world import schema as ws

        path, __ = built_kb
        kb = load(str(path))
        # Find a person with a harvested birth city and ask about them.
        world = generate_world(WorldConfig(seed=7, n_people=60))
        for person in world.people:
            city = None
            for t in kb.match(subject=person, predicate=ws.BORN_IN):
                city = t.object
            if city is None:
                continue
            out = io.StringIO()
            code = main(
                ["ask", "--kb", str(path),
                 f"Where was {world.name[person]} born?"],
                out=out,
            )
            assert code == 0
            assert world.name[city] in out.getvalue()
            return
        pytest.fail("no harvested birth facts to ask about")

    def test_unanswerable_question(self, built_kb):
        path, __ = built_kb
        out = io.StringIO()
        code = main(["ask", "--kb", str(path), "Why is the sky blue?"], out=out)
        assert code == 1
        assert "no answer" in out.getvalue()


class TestScenario:
    def test_list_names_every_profile(self):
        from repro.world.scenarios import SCENARIOS

        out = io.StringIO()
        assert main(["scenario", "list"], out=out) == 0
        output = out.getvalue()
        for name in SCENARIOS:
            assert name in output
        assert "seeds:" in output

    def test_build_writes_kb_and_telemetry(self, tmp_path):
        path = tmp_path / "kb-baseline.nt"
        out = io.StringIO()
        code = main(
            ["scenario", "build", "--name", "baseline", "--out", str(path)],
            out=out,
        )
        assert code == 0
        assert path.exists()
        output = out.getvalue()
        assert "scenario: name=baseline pages=" in output
        assert "fingerprint=" in output

    def test_build_unknown_profile_rejected(self):
        out = io.StringIO()
        code = main(["scenario", "build", "--name", "nope"], out=out)
        assert code == 2
        assert "unknown scenario" in out.getvalue()
        assert "baseline" in out.getvalue()

    def test_evaluate_prints_greppable_telemetry(self, tmp_path):
        import json

        report = tmp_path / "scores.json"
        out = io.StringIO()
        code = main(
            [
                "scenario", "evaluate", "--name", "baseline",
                "--enforce-floors", "--json", str(report),
            ],
            out=out,
        )
        assert code == 0
        lines = out.getvalue().splitlines()
        telemetry = [l for l in lines if l.startswith("scenario: name=")]
        assert len(telemetry) == 1
        assert "kb_f1=" in telemetry[0]
        data = json.loads(report.read_text())
        assert data["violations"] == []
        assert data["scores"][0]["name"] == "baseline"
        assert data["scores"][0]["kb"]["f1"] > 0.8

    def test_evaluate_unknown_profile_rejected(self):
        out = io.StringIO()
        code = main(["scenario", "evaluate", "--name", "nope"], out=out)
        assert code == 2
        assert "unknown scenario" in out.getvalue()
