import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

RESULT = {"correct": True, "attempted": 5, "failed": 0,
          "metrics": {"wall_s": {"value": 1.0, "unit": "s"},
                      "symbols.eval.calls": {"value": 7, "unit": "count"}}}
SPECS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24}]


def fake_tree(tmp_path, body):
    """A tree whose psidobench/run.py runs ``body`` with ``trace`` set."""
    run = tmp_path / "psidobench" / "run.py"
    run.parent.mkdir(parents=True)
    run.write_text("import json, sys\n"
                   "trace = int(sys.argv[sys.argv.index('--trace') + 1])\n"
                   f"RESULT = {RESULT!r}\n" + body)
    return tmp_path


def bench(tree, trace):
    return bench_pairs._bench(tree, "symbol-eval", 1, 1, trace)


class TestRuns:
    def test_success(self, tmp_path):
        tree = fake_tree(tmp_path, "print('env line')\n"
                         "if trace: print('self-check: 4 power-iteration spans "
                         "against 4k-1 / 4k+1 transforms, 0 problems')\n"
                         "print(json.dumps(RESULT))\n")
        assert bench(tree, 0)["environment"] == "env line"
        assert bench(tree, 1)["selfcheck"] == (4, 0)

    def test_nonzero_exit_is_recorded(self, tmp_path):
        tree = fake_tree(tmp_path, "print('partial')\n"
                         "sys.stderr.write('boom\\n')\nsys.exit(3)\n")
        result = bench(tree, 0)
        assert result["error"] == "exited 3"
        assert result["exit_code"] == 3
        assert result["output_tail"] == ["partial", "boom"]

    def test_traced_run_without_self_check_fails(self, tmp_path):
        tree = fake_tree(tmp_path, "print('env line')\nprint(json.dumps(RESULT))\n")
        assert "error" not in bench(tree, 0)
        assert bench(tree, 1)["error"] == "no self-check line in --trace 1 output"

    def test_output_without_result_fails(self, tmp_path):
        tree = fake_tree(tmp_path, "print('env line')\n")
        assert bench(tree, 0)["error"] == "last output line is not a JSON result"


class TestSummary:
    def pair(self, parent, change):
        return {"workload": "symbol-eval",
                "runs": {"parent": parent, "change": change}}

    def run(self, wall_s, failed=0, problems=0):
        result = json.loads(json.dumps(RESULT))
        result["metrics"]["wall_s"]["value"] = wall_s
        result["failed"] = failed
        result["correct"] = problems == 0
        result["selfcheck"] = (4, problems)
        record = bench_pairs._record(result, 0)
        record["traced"] = bench_pairs._traced(result, 0)
        return record

    def failed(self):
        record = bench_pairs._record({"error": "exited 1", "exit_code": 1,
                                      "output_tail": []}, 0)
        record["traced"] = bench_pairs._traced({"error": "exited 1", "exit_code": 1,
                                                "output_tail": []}, 0)
        return record

    def test_failed_run_is_counted_not_timed(self):
        pairs = [self.pair(self.run(2.0), self.run(1.0)),
                 self.pair(self.run(2.0), self.failed())]
        summary = bench_pairs._summary(pairs, SPECS)
        assert summary["pairs"] == 2
        assert summary["complete_pairs"] == 1
        assert summary["runs_attempted"] == {"parent": 4, "change": 4}
        assert summary["runs_failed"] == {"parent": 0, "change": 2}
        assert summary["wall_s"]["change_wins"] == 1
        assert summary["wall_s"]["change"]["n"] == 1
        assert summary["traced_counts_parent_change"] == {"symbols.eval.calls": [[7, 7]]}

    def test_every_pair_failed(self):
        summary = bench_pairs._summary([self.pair(self.failed(), self.failed())], SPECS)
        assert summary["complete_pairs"] == 0
        assert "wall_s" not in summary
        assert summary["runs_failed"] == {"parent": 2, "change": 2}

    @pytest.mark.parametrize("failures, met", [(0, True), (1, True), (2, False)])
    def test_failed_pair_counts_against_claim(self, failures, met):
        pairs = [self.pair(self.run(2.0), self.run(1.0)) for _ in range(10 - failures)]
        pairs += [self.pair(self.run(2.0), self.failed()) for _ in range(failures)]
        args = type("Args", (), {"title": "t", "claim": "symbol-eval:wall_s"})
        bench = {"run_seconds": 30, "end_to_end": SPECS}
        report = bench_pairs._report(args, [], bench, "abc", "env", pairs)
        assert report["claim"]["pairs"] == 10
        assert report["claim"]["change_wins"] == 10 - failures
        assert report["claim"]["met"] is met
        assert "--seconds 30 " in report["commands"]["end_to_end"]

    def test_shares_and_time_ratios_kept_apart_from_counts(self):
        def traced(coverage, floor_ratio):
            result = json.loads(json.dumps(RESULT))
            result["metrics"].update({
                "trace.coverage": {"value": coverage, "unit": "fraction"},
                "grid.fourier_transform.floor_ratio": {"value": floor_ratio,
                                                       "unit": "ratio"},
                "estimates.norm.applies_per_iteration": {"value": 2.0, "unit": "ratio"}})
            result["selfcheck"] = (0, 0)
            record = bench_pairs._record(result, 0)
            record["traced"] = bench_pairs._traced(result, 0)
            return record

        pairs = [self.pair(traced(0.9, 3.0), traced(0.8, 2.0)),
                 self.pair(traced(0.7, 2.0), traced(0.6, 1.0)),
                 self.pair(traced(0.8, 4.0), traced(0.7, 1.5))]
        summary = bench_pairs._summary(pairs, SPECS)
        assert summary["traced_shares_median"] == {
            "trace.coverage": {"parent": 0.8, "change": 0.7},
            "grid.fourier_transform.floor_ratio": {"parent": 3.0, "change": 1.5}}
        assert summary["traced_counts_parent_change"] == {
            "symbols.eval.calls": [[7, 7]] * 3,
            "estimates.norm.applies_per_iteration": [[2.0, 2.0]] * 3}

    def regressions(self, pairs):
        args = type("Args", (), {"title": "t", "claim": None})
        bench = {"run_seconds": 30, "end_to_end": SPECS}
        return bench_pairs._report(args, [], bench, "abc", "env", pairs)["regressions"]

    def test_failed_share_over_untraced_runs(self):
        pairs = [self.pair(self.run(1.0), self.run(1.0, failed=1)),
                 self.pair(self.run(1.0), self.run(1.0, failed=2)),
                 self.pair(self.failed(), self.failed())]
        # the traced runs' failures are not counted
        pairs[0]["runs"]["parent"]["traced"]["failed"] = 3
        summary = bench_pairs._summary(pairs, SPECS)
        assert summary["failed_share"] == {"parent": 0.0, "change": 0.3}
        every_run_failed = bench_pairs._summary([pairs[2]], SPECS)
        assert every_run_failed["failed_share"] == {"parent": None, "change": None}

    def test_clean_session_has_no_regressions(self):
        pairs = [self.pair(self.run(1.0), self.run(1.1)) for _ in range(3)]
        assert self.regressions(pairs) == []

    def test_metric_out_of_bound_is_a_regression(self):
        pairs = [self.pair(self.run(1.0), self.run(1.3)) for _ in range(3)]
        (found,) = self.regressions(pairs)
        assert (found["workload"], found["metric"], found["bound"]) == (
            "symbol-eval", "wall_s", 0.24)
        assert found["median_change"] == pytest.approx(0.3)

    def test_higher_failed_share_is_a_regression(self):
        pairs = [self.pair(self.run(1.0), self.run(1.0, failed=1)),
                 self.pair(self.run(1.0), self.run(1.0))]
        assert self.regressions(pairs) == [
            {"workload": "symbol-eval", "metric": "failed_share",
             "parent": 0.0, "change": 0.1}]
        # the same share on both sides is no regression
        pairs = [self.pair(self.run(1.0, failed=1), self.run(1.0, failed=1))]
        assert self.regressions(pairs) == []

    def test_self_check_problems_are_a_regression(self):
        # a broken transform self-check fails the traced run's check only
        pairs = [self.pair(self.run(1.0), self.run(1.0, problems=2)),
                 self.pair(self.run(1.0), self.run(1.0))]
        summary = bench_pairs._summary(pairs, SPECS)
        assert summary["selfcheck_failed"] == {"parent": 0, "change": 1}
        assert self.regressions(pairs) == [
            {"workload": "symbol-eval", "metric": "selfcheck_failed",
             "parent": 0, "change": 1}]
        # an incorrect traced result counts too; the same count on both sides does not
        pairs[1]["runs"]["change"]["traced"]["correct"] = False
        assert self.regressions(pairs)[0]["change"] == 2
        pairs[0]["runs"]["parent"]["traced"]["selfcheck_problems"] = 1
        pairs[1]["runs"]["parent"]["traced"]["correct"] = False
        assert self.regressions(pairs) == []

    def test_more_failed_runs_is_a_regression(self):
        pairs = [self.pair(self.run(1.0), self.run(1.0)),
                 self.pair(self.run(1.0), self.failed())]
        assert self.regressions(pairs) == [
            {"workload": "symbol-eval", "metric": "runs_failed",
             "parent": 0, "change": 2}]


class TestClaimValidation:
    @pytest.mark.parametrize("claim, message", [
        ("symbol-eval:wal_s", "'wal_s' is not an end-to-end metric"),
        ("grid-large:wall_s", "workload 'grid-large' is not run"),
        ("symbol-eval", "'' is not an end-to-end metric"),
    ])
    def test_bad_claim_exits_two_before_any_tree(self, monkeypatch, capsys,
                                                 claim, message):
        def no_tree(*args):
            raise AssertionError("a tree was extracted")

        monkeypatch.setattr(bench_pairs, "_extract_parent", no_tree)
        with pytest.raises(SystemExit) as exit_:
            bench_pairs.main(["--parent", "HEAD", "--run", "symbol-eval", "1",
                              "--out", "unused.json", "--claim", claim])
        assert exit_.value.code == 2
        assert message in capsys.readouterr().err
