"""Tests for the command-line interface."""

import re
import shlex
from pathlib import Path

import pytest

import repro.cli
from repro import InvariantViolation, NetworkSanitizer, SimSanitizer
from repro.cli import ARCHITECTURES, build_parser, main

ROOT = Path(__file__).resolve().parents[1]


def _documented_commands():
    """Every ``python -m repro[.cli] ...`` line in README.md, docs/*.md
    and the CLI module docstring, with continuation lines joined and
    trailing comments / closing inline-code backticks cut; lines with
    ``<...>`` or ``$VAR`` placeholders are skipped."""
    sources = [(p.relative_to(ROOT).as_posix(), p.read_text())
               for p in [ROOT / "README.md", *sorted(ROOT.glob("docs/*.md"))]]
    sources.append(("repro/cli.py", repro.cli.__doc__))
    for name, text in sources:
        lines = text.splitlines()
        for lineno, line in enumerate(lines, 1):
            match = re.search(r"python -m repro(?:\.cli)?\s+(.*)", line)
            if not match:
                continue
            command, follow = match.group(1), lineno
            while command.endswith("\\"):
                command = command[:-1] + " " + lines[follow].strip()
                follow += 1
            command = command.split("`")[0].split("#")[0]
            if "<" not in command and "$" not in command:
                yield f"{name}:{lineno}", command


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.arch == "hierarchical"
        assert args.radix == 32
        assert args.jobs == 1

    def test_all_architectures_registered(self):
        assert set(ARCHITECTURES) == {
            "baseline", "distributed", "buffered", "shared-buffer",
            "hierarchical", "voq",
        }

    def test_unknown_arch_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--arch", "crossbar9000"])

    def test_documented_commands_parse(self):
        """Regression: README.md and the CLI docstring showed
        ``saturate --pattern bursty``, which argparse refuses."""
        commands = list(_documented_commands())
        assert len(commands) > 30
        refused = []
        for where, command in commands:
            try:
                build_parser().parse_args(shlex.split(command))
            except SystemExit:
                refused.append(f"{where}: {command}")
        assert refused == []


class TestCommands:
    def test_radix_command(self, capsys):
        rc = main([
            "radix", "--bandwidth", "0.4e12", "--delay", "25e-9",
            "--nodes", "1024", "--packet", "128",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "k* = 40" in out

    def test_area_command(self, capsys):
        rc = main(["area", "--radix", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hierarchical" in out
        assert "buffered" in out

    def test_sweep_command_small(self, capsys):
        rc = main([
            "sweep", "--arch", "buffered", "--radix", "8",
            "--subswitch", "4", "--loads", "0.3",
            "--warmup", "100", "--measure", "200", "--drain", "2000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "buffered" in out
        assert "0.3" in out

    def test_sweep_jobs_matches_serial(self, capsys):
        """--jobs N fans points over processes; output stays identical."""
        argv = [
            "sweep", "--arch", "buffered", "--radix", "8",
            "--subswitch", "4", "--loads", "0.2,0.4",
            "--warmup", "100", "--measure", "200", "--drain", "2000",
        ]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_rejects_non_positive_jobs(self, capsys, jobs):
        """Regression: ``--jobs`` was clamped to 1, so ``--jobs 0``
        silently ran serial and printed a table."""
        assert main([
            "sweep", "--radix", "8", "--loads", "0.2", "--jobs", jobs,
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro sweep: processes must be >= 1, got {jobs}\n"
        )

    def test_sweep_with_plot(self, capsys):
        rc = main([
            "sweep", "--arch", "baseline", "--radix", "8",
            "--subswitch", "4", "--loads", "0.2,0.4", "--plot",
            "--warmup", "100", "--measure", "200", "--drain", "2000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "offered load" in out

    def test_saturate_single_arch(self, capsys):
        rc = main([
            "saturate", "--arch", "voq", "--radix", "8",
            "--subswitch", "4", "--warmup", "200", "--measure", "300",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "voq" in out

    def test_network_command(self, capsys):
        rc = main([
            "network", "--load", "0.2", "--high-radix", "8",
            "--high-levels", "2", "--low-radix", "4", "--low-levels", "3",
            "--warmup", "200", "--measure", "300", "--drain", "2000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "high-radix" in out and "low-radix" in out

    def test_worst_case_pattern(self, capsys):
        rc = main([
            "sweep", "--arch", "hierarchical", "--radix", "8",
            "--subswitch", "4", "--pattern", "worst-case",
            "--loads", "0.3", "--warmup", "100", "--measure", "200",
            "--drain", "2000",
        ])
        assert rc == 0

    def test_run_rejects_negative_checkpoint_interval(self, capsys, tmp_path):
        """Regression: a negative interval made every ``stop_at``
        already past, so the loop rewrote the cycle-0 checkpoint
        forever."""
        path = tmp_path / "run.ckpt"
        rc = main([
            "run", "--arch", "buffered", "--radix", "8", "--subswitch", "4",
            "--checkpoint-every", "-5", "--checkpoint", str(path),
        ])
        assert rc == 2
        assert "--checkpoint-every" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("argv, told", [
        ("workload --radix 4 --corrupt-rate 2", "corrupt_rate"),
        ("faults --radix 8 --rates 0.01 --credit-loss 3", "credit_loss_rate"),
        ("sweep --radix 8 --loads 1.5", "load must be in [0, 1]"),
        ("sweep --radix 8 --loads 0.1,abc", "'abc'"),
        ("run --radix 10", "must divide radix 10"),
        # Every attempt corrupted never delivers; this used to run into
        # an OverflowError in the retransmit back-off.
        ("workload --radix 4 --corrupt-rate 1.0",
         "corrupt_rate 1.0 outside [0, 1)"),
        ("network --shards 2 --sanitize",
         "cannot sanitize a sharded simulation"),
    ])
    def test_rejected_input_is_a_usage_error(self, capsys, argv, told):
        """Regression: input the library's own validation refuses
        ended these three commands in a ``ValueError`` traceback while
        ``network`` and ``faults --rates`` printed a message and
        returned 2."""
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"repro {argv.split()[0]}: ")
        assert told in captured.err and "Traceback" not in captured.err

    def test_network_runs_with_certain_credit_loss(self, capsys):
        """Credit resync recovers every lost credit, so a credit-loss
        rate of 1.0 is a (slow) valid network; it used to be refused."""
        assert main([
            "network", "--load", "0.1", "--high-radix", "4",
            "--low-radix", "4", "--warmup", "50", "--measure", "50",
            "--drain", "1000", "--credit-loss", "1.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "high-radix" in out and "low-radix" in out

    @pytest.mark.parametrize("argv", [
        "run --arch buffered --radix 8 --subswitch 4 --warmup 20 "
        "--measure 20 --drain 200",
        "faults --arch buffered --radix 8 --subswitch 4 --rates 0.0,0.05 "
        "--warmup 20 --measure 20 --drain 200",
        "workload --family allreduce --target switch --arch baseline "
        "--radix 8",
        "network --load 0.1 --high-radix 4 --low-radix 4 --warmup 20 "
        "--measure 20 --drain 200",
    ])
    def test_invariant_violation_is_reported_by_main(
        self, monkeypatch, capsys, argv
    ):
        """Every sanitizable command reports a violation the same way;
        ``network --sanitize`` used to end in a traceback."""
        def violate(self, *args):
            raise InvariantViolation("injected", cycle=3, check="probe")

        monkeypatch.setattr(SimSanitizer, "check_now", violate)
        monkeypatch.setattr(NetworkSanitizer, "check_now", violate)
        assert main(argv.split() + ["--sanitize"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sanitizer: invariant violation: ")
        assert "Traceback" not in captured.err


class TestTraceCommand:
    def test_trace_writes_chrome_json(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        rc = main([
            "trace", "--arch", "hierarchical", "--radix", "8",
            "--subswitch", "4", "--load", "0.3", "--warmup", "100",
            "--measure", "200", "--drain", "2000",
            "--chrome", str(out_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        # Stage breakdown with the zero-load reference column.
        assert "zero-load" in out
        for stage in ("RC", "ROW", "SUB", "ST"):
            assert stage in out
        assert "speculation subva" in out
        assert "channel utilization" in out
        # The Chrome trace on disk is valid trace-event JSON.
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        assert all(e["ph"] in ("X", "M") for e in doc["traceEvents"])

    def test_trace_sampling_filter(self, capsys):
        rc = main([
            "trace", "--arch", "baseline", "--radix", "8",
            "--subswitch", "4", "--load", "0.2", "--warmup", "100",
            "--measure", "200", "--drain", "2000",
            "--every-nth", "4", "--ports", "0,1",
        ])
        assert rc == 0
        assert "traced flits" in capsys.readouterr().out


class TestFaultsCommand:
    def test_faults_sweep_table(self, capsys):
        rc = main([
            "faults", "--arch", "buffered", "--radix", "8",
            "--subswitch", "4", "--load", "0.4",
            "--rates", "0.0,0.05", "--credit-loss", "0.01",
            "--warmup", "100", "--measure", "200", "--drain", "2000",
            "--sanitize",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "corrupt rate" in out
        assert "retransmits" in out
        assert "0.050" in out
        assert "[sanitized]" in out

    def test_faults_rejects_bad_rate(self, capsys):
        rc = main([
            "faults", "--arch", "buffered", "--radix", "8",
            "--subswitch", "4", "--rates", "0.0,1.5",
        ])
        assert rc == 2
        assert "outside" in capsys.readouterr().err

    def test_faults_deterministic_output(self, capsys):
        argv = [
            "faults", "--arch", "buffered", "--radix", "8",
            "--subswitch", "4", "--load", "0.4", "--rates", "0.05",
            "--warmup", "100", "--measure", "200", "--drain", "2000",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestPipelineCommand:
    def test_pipeline_diagrams(self, capsys):
        rc = main(["pipeline", "--radix", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 5(b)" in out
        assert "SA1*" in out
        assert "head-flit latency" in out


class TestWorkloadCommand:
    def test_switch_decode_sweep(self, capsys):
        rc = main([
            "workload", "--family", "decode", "--target", "switch",
            "--arch", "baseline", "--radix", "8", "--vcs", "2",
            "--sizes", "1,2", "--steps", "1", "--gap", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "decode on baseline radix-8 switch (8 ranks)" in out
        assert "makespan" in out and "skew max" in out

    def test_network_allreduce_with_dead_link(self, capsys):
        rc = main([
            "workload", "--family", "allreduce", "--target", "network",
            "--radix", "4", "--levels", "2", "--vcs", "2",
            "--kill-links", "1", "--kill-at", "10", "--heal-at", "200",
            "--scheduler", "event",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 dead link(s)" in out
        assert "False" in out  # collective completed despite the fault

    def test_request_reply_window_sweep(self, capsys):
        rc = main([
            "workload", "--family", "request-reply", "--target",
            "switch", "--arch", "baseline", "--radix", "8", "--vcs",
            "2", "--windows", "1,2", "--requests", "2", "--think", "5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 4  # two sweep rows plus header

    def test_replay_from_csv_file(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "cycle,src,dest,size,flow\n0,0,5,2,a\n3,1,4,1,\n7,2,6,2,b\n"
        )
        rc = main([
            "workload", "--family", "replay", "--replay", str(trace),
            "--target", "switch", "--arch", "baseline", "--radix", "8",
            "--vcs", "2",
        ])
        assert rc == 0
        assert "replay" in capsys.readouterr().out

    def test_replay_requires_path(self, capsys):
        rc = main([
            "workload", "--family", "replay", "--target", "switch",
            "--arch", "baseline", "--radix", "8",
        ])
        assert rc == 2
        assert "--replay" in capsys.readouterr().err

    def test_rejects_oversubscribed_ranks(self, capsys):
        rc = main([
            "workload", "--family", "allreduce", "--target", "switch",
            "--arch", "baseline", "--radix", "8", "--ranks", "16",
        ])
        assert rc == 2
        assert "exceed" in capsys.readouterr().err

    def test_kill_links_needs_network(self, capsys):
        rc = main([
            "workload", "--family", "allreduce", "--target", "switch",
            "--arch", "baseline", "--radix", "8", "--kill-links", "1",
        ])
        assert rc == 2
        assert "network" in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        argv = [
            "workload", "--family", "alltoall", "--target", "network",
            "--radix", "4", "--levels", "2", "--vcs", "2",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
