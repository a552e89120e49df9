"""CLI-level tests: flags, exit codes, file outputs, determinism."""

from pathlib import Path

import numpy as np
import pytest

import helpers
from sbtrader import backcast as bc
from sbtrader import sb
from sbtrader.cli import _load_deviations, main
from sbtrader.engine import EngineConfig
from sbtrader.ising import ising_energy, save_matrix
from sbtrader.strategy import (
    CorrelationMatrix,
    build_split,
    config_from_kv,
    load_correlation,
    read_kv,
    save_correlation,
    save_universe,
)


GOLDEN = Path(__file__).parent / "data" / "golden"
GOLDEN_SYNTH16 = Path(__file__).parent / "data" / "golden_synth16"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_single_spin_bias(self, tmp_path, capsys):
        # QUBO [[-1]]: selecting the variable is optimal, spin +1
        path = tmp_path / "q.txt"
        save_matrix(path, np.array([[-1.0]]))
        code, out, _ = run_cli(capsys, "solve", "--qubo", str(path), "--seed", "3")
        assert code == 0
        assert "spins=+" in out
        assert "energy=-1.0" in out

    def test_deterministic_output(self, tmp_path, capsys):
        path = tmp_path / "q.txt"
        rng = np.random.default_rng(5)
        m = rng.normal(0, 1, (8, 8))
        save_matrix(path, (m + m.T) / 2)
        config = tmp_path / "one_run.cfg"
        config.write_text("restarts=1\n")
        _, out_a, _ = run_cli(capsys, "solve", "--qubo", str(path), "--config", str(config), "--seed", "7")
        _, out_b, _ = run_cli(capsys, "solve", "--qubo", str(path), "--config", str(config), "--seed", "7")
        assert "run_index=0" in out_a
        strip = lambda s: [l for l in s.splitlines() if not l.startswith("elapsed")]
        assert strip(out_a) == strip(out_b)

    def test_config_solver_keys_apply(self, tmp_path, capsys):
        # c0=1e308 makes every run diverge, so the run fails only if the config reaches the solver
        path = tmp_path / "q.txt"
        save_matrix(path, np.array([[-1.0, 50.0], [50.0, -1.0]]))
        config = tmp_path / "huge_c0.cfg"
        config.write_text("c0=1e308\n")
        code, out, err = run_cli(capsys, "solve", "--qubo", str(path), "--config", str(config))
        assert code == 1
        assert "diverged" in err and "spins=" not in out

    def test_entry_beyond_float32_range_exit_1(self, tmp_path, capsys):
        path = tmp_path / "q.txt"
        save_matrix(path, np.array([[1e39, 0.0], [0.0, -1.0]]))
        code, out, err = run_cli(capsys, "solve", "--qubo", str(path))
        assert code == 1
        assert "float32 range" in err and "spins=" not in out

    def test_malformed_matrix_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1.0 x\n0 0\n")
        code, _, err = run_cli(capsys, "solve", "--qubo", str(path))
        assert code == 1
        assert ":2" in err

    @pytest.mark.parametrize(
        "text, message",
        [("2\nnan 0\n0 -1\n", "non-finite"), ("0\n", ":1: matrix size must be >= 1")],
        ids=["nan-entry", "size-0"],
    )
    def test_bad_qubo_file_exit_1(self, tmp_path, capsys, text, message):
        path = tmp_path / "q.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "solve", "--qubo", str(path))
        assert code == 1 and message in err and "spins=" not in out

    def test_strategy_instance_accepted(self, tmp_path, capsys):
        files = helpers.write_convergence_fixture(tmp_path)
        dev = tmp_path / "dev.txt"
        dev.write_text("-0.0042\n-0.004\n0.0042\n0.004\n0\n0\n")
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--universe", str(files["universe"]),
            "--deviations", str(dev),
            "--corr", str(files["corr"]),
            "--config", str(files["config"]),
            "--seed", "2",
        )
        assert code == 0
        assert "accepted=True" in out
        assert "feasible=True" in out
        assert "1001:long" in out and "1003:short" in out

    def test_no_acceptable_solution_exit_2(self, tmp_path, capsys):
        files = helpers.write_convergence_fixture(tmp_path)
        dev = tmp_path / "dev.txt"
        dev.write_text("0\n0\n0\n0\n0\n0\n")  # nothing to trade
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--universe", str(files["universe"]),
            "--deviations", str(dev),
            "--corr", str(files["corr"]),
            "--config", str(files["config"]),
        )
        assert code == 2
        assert "accepted=False" in out

    def test_feasible_above_threshold_gives_its_reason(self, tmp_path, capsys):
        files = helpers.write_convergence_fixture(tmp_path)
        dev = tmp_path / "dev.txt"
        dev.write_text("-0.0042\n-0.004\n0.0042\n0.004\n0\n0\n")
        config = tmp_path / "strict.cfg"
        config.write_text(files["config"].read_text().replace("accept_threshold=0", "accept_threshold=-inf"))
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--universe", str(files["universe"]),
            "--deviations", str(dev),
            "--corr", str(files["corr"]),
            "--config", str(config),
            "--seed", "2",
        )
        assert code == 2
        assert "feasible=True" in out and "accepted=False" in out
        reasons = [l for l in out.splitlines() if l.startswith("reason=")]
        assert len(reasons) == 1 and reasons[0].startswith("reason=cost ") and "above threshold -inf" in reasons[0]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_deviation_exit_1(self, tmp_path, capsys, value):
        files = helpers.write_convergence_fixture(tmp_path)
        dev = tmp_path / "dev.txt"
        dev.write_text(f"-0.0042\n-0.004\n{value}\n0.004\n0\n0\n")
        code, _, err = run_cli(
            capsys,
            "solve",
            "--universe", str(files["universe"]),
            "--deviations", str(dev),
            "--corr", str(files["corr"]),
            "--config", str(files["config"]),
        )
        assert code == 1 and f"{dev}:3:" in err and "finite" in err

    @pytest.mark.parametrize(
        "line, message", [("-0.004,0,1", "expected `dp` or `dp,mask`"), ("abc", "cannot parse deviation entry")]
    )
    def test_malformed_deviation_line_exit_1(self, tmp_path, capsys, line, message):
        files = helpers.write_convergence_fixture(tmp_path)
        dev = tmp_path / "dev.txt"
        dev.write_text(f"-0.0042\n{line}\n0.0042\n0.004\n0\n0\n")
        code, out, err = run_cli(
            capsys,
            "solve",
            "--universe", str(files["universe"]),
            "--deviations", str(dev),
            "--corr", str(files["corr"]),
            "--config", str(files["config"]),
        )
        assert code == 1 and f"{dev}:2: {message}" in err and out == ""

    @pytest.mark.parametrize("value, lineno", [("7", 1), ("-1", 3), ("2", 6)])
    def test_mask_other_than_0_or_1_exit_1(self, tmp_path, capsys, value, lineno):
        files = helpers.write_convergence_fixture(tmp_path)
        lines = ["-0.0042", "-0.004", "0.0042", "0.004", "0", "0"]
        lines[lineno - 1] += f",{value}"
        dev = tmp_path / "dev.txt"
        dev.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(
            capsys,
            "solve",
            "--universe", str(files["universe"]),
            "--deviations", str(dev),
            "--corr", str(files["corr"]),
            "--config", str(files["config"]),
        )
        assert code == 1 and f"{dev}:{lineno}: mask must be 0 or 1" in err

    def test_mask_0_and_1_load(self, tmp_path):
        dev = tmp_path / "dev.txt"
        dev.write_text("-0.0042,1\n-0.004,0\n0.0042\n")
        loaded = _load_deviations(dev, 3)
        assert loaded.mask.tolist() == [True, False, False]
        assert loaded.dp.tolist() == [0.0, -0.004, 0.0042]

    def test_zero_deviation_masked_exit_2(self, tmp_path, capsys):
        # dp == 0 gives C and D no side, so only A and B are solved: two stocks cannot make a group of four
        save_universe(tmp_path / "u.csv", helpers.make_universe(4))
        sigma = np.full((4, 4), 0.1)
        np.fill_diagonal(sigma, 0.0)
        save_correlation(tmp_path / "corr.txt", CorrelationMatrix(sigma), ["seed"])
        (tmp_path / "dev.txt").write_text("-0.01\n0.01\n0\n0\n")
        (tmp_path / "s.cfg").write_text("n_s=4\np_max=4\nc1=1000\nc2=30\nc3=30\n")
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--universe", str(tmp_path / "u.csv"),
            "--deviations", str(tmp_path / "dev.txt"),
            "--corr", str(tmp_path / "corr.txt"),
            "--config", str(tmp_path / "s.cfg"),
        )
        assert code == 2
        assert "spins=++--" in out and "reason=count: selected 2 != n_s 4" in out
        assert "masked" not in out and "accepted=False" in out

    def test_all_masked_runs_no_batch(self, tmp_path, capsys, monkeypatch):
        files = helpers.write_convergence_fixture(tmp_path)
        dev = tmp_path / "dev.txt"
        dev.write_text("-0.0042,1\n0\n0.0042,1\n0\n0\n0\n")
        monkeypatch.setattr(sb, "run_batch", lambda *args, **kwargs: pytest.fail("a batch ran with every stock masked"))
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--universe", str(files["universe"]),
            "--deviations", str(dev),
            "--corr", str(files["corr"]),
            "--config", str(files["config"]),
        )
        assert code == 2
        assert "spins=------" in out and "selected=\n" in out
        assert "reason=count: selected 0 != n_s 4" in out and "accepted=False" in out
        # the printed energy is that of the empty group on the full problem
        config = config_from_kv(EngineConfig, read_kv(files["config"]))
        split = build_split(_load_deviations(dev, 6), load_correlation(files["corr"]), config.strategy)
        energy = float(next(l for l in out.splitlines() if l.startswith("energy="))[len("energy="):])
        assert energy == pytest.approx(ising_energy(sb.dense_reconstruct(split), -np.ones(6)), abs=1e-9)

    def test_misspelt_config_key_exit_1(self, tmp_path, capsys):
        files = helpers.write_convergence_fixture(tmp_path)
        dev = tmp_path / "dev.txt"
        dev.write_text("-0.0042\n-0.004\n0.0042\n0.004\n0\n0\n")
        typo = tmp_path / "typo.cfg"
        typo.write_text("n_s=4\nc_1=1000\n")
        code, _, err = run_cli(
            capsys,
            "solve",
            "--universe", str(files["universe"]),
            "--deviations", str(dev),
            "--corr", str(files["corr"]),
            "--config", str(typo),
        )
        assert code == 1 and "c_1" in err

    def test_deviation_count_mismatch(self, tmp_path, capsys):
        files = helpers.write_convergence_fixture(tmp_path)
        dev = tmp_path / "dev.txt"
        dev.write_text("0.01\n-0.01\n")
        code, _, err = run_cli(
            capsys,
            "solve",
            "--universe", str(files["universe"]),
            "--deviations", str(dev),
            "--corr", str(files["corr"]),
        )
        assert code == 1 and "universe of 6" in err


class TestGenFeedAndCorr:
    def test_gen_feed_deterministic(self, tmp_path, capsys):
        files = helpers.write_convergence_fixture(tmp_path)
        spec = tmp_path / "synth.cfg"
        spec.write_text("duration_s=20\nquote_rate=1.0\ntrade_rate=0.5\n")
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            code, stdout, _ = run_cli(
                capsys,
                "gen-feed",
                "--universe", str(files["universe"]),
                "--spec", str(spec),
                "--seed", "4",
                "--out", str(out),
            )
            assert code == 0 and "events=" in stdout
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("key", ["duration_s", "vol", "tick"])
    def test_infinite_spec_value_exit_1_names_key(self, tmp_path, capsys, key):
        files = helpers.write_convergence_fixture(tmp_path)
        spec = tmp_path / "synth.cfg"
        spec.write_text(f"duration_s=20\n{key}=inf\n")
        out = tmp_path / "f.csv"
        code, _, err = run_cli(
            capsys, "gen-feed", "--universe", str(files["universe"]), "--spec", str(spec), "--out", str(out)
        )
        assert code == 1 and err.startswith(f"error: {key} must be") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["vol=1e306", "tick=1e-320"])
    def test_overflowing_spec_exit_1_names_stock(self, tmp_path, capsys, line):
        files = helpers.write_convergence_fixture(tmp_path)
        spec = tmp_path / "synth.cfg"
        spec.write_text(f"duration_s=5\n{line}\n")
        out = tmp_path / "f.csv"
        code, _, err = run_cli(
            capsys, "gen-feed", "--universe", str(files["universe"]), "--spec", str(spec), "--out", str(out)
        )
        assert code == 1 and err.startswith("error: stock 1001:") and "Traceback" not in err
        assert not out.exists()

    def test_corr_writes_manifest_matrix(self, tmp_path, capsys):
        files = helpers.write_convergence_fixture(tmp_path)
        spec = tmp_path / "synth.cfg"
        spec.write_text("duration_s=30\nquote_rate=1.0\ntrade_rate=1.0\n")
        feeds = []
        for day in range(2):
            feed = tmp_path / f"day{day}.csv"
            run_cli(capsys, "gen-feed", "--universe", str(files["universe"]),
                    "--spec", str(spec), "--seed", str(day), "--out", str(feed))
            feeds.append(str(feed))
        out = tmp_path / "sigma.txt"
        code, stdout, _ = run_cli(
            capsys, "corr", *feeds, "--universe", str(files["universe"]), "--out", str(out)
        )
        assert code == 0
        assert "# days: day0,day1" in out.read_text().splitlines()[0]
        corr = load_correlation(out)
        assert np.all(corr.sigma >= 0) and np.all(corr.sigma <= 1)


    def test_corr_reads_only_the_last_window_feeds(self, tmp_path, capsys):
        files = helpers.write_convergence_fixture(tmp_path)
        spec = tmp_path / "synth.cfg"
        spec.write_text("duration_s=30\nquote_rate=1.0\ntrade_rate=1.0\n")
        feeds = []
        for day in range(3):
            feed = tmp_path / f"day{day}.csv"
            run_cli(capsys, "gen-feed", "--universe", str(files["universe"]),
                    "--spec", str(spec), "--seed", str(day), "--out", str(feed))
            feeds.append(str(feed))
        Path(feeds[0]).write_text("not,a,feed\n")  # replaying it would exit 1
        out, alone = tmp_path / "sigma.txt", tmp_path / "alone.txt"
        code, stdout, _ = run_cli(
            capsys, "corr", *feeds, "--universe", str(files["universe"]), "--window", "2", "--out", str(out)
        )
        assert code == 0
        assert "days=day1,day2" in stdout.splitlines()
        assert out.read_text().splitlines()[0] == "# days: day1,day2"
        code, _, _ = run_cli(capsys, "corr", *feeds[1:], "--universe", str(files["universe"]), "--out", str(alone))
        assert code == 0 and out.read_bytes() == alone.read_bytes()

    @pytest.mark.parametrize("window", ["0", "-1"])
    def test_corr_window_below_one_exits_before_replay(self, tmp_path, capsys, monkeypatch, window):
        files = helpers.write_convergence_fixture(tmp_path)
        feeds = [str(p) for p in files["feed_dir"].glob("*.csv")]
        monkeypatch.setattr(bc, "replay", lambda path: pytest.fail("a feed was replayed"))
        out = tmp_path / "sigma.txt"
        code, stdout, err = run_cli(
            capsys, "corr", *feeds, "--universe", str(files["universe"]), "--window", window, "--out", str(out)
        )
        assert code == 1 and "--window must be >= 1" in err and stdout == ""
        assert not out.exists()


class TestBackcast:
    def test_fixture_run_and_reports(self, tmp_path, capsys):
        files = helpers.write_convergence_fixture(tmp_path, commission_rate=0.0005)
        out_dir = tmp_path / "out"
        code, stdout, _ = run_cli(
            capsys,
            "backcast",
            "--feed-dir", str(files["feed_dir"]),
            "--universe", str(files["universe"]),
            "--config", str(files["config"]),
            "--corr", str(files["corr"]),
            "--seed", "1",
            "--out", str(out_dir),
        )
        assert code == 0
        assert "sharpe=" in stdout
        expected_tx, expected_pnl = helpers.convergence_expected(commission_rate=0.0005)
        assert f"total_pnl={expected_pnl!r}" in stdout
        assert (out_dir / "report.csv").exists()
        assert (out_dir / "orders.csv").exists()

    def test_bad_config_key_named(self, tmp_path, capsys):
        files = helpers.write_convergence_fixture(tmp_path)
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_s=4\nmystery_knob=1\n")
        code, _, err = run_cli(
            capsys,
            "backcast",
            "--feed-dir", str(files["feed_dir"]),
            "--universe", str(files["universe"]),
            "--config", str(bad),
            "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert "mystery_knob" in err

    def test_bad_config_value_exits_before_replay(self, tmp_path, capsys, monkeypatch):
        files = helpers.write_convergence_fixture(tmp_path)
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_s=4\nt_force_s=-5\n")
        monkeypatch.setattr(bc, "replay", lambda path: pytest.fail("a feed was replayed"))
        code, _, err = run_cli(
            capsys,
            "backcast",
            "--feed-dir", str(files["feed_dir"]),
            "--universe", str(files["universe"]),
            "--config", str(bad),
            "--out", str(tmp_path / "o"),
        )
        assert code == 1 and "t_force_us" in err
        assert not (tmp_path / "o").exists()

    def test_infinite_a_trans_exits_before_replay(self, tmp_path, capsys, monkeypatch):
        files = helpers.write_convergence_fixture(tmp_path)
        bad = tmp_path / "bad.cfg"
        bad.write_text(files["config"].read_text().replace("a_trans=4000000", "a_trans=inf"))
        monkeypatch.setattr(bc, "replay", lambda path: pytest.fail("a feed was replayed"))
        code, _, err = run_cli(
            capsys,
            "backcast",
            "--feed-dir", str(files["feed_dir"]),
            "--universe", str(files["universe"]),
            "--config", str(bad),
            "--corr", str(files["corr"]),
            "--out", str(tmp_path / "o"),
        )
        assert code == 1 and "a_trans" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("old, new", [("c1=1000", "c1=1e42"), ("c2=30", "c2=1e39"), ("c3=30", "c3=1e39")],
                             ids=["c1=1e42", "c2=1e39", "c3=1e39"])
    def test_coupling_beyond_float32_range_exits_before_replay(self, tmp_path, capsys, monkeypatch, old, new):
        # the SB batch steps in float32; a coefficient beyond its range would diverge every row
        files = helpers.write_convergence_fixture(tmp_path)
        bad = tmp_path / "bad.cfg"
        bad.write_text(files["config"].read_text().replace(old, new))
        monkeypatch.setattr(bc, "replay", lambda path: pytest.fail("a feed was replayed"))
        code, _, err = run_cli(
            capsys,
            "backcast",
            "--feed-dir", str(files["feed_dir"]),
            "--universe", str(files["universe"]),
            "--config", str(bad),
            "--corr", str(files["corr"]),
            "--out", str(tmp_path / "o"),
        )
        assert code == 1 and f"{new[:2]} " in err and "float32 range" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2\nnan 0.5\n0.5 0\n", "sigma contains non-finite entries"),
            ("2\n0 0.5\n0.4 0\n", "sigma must be symmetric"),
            ("2\n0 1.5\n1.5 0\n", "sigma entries must lie in [0, 1]"),
            ("2\n0 0.5\n0.5 0\n", "correlation matrix size must match the universe"),
            ("2.5\n0 0.5\n0.5 0\n", ":1: expected matrix size, got '2.5'"),
            ("0\n", ":1: matrix size must be >= 1"),
            ("2\n0 0.5\n", ": expected 2 rows, got 1"),
        ],
        ids=["non-finite", "asymmetric", "outside-0-1", "size-mismatch", "size-not-int", "size-0", "too-few-rows"],
    )
    def test_bad_correlation_file_exits_before_replay(self, tmp_path, capsys, monkeypatch, text, message):
        files = helpers.write_convergence_fixture(tmp_path)
        files["corr"].write_text(text)
        monkeypatch.setattr(bc, "replay", lambda path: pytest.fail("a feed was replayed"))
        code, out, err = run_cli(
            capsys,
            "backcast",
            "--feed-dir", str(files["feed_dir"]),
            "--universe", str(files["universe"]),
            "--config", str(files["config"]),
            "--corr", str(files["corr"]),
            "--out", str(tmp_path / "o"),
        )
        assert code == 1 and message in err and out == ""
        assert not (tmp_path / "o").exists()

    def test_golden_reports(self, tmp_path, capsys):
        files = helpers.write_convergence_fixture(tmp_path, commission_rate=0.0005)
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys,
            "backcast",
            "--feed-dir", str(files["feed_dir"]),
            "--universe", str(files["universe"]),
            "--config", str(files["config"]),
            "--corr", str(files["corr"]),
            "--seed", "3",
            "--out", str(out_dir),
        )
        assert code == 0
        for name in ("report.csv", "cumulative.csv", "orders.csv", "summary.txt"):
            assert (out_dir / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_golden_synthetic_reports(self, tmp_path, capsys):
        # 16 stocks, two synthetic days, 10 restarts: close decisions, so a solver change that moves
        # any of them changes these files
        files = helpers.write_synthetic_fixture(tmp_path)
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys,
            "backcast",
            "--feed-dir", str(files["feed_dir"]),
            "--universe", str(files["universe"]),
            "--config", str(files["config"]),
            "--corr", str(files["corr"]),
            "--out", str(out_dir),
        )
        assert code == 0
        for name in ("report.csv", "cumulative.csv", "orders.csv", "summary.txt"):
            assert (out_dir / name).read_bytes() == (GOLDEN_SYNTH16 / name).read_bytes(), name

    @pytest.mark.parametrize("price", ["nan", "inf"])
    def test_non_finite_base_price_exits_before_replay(self, tmp_path, capsys, monkeypatch, price):
        files = helpers.write_convergence_fixture(tmp_path)
        lines = files["universe"].read_text().splitlines()
        code_2, _, lot_2 = lines[2].split(",")
        lines[2] = f"{code_2},{price},{lot_2}"
        files["universe"].write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(bc, "replay", lambda path: pytest.fail("a feed was replayed"))
        code, _, err = run_cli(
            capsys,
            "backcast",
            "--feed-dir", str(files["feed_dir"]),
            "--universe", str(files["universe"]),
            "--config", str(files["config"]),
            "--corr", str(files["corr"]),
            "--out", str(tmp_path / "o"),
        )
        assert code == 1 and f"{files['universe']}:3:" in err and "base_price" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "row, message", [("1002,5000.0,0", "min_lot must be >= 1"), ("1002,5000.0,100,x", "expected 3 fields")]
    )
    def test_bad_universe_row_exits_before_replay(self, tmp_path, capsys, monkeypatch, row, message):
        files = helpers.write_convergence_fixture(tmp_path)
        lines = files["universe"].read_text().splitlines()
        lines[2] = row
        files["universe"].write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(bc, "replay", lambda path: pytest.fail("a feed was replayed"))
        code, out, err = run_cli(
            capsys,
            "backcast",
            "--feed-dir", str(files["feed_dir"]),
            "--universe", str(files["universe"]),
            "--config", str(files["config"]),
            "--corr", str(files["corr"]),
            "--out", str(tmp_path / "o"),
        )
        assert code == 1 and f"{files['universe']}:3:" in err and message in err and out == ""
        assert not (tmp_path / "o").exists()

    def test_overflowing_lot_count_exits_before_replay(self, tmp_path, capsys, monkeypatch):
        files = helpers.write_convergence_fixture(tmp_path)
        lines = files["universe"].read_text().splitlines()
        code_2, _, lot_2 = lines[2].split(",")
        lines[2] = f"{code_2},1e-310,{lot_2}"  # positive and finite, but 4e6 / (100 * 1e-310) is inf
        files["universe"].write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(bc, "replay", lambda path: pytest.fail("a feed was replayed"))
        code, _, err = run_cli(
            capsys,
            "backcast",
            "--feed-dir", str(files["feed_dir"]),
            "--universe", str(files["universe"]),
            "--config", str(files["config"]),
            "--corr", str(files["corr"]),
            "--out", str(tmp_path / "o"),
        )
        assert code == 1 and err.startswith(f"error: {code_2}: lot count") and "not finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_missing_feed_dir(self, tmp_path, capsys):
        files = helpers.write_convergence_fixture(tmp_path)
        code, _, err = run_cli(
            capsys,
            "backcast",
            "--feed-dir", str(tmp_path / "nowhere"),
            "--universe", str(files["universe"]),
            "--out", str(tmp_path / "o"),
        )
        assert code == 1 and "not found" in err


class TestUsageErrors:
    """A usage error exits 1 like any input error; 2 means only "no acceptable selection"."""

    def test_help_exits_0(self, capsys):
        for argv in (["--help"], ["backcast", "--help"]):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and "usage:" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve"], "provide --qubo"),
            (["solve", "--qubo", "q.txt", "--universe", "u.csv"], "mutually exclusive"),
            (["gen-feed", "--universe", "u.csv"], "--out"),
            (["solve", "--qubo", "q.txt", "--seed", "abc"], "--seed"),
            ([], "required"),
            (["frobnicate"], "invalid choice"),
        ],
        ids=["solve-alone", "qubo-with-universe", "missing-out", "seed-abc", "no-command", "unknown-command"],
    )
    def test_usage_error_exit_1(self, capsys, argv, message):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and "usage:" in err and message in err

    def test_negative_seed_rejected_at_parse_time(self, tmp_path, capsys, monkeypatch):
        files = helpers.write_convergence_fixture(tmp_path)
        qubo = tmp_path / "q.txt"
        save_matrix(qubo, np.array([[-1.0]]))
        monkeypatch.setattr(bc, "replay", lambda path: pytest.fail("a feed was replayed"))
        for argv in (
            ["solve", "--qubo", str(qubo)],
            ["gen-feed", "--universe", str(files["universe"]), "--out", str(tmp_path / "f.csv")],
            ["backcast", "--feed-dir", str(files["feed_dir"]), "--universe", str(files["universe"]),
             "--config", str(files["config"]), "--out", str(tmp_path / "o")],
        ):
            code, out, err = run_cli(capsys, *argv, "--seed", "-1")
            assert code == 1 and "argument --seed" in err and ">= 0" in err and out == ""
        assert not (tmp_path / "f.csv").exists() and not (tmp_path / "o").exists()
