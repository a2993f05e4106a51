import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from mcvar.cli import (
    EXIT_CONTINUE,
    EXIT_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    load_chain,
    main,
    parse_targets,
    sniff_chain_file,
)
from mcvar.experiments import METHODS, Ar1Config, ar1_generate


@pytest.fixture
def chain4(tmp_path):
    path = tmp_path / "chain4.csv"
    path.write_text("1\n2\n3\n4\n")
    return str(path)


@pytest.fixture
def ar1_file(tmp_path):
    path = tmp_path / "ar1.csv"
    np.savetxt(path, ar1_generate(Ar1Config(phi=0.5, n=20_000, seed=4)).values, delimiter=",")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestChainFiles:
    def test_sniffs_comma_and_tab(self, tmp_path):
        c = tmp_path / "a.csv"
        c.write_text("1,2\n3,4\n")
        t = tmp_path / "a.tsv"
        t.write_text("1\t2\n3\t4\n")
        assert sniff_chain_file(str(c)).delimiter == ","
        assert sniff_chain_file(str(t)).delimiter == "\t"

    def test_header_autodetected(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("alpha,beta\n1,2\n3,4\n")
        spec = sniff_chain_file(str(f))
        assert spec.header
        assert load_chain(spec).values.shape == (2, 2)

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        f = tmp_path / "bom.csv"
        for text, header, shape in (("1,2\n3,4\n5,7\n", False, (3, 2)), ("a,b\n1,2\n3,4\n", True, (2, 2))):
            f.write_bytes(b"\xef\xbb\xbf" + text.encode())
            spec = sniff_chain_file(str(f))
            assert spec.header == header
            assert load_chain(spec).values.shape == shape

    @pytest.mark.parametrize("text, header", [
        ("\n1,2\n3,4\n5,7\n6,1\n", False),
        ("\n \r\n1,2\n3,4\n\n5,7\n6,1\n", False),
        ("\n\na,b\n1,2\n3,4\n5,7\n6,1\n", True),
        ("\n\na\tb\n1\t2\n3\t4\n5\t7\n6\t1\n", True),
    ])
    def test_blank_lines_before_the_first_row_are_skipped(self, tmp_path, text, header):
        f = tmp_path / "blank.csv"
        f.write_text(text)
        spec = sniff_chain_file(str(f))
        assert spec.header == header
        assert np.array_equal(load_chain(spec).values, [[1, 2], [3, 4], [5, 7], [6, 1]])

    @pytest.mark.parametrize("text", [
        "1,2\n3,4\n5,7\n6,1\n  \n",
        "1,2\n \t \n3,4\n5,7\n\n  \n6,1\n   \n",
        "a,b\n1,2\n3,4\n \n5,7\n6,1\n",
    ])
    def test_whitespace_only_lines_after_the_first_row_are_skipped(self, capsys, tmp_path, text):
        f = tmp_path / "ws.csv"
        f.write_text(text)
        assert np.array_equal(load_chain(sniff_chain_file(str(f))).values, [[1, 2], [3, 4], [5, 7], [6, 1]])
        code, out, err = run(capsys, "estimate", str(f), "--b", "1")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["n"] == 4

    def test_clean_file_is_parsed_once(self, monkeypatch, tmp_path):
        f = tmp_path / "clean.csv"
        f.write_text("1,2\n3,4\n5,7\n")
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or loadtxt(*a, **k))
        assert load_chain(sniff_chain_file(str(f))).values.shape == (3, 2)
        assert calls == [(str(f),)]

    def test_column_selection(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("1,10,100\n2,20,200\n3,30,300\n")
        chain = load_chain(sniff_chain_file(str(f), columns="2,0"))
        assert np.array_equal(chain.values[:, 0], [100, 200, 300])

    def test_ragged_rows_rejected(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("1,2\n3\n")
        with pytest.raises(Exception):
            load_chain(sniff_chain_file(str(f)))

    def test_npy_detected_by_magic_not_suffix(self, tmp_path):
        values = np.arange(12.0).reshape(4, 3)
        f = tmp_path / "chain.dat"
        with open(f, "wb") as fh:
            np.save(fh, values)
        spec = sniff_chain_file(str(f), columns="2,0")
        assert spec.npy
        assert np.array_equal(load_chain(spec).values, values[:, [2, 0]])

    def test_one_dimensional_npy_is_one_column(self, tmp_path):
        f = tmp_path / "x.npy"
        np.save(f, np.arange(5.0))
        assert load_chain(sniff_chain_file(str(f))).values.shape == (5, 1)


def single_input_error(capsys, path) -> str:
    """Run estimate on path with every warning recorded; it must exit 2 with
    one stderr line and no warning.  Returns that line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "estimate", str(path))
    assert [str(w.message) for w in caught] == []
    assert code == EXIT_INPUT and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("mcvar: input error: ")
    return err


def single_usage_error(capsys, *argv) -> str:
    """Run argv with every warning recorded; it must exit 3 with one stderr
    line and no warning.  Returns that line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    assert code == EXIT_USAGE and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("mcvar: usage error: ")
    return err


class TestInputErrors:
    def test_npy_matches_csv(self, capsys, tmp_path, ar1_file):
        f = tmp_path / "ar1.npy"
        np.save(f, np.loadtxt(ar1_file, delimiter=","))
        reports = []
        for path in (ar1_file, str(f)):
            code, out, _ = run(capsys, "estimate", path, "--method", "sv", "--columns", "0")
            assert code == EXIT_OK
            reports.append({k: v for k, v in json.loads(out).items() if k != "wall_time_s"})
        assert reports[0] == reports[1]

    def test_non_utf8_text(self, capsys, tmp_path):
        f = tmp_path / "latin.csv"
        f.write_bytes(b"\xff\xfe1,2\n3,4\n")
        assert "is not UTF-8 text" in single_input_error(capsys, f)

    def test_header_only(self, capsys, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("a,b\n")
        assert "need at least 2 iterations, got 0" in single_input_error(capsys, f)

    @pytest.mark.parametrize("array, message", [
        (np.array([{"x": 1.0}, 2.0], dtype=object), "Object arrays cannot be loaded"),
        (np.array([["1", "2"], ["3", "4"]]), "need a numeric array"),
        (np.ones((3, 2), complex), "need a numeric array"),
        (np.zeros((4, 2, 2)), "need a 1- or 2-dimensional array, got ndim=3"),
        (np.float64(1.0), "need a 1- or 2-dimensional array, got ndim=0"),
    ])
    def test_bad_npy_arrays(self, capsys, tmp_path, array, message):
        f = tmp_path / "bad.npy"
        np.save(f, array, allow_pickle=True)
        assert message in single_input_error(capsys, f)

    def test_truncated_npy(self, capsys, tmp_path):
        f = tmp_path / "t.npy"
        np.save(f, np.ones((100, 2)))
        data = f.read_bytes()
        for cut in (6, 40, len(data) - 8):
            f.write_bytes(data[:cut])
            assert "cannot parse" in single_input_error(capsys, f)


class TestEstimateCommand:
    def test_bm_hand_case(self, capsys, chain4):
        code, out, _ = run(capsys, "estimate", chain4, "--method", "bm", "--b", "2")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["sigma"] == [[4.0]]
        assert report["mcse"] == [1.0]
        assert report["method"]["family"] == "bm"

    def test_initseq_hand_case(self, capsys, chain4):
        code, out, _ = run(capsys, "estimate", chain4, "--method", "initseq")
        assert code == EXIT_OK
        assert json.loads(out)["sigma"] == [[1.875]]

    def test_initseq_rejects_lugsail(self, capsys, chain4):
        code, _, err = run(capsys, "estimate", chain4, "--method", "initseq", "--lugsail", "over")
        assert code == EXIT_USAGE
        assert "initseq" in err

    @pytest.mark.parametrize("method", ["initseq", "initseq-adj"])
    def test_initseq_rejects_batch_size(self, capsys, chain4, method):
        err = single_usage_error(capsys, "estimate", chain4, "--method", method, "--b", "5")
        assert err == f"mcvar: usage error: {method} takes no batch size b\n"

    def test_window_only_with_sv(self, capsys, chain4):
        code, _, err = run(capsys, "estimate", chain4, "--method", "bm", "--window", "bartlett")
        assert code == EXIT_USAGE
        assert "--window" in err

    def test_r_c_only_with_custom(self, capsys, chain4):
        code, _, _ = run(capsys, "estimate", chain4, "--method", "bm", "--lugsail", "zero", "--r", "2")
        assert code == EXIT_USAGE

    def test_custom_needs_r_and_c(self, capsys, chain4):
        code, _, _ = run(capsys, "estimate", chain4, "--method", "bm", "--lugsail", "custom", "--r", "2")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("method", ["bm", "obm", "sv"])
    @pytest.mark.parametrize("r", ["inf", "nan"])
    def test_non_finite_r_is_a_usage_error(self, capsys, ar1_file, method, r):
        code, out, err = run(capsys, "estimate", ar1_file, "--method", method,
                             "--lugsail", "custom", "--r", r, "--c", "0.5")
        assert code == EXIT_USAGE and out == ""
        assert err == f"mcvar: usage error: lugsail ratio r must be finite and >= 1, got {r}\n"

    @pytest.mark.parametrize("method", ["bm", "obm", "sv"])
    def test_zero_weight_still_needs_a_small_batch(self, capsys, ar1_file, method):
        # c = 0 changes nothing, but floor(b/r) >= 1 holds for it as for any c
        code, _, err = run(capsys, "estimate", ar1_file, "--method", method,
                           "--lugsail", "custom", "--r", "2", "--c", "0", "--b", "1")
        assert code == EXIT_USAGE
        assert "floor(b/r) must be >= 1" in err

    @pytest.mark.parametrize("method, message", [
        ("bm", "batch size must be >= 1"),
        ("obm", "batch size must be >= 1"),
        ("sv", "batch size must be >= 1"),
    ])
    def test_base_batch_check_runs_before_the_lugsail_one(self, capsys, ar1_file, method, message):
        code, _, err = run(capsys, "estimate", ar1_file, "--method", method, "--lugsail", "over", "--b", "0")
        assert code == EXIT_USAGE
        assert message in err and "floor" not in err

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "estimate", str(tmp_path / "nope.csv"))
        assert code == EXIT_INPUT

    def test_non_numeric_is_input_error(self, capsys, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("h1,h2\n1,x\n2,3\n")
        code, _, _ = run(capsys, "estimate", str(f))
        assert code == EXIT_INPUT

    def test_csv_output_is_flat(self, capsys, chain4):
        code, out, _ = run(capsys, "estimate", chain4, "--method", "bm", "--b", "2", "--out", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        assert "sigma_0_0,4.0" in lines

    def test_report_roundtrips_sigma_exactly(self, capsys, ar1_file):
        code, out, _ = run(capsys, "estimate", ar1_file, "--method", "sv", "--window", "tukey-hanning")
        assert code == EXIT_OK
        report = json.loads(out)
        again = json.loads(json.dumps(report))
        assert again["sigma"] == report["sigma"]
        assert isinstance(report["sigma"][0][0], float)


class TestEssCommand:
    def test_b_one_forces_ess_equal_n(self, capsys, tmp_path):
        f = tmp_path / "iid.csv"
        rng = np.random.default_rng(8)
        np.savetxt(f, rng.standard_normal(500), delimiter=",")
        code, out, _ = run(capsys, "ess", str(f), "--method", "bm", "--b", "1")
        assert code == EXIT_OK
        assert json.loads(out)["ess"] == pytest.approx(500.0, rel=1e-9)

    def test_reasonable_ratio_for_correlated_chain(self, capsys, ar1_file):
        code, out, _ = run(capsys, "ess", ar1_file, "--method", "bm", "--lugsail", "over")
        assert code == EXIT_OK
        ratio = json.loads(out)["ess_per_n"]
        assert 0.2 < ratio < 0.5  # truth for phi=0.5 is 1/3

    def test_units_of_a_column_do_not_change_ess(self, capsys, tmp_path):
        values = ar1_generate(Ar1Config(phi=0.9, n=20_000, seed=1, p=2)).values * [1.0, 1e-5]
        np.savetxt(tmp_path / "scaled.csv", values, delimiter=",")
        np.savetxt(tmp_path / "unscaled.csv", values / [1.0, 1e-5], delimiter=",")
        for command in ("ess", "stopcheck"):
            runs = [run(capsys, command, str(tmp_path / f)) for f in ("scaled.csv", "unscaled.csv")]
            assert runs[0][0] == runs[1][0] != EXIT_NUMERICAL
            assert json.loads(runs[0][1])["ess"] == pytest.approx(json.loads(runs[1][1])["ess"], rel=1e-12)

    def test_empty_file_is_input_error(self, capsys, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("")
        code, _, _ = run(capsys, "ess", str(f))
        assert code == EXIT_INPUT

    def test_blank_only_file_is_input_error(self, capsys, tmp_path):
        f = tmp_path / "blank.csv"
        f.write_text("\n \n\t\r\n")
        code, _, err = run(capsys, "ess", str(f))
        assert code == EXIT_INPUT
        assert err.endswith("is empty\n")


class TestMinEssCommand:
    @pytest.mark.parametrize(
        "alpha, eps, p, want",
        [("0.05", "0.05", "1", 6146), ("0.05", "0.05", "10", 8831), ("0.05", "0.10", "1", 1536)],
    )
    def test_published_values(self, capsys, alpha, eps, p, want):
        code, out, _ = run(capsys, "miness", "--alpha", alpha, "--eps", eps, "--p", p)
        assert code == EXIT_OK
        assert abs(int(out.strip()) - want) <= 1


class TestStopcheckCommand:
    def test_short_chain_continues(self, capsys, chain4):
        code, out, _ = run(capsys, "stopcheck", chain4, "--method", "bm", "--b", "2", "--nstar", "2")
        assert code == EXIT_CONTINUE
        assert json.loads(out)["terminate"] is False

    def test_below_n_star_continues_regardless(self, capsys, ar1_file):
        code, out, _ = run(capsys, "stopcheck", ar1_file, "--nstar", "1000000")
        assert code == EXIT_CONTINUE

    def test_precise_chain_terminates(self, capsys, tmp_path):
        f = tmp_path / "iid.csv"
        rng = np.random.default_rng(21)
        np.savetxt(f, rng.standard_normal(20_000), delimiter=",")
        code, out, _ = run(capsys, "stopcheck", str(f), "--nstar", "100", "--eps", "0.05")
        assert code == EXIT_OK
        assert json.loads(out)["terminate"] is True


class TestSimciCommand:
    def test_single_mean_reduces_to_normal_quantile(self, capsys, ar1_file):
        code, out, _ = run(capsys, "simci", ar1_file, "--targets", "mean:0", "--method", "bm")
        assert code == EXIT_OK
        assert json.loads(out)["z_star"] == pytest.approx(1.96, abs=0.02)

    def test_three_targets_bracket_their_estimates(self, capsys, ar1_file):
        code, out, _ = run(capsys, "simci", ar1_file, "--targets", "mean:0,quant:0:0.1,quant:0:0.9")
        assert code == EXIT_OK
        got = json.loads(out)
        assert len(got["intervals"]) == 3
        for (lo, hi), nu in zip(got["intervals"], got["nu_hat"]):
            assert lo < nu < hi

    def test_malformed_targets(self, capsys, ar1_file):
        code, _, _ = run(capsys, "simci", ar1_file, "--targets", "mean")
        assert code == EXIT_USAGE

    def test_seeded_output_is_byte_identical(self, capsys, ar1_file):
        args = ("simci", ar1_file, "--targets", "mean:0,quant:0:0.5", "--seed", "7")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("flags", [("--alpha", "0"), ("--seed", "-1")])
    def test_flags_are_checked_before_the_file_is_read(self, capsys, tmp_path, flags):
        code, _, err = run(capsys, "simci", str(tmp_path / "missing.csv"), "--targets", "mean:0", *flags)
        assert code == EXIT_USAGE and err.startswith("mcvar: usage error: ")

    def test_parse_targets(self):
        specs = parse_targets("mean:1,quant:0:0.25")
        assert specs[0].kind == "mean" and specs[0].component == 1
        assert specs[1].q == 0.25


class TestExperimentCommand:
    def test_coverage_table_shape(self, capsys):
        code, out, _ = run(capsys, "experiment", "ar1-coverage", "--phi", "0.5",
                           "--n-grid", "2000", "--reps", "20", "--seed", "3")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "estimator,n,replications,coverage,mc_se"
        assert len(lines) == 4  # bm, bm-zero, bm-over

    def test_seeded_runs_are_byte_identical(self, capsys):
        args = ("experiment", "ar1-ess", "--phi", "0.5", "--n-grid", "1500",
                "--reps", "10", "--seed", "11")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_bench_emits_one_row_per_estimator(self, capsys):
        code, out, _ = run(capsys, "experiment", "bench", "--n", "2000",
                           "--p-coef", "2", "--reps", "2", "--seed", "1")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "estimator,median_seconds,repetitions"
        assert len(lines) == 1 + 7  # bm x3, sv x3, initseq

    @pytest.mark.parametrize("name", ["ar1-coverage", "ar1-ess", "bench"])
    def test_zero_replications_is_a_usage_error(self, capsys, name):
        err = single_usage_error(capsys, "experiment", name, "--n", "500", "--reps", "0")
        assert "at least 1 rep" in err

    # the flags each experiment reads, with their defaults and a value to give
    FLAGS = {"--phi": (0.92, "0.5"), "--n": (50000, "600"), "--n-grid": (None, "500,600"), "--reps": (500, "2"),
             "--seed": (0, "3"), "--alpha": (0.05, "0.1"), "--methods": ("bm", "sv"),
             "--proposal-sd": (0.5, "0.25"), "--n-obs": (200, "7"), "--p-coef": (19, "2"), "--out": ("csv", "json")}
    READS = {
        "ar1-coverage": ("--phi", "--n", "--n-grid", "--reps", "--seed", "--alpha", "--methods", "--out"),
        "ar1-ess": ("--phi", "--n", "--n-grid", "--reps", "--seed", "--methods", "--out"),
        "mixture": ("--n", "--seed", "--proposal-sd", "--out"),
        "logistic": ("--n", "--seed", "--n-obs", "--p-coef", "--out"),
        "bench": ("--n", "--seed", "--p-coef", "--reps", "--out"),
    }

    @pytest.mark.parametrize("name", sorted(READS))
    def test_each_flag_read_parses_to_its_value_and_default(self, name):
        parser = build_parser()
        defaults = vars(parser.parse_args(["experiment", name]))
        for flag in self.READS[name]:
            dest = flag[2:].replace("-", "_")
            default, text = self.FLAGS[flag]
            assert defaults[dest] == default
            given = vars(parser.parse_args(["experiment", name, flag, text]))
            assert str(given[dest]) == text
            assert {k: v for k, v in given.items() if k != dest} == {k: v for k, v in defaults.items() if k != dest}

    @pytest.mark.parametrize("name", sorted(READS))
    def test_flags_not_read_exit_3_and_are_named(self, capsys, name):
        unread = [flag for flag in self.FLAGS if flag not in self.READS[name]]
        for flag in unread:
            code, out, err = run(capsys, "experiment", name, flag, self.FLAGS[flag][1])
            assert (code, out) == (EXIT_USAGE, "")
            assert err.splitlines()[-1] == f"mcvar: error: unrecognized arguments: {flag} {self.FLAGS[flag][1]}"
        code, _, err = run(capsys, "experiment", name, *unread[:3])
        assert code == EXIT_USAGE and all(flag in err for flag in unread[:3])

    @pytest.mark.parametrize("name", ["ar1-coverage", "ar1-ess"])
    def test_n_and_n_grid_exclude_each_other(self, capsys, name):
        code, out, err = run(capsys, "experiment", name, "--n", "1000", "--n-grid", "500,2000")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.splitlines()[-1].endswith("error: argument --n-grid: not allowed with argument --n")

    @pytest.mark.parametrize("name", sorted(READS))
    def test_help_lists_only_the_flags_read(self, capsys, name):
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(["experiment", name, "-h"])
        listed = {word.strip("[],") for word in capsys.readouterr().out.split() if word.startswith(("--", "[--"))}
        assert exit_.value.code == 0
        assert listed == {*self.READS[name], "--help"}

    def test_mixture_summary(self, capsys):
        code, out, _ = run(capsys, "experiment", "mixture", "--n", "4000", "--seed", "2", "--out", "json")
        assert code == EXIT_OK
        got = json.loads(out)
        assert 0.9 < got["lag1_autocorrelation"] < 1.0
        assert 0 < got["acceptance_rate"] < 1

    def test_logistic_summary(self, capsys):
        code, out, _ = run(capsys, "experiment", "logistic", "--n", "2000",
                           "--n-obs", "50", "--p-coef", "3", "--seed", "2", "--out", "json")
        assert code == EXIT_OK
        got = json.loads(out)
        assert len(got["posterior_mean"]) == 3
        assert got["ess"] > 0


class TestExitCodePartition:
    def test_usage_error_from_argparse(self, capsys):
        assert main(["estimate"]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize("method", ["bm", "obm", "sv", "initseq", "initseq-adj"])
    def test_chain_too_short_for_its_estimator_is_usage(self, capsys, tmp_path, method):
        # usage, not input: for bm, obm and sv a --b makes the same file estimable
        f = tmp_path / "short.csv"
        f.write_text("1,2\n3,4\n5,7\n")
        code, out, err = run(capsys, "estimate", str(f), "--method", method)
        assert code == EXIT_USAGE and out == ""
        assert err.splitlines() == ["mcvar: usage error: need n >= 4, got 3"]

    def test_numerical_failure_exit(self, capsys, tmp_path):
        # antithetic chain: batch means at b=12 vanish exactly, so this
        # custom lugsail mix is certainly negative and ESS must refuse
        f = tmp_path / "anti.csv"
        f.write_text("\n".join(str(1.0 * (-1) ** i) for i in range(40)) + "\n")
        code = main(["ess", str(f), "--method", "bm", "--b", "12", "--lugsail", "custom",
                     "--r", "12", "--c", "0.9"])
        out = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert "numerical" in out.err


# Chain commands whose exit code, ESS, decision and z* must not depend on the
# chain's units, scaled as far as 10^+-150, on the chain of
# tests/test_cli_golden.py: 2000 x 3 AR(1, phi=0.9), seed 2024.
SCALED_COMMANDS = [
    *[["estimate", "--method", m] for m in ("bm", "obm", "sv", "initseq", "initseq-adj")],
    *[["ess", "--method", m] for m in ("bm", "sv", "initseq")],
    ["stopcheck", "--lugsail", "over"],
    ["stopcheck", "--method", "sv"],
    ["simci", "--targets", "mean:0,quant:1:0.1"],
]


@pytest.mark.parametrize("k", [-150, -75, 75, 150])
def test_units_of_the_whole_chain_change_no_answer(capsys, tmp_path, k):
    eps = np.random.default_rng(2024).standard_normal((2000, 3))
    values = lfilter([1.0], [1.0, -0.9], eps, axis=0, zi=np.zeros((1, 3)))[0]
    for name, scale in (("unscaled.csv", 1.0), ("scaled.csv", 10.0**k)):
        np.savetxt(tmp_path / name, values * scale, delimiter=",")
    for command, *flags in SCALED_COMMANDS:
        (want_code, want, _), (code, got, err) = (run(capsys, command, str(tmp_path / name), *flags)
                                                  for name in ("unscaled.csv", "scaled.csv"))
        assert code == want_code, (command, flags, err)
        want, got = json.loads(want), json.loads(got)
        assert got.get("terminate") == want.get("terminate")
        for key in ("ess", "z_star"):
            if key in want:
                assert got[key] == pytest.approx(want[key], rel=1e-10), (command, flags, key)


def test_an_overflowing_sample_covariance_is_named_not_finite(capsys, tmp_path):
    # times 1e153 the golden chain's sv estimate is finite, but the sample
    # covariance that ESS and the stopping rule divide by overflows
    eps = np.random.default_rng(2024).standard_normal((2000, 3))
    values = lfilter([1.0], [1.0, -0.9], eps, axis=0, zi=np.zeros((1, 3)))[0]
    path = tmp_path / "e153.csv"
    np.savetxt(path, values * 1e153, delimiter=",")
    for command in ("ess", "stopcheck"):
        code, out, err = run(capsys, command, str(path), "--method", "sv")
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err.splitlines() == ["mcvar: numerical error: the sample covariance is not finite"]


# Fields of a fuzzed text file: numbers, non-finite and overflowing tokens,
# words and empty fields.
TOKENS = st.one_of(
    st.floats(-1e3, 1e3).map(repr),
    st.integers(-1000, 1000).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "1e200", "-1e200", "x", "abc", ""]),
)


@st.composite
def text_files(draw) -> bytes:
    """At most 8 rows of at most 4 fields under a random delimiter and line
    end, with an optional byte-order mark, header and blank or
    whitespace-only lines."""
    delimiter = draw(st.sampled_from([",", "\t", ";", " "]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [delimiter.join(row) for row in draw(st.lists(st.lists(TOKENS, min_size=1, max_size=4), max_size=8))]
    if draw(st.booleans()):
        lines.insert(0, delimiter.join(f"x{j}" for j in range(draw(st.integers(1, 4)))))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t ", "  "])))
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + "".join(line + end for line in lines).encode()


@st.composite
def npy_files(draw) -> bytes:
    """A .npy file of at most 8 x 4 values, saved as one of the arrays a chain
    file may not hold (or may, after a cast)."""
    n, p = draw(st.integers(0, 8)), draw(st.integers(1, 4))
    x = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n * p, max_size=n * p)), float).reshape(n, p)
    array = draw(st.sampled_from([
        x, x.astype(object), x.astype(complex), np.array(x.sum()), x.reshape(n, p, 1), x[:0],
        x.astype(np.float16), x > 0, x.astype(">f8"),
        np.array([tuple(row) for row in x], dtype=[(f"f{j}", float) for j in range(p)]),
        np.where(x > 0, 1e308, -1e308),
    ]))
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=True)
    return buf.getvalue()


class TestFuzzedChainFiles:
    """Every chain file maps to exit 0, 2, 3 or 4: one stderr line when it is
    not 0 and none when it is, and never a warning or a traceback."""

    def check(self, tmp_path_factory, data: bytes, method: str, b: int | None):
        path = tmp_path_factory.getbasetemp() / "fuzzed-chain"
        path.write_bytes(data)
        argv = ["estimate", str(path), "--method", method, *(["--b", str(b)] if b else [])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert [str(w.message) for w in caught] == []
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_USAGE, EXIT_NUMERICAL)
        assert len(err.getvalue().splitlines()) == (code != EXIT_OK)

    @settings(max_examples=200)
    @given(st.one_of(text_files(), st.binary(max_size=64)), st.sampled_from(METHODS), st.sampled_from([None, 1, 2]))
    def test_text_and_random_bytes(self, tmp_path_factory, data, method, b):
        self.check(tmp_path_factory, data, method, b)

    @settings(max_examples=100)
    @given(npy_files(), st.sampled_from(METHODS), st.sampled_from([None, 1]))
    def test_npy_arrays(self, tmp_path_factory, data, method, b):
        self.check(tmp_path_factory, data, method, b)
