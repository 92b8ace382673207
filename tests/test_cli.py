"""End-to-end tests for the command line interface.

Every test drives erlfit.cli.main in process with an explicit argv and
checks the exit code, the emitted file, and the report contents.
Exit codes: 0 success, 1 bad input, 2 fit did not converge, 3 the
numerics refused to produce a trustworthy answer.
"""

import json
import math
import os
import subprocess
import sys
import warnings

import jsonschema
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erlfit import cli
from erlfit.cli import REPORT_SCHEMA, ingest, main
from erlfit.core import ErlParams, erl_cdf, erl_sample
from erlfit.datasets import synthetic_path
from erlfit.errors import InputError
from erlfit.estimation import Dataset, FitResult
from erlfit.gof import gof_report, ks_pvalue
from erlfit.submodels import PARAM_LABELS

# a=b=1 with baseline (1, 0.5, 2) collapses to a unit-rate shifted
# exponential; a=2 squares its cdf and halves the mean to 1/2
EXP_PARAMS = "1,1,1,0.5,2"
POWER_PARAMS = "2,1,1,0.5,2"


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    draws = erl_sample(150, ErlParams(1.0, 1.0, 1.0, 1.0, 1.0), seed=7)
    path = tmp_path_factory.mktemp("cli-data") / "data.txt"
    path.write_text("\n".join(repr(float(v)) for v in draws) + "\n", encoding="utf-8")
    return str(path)


class TestIngest:
    def write(self, tmp_path, text, name="in.txt", encoding="utf-8"):
        path = tmp_path / name
        path.write_text(text, encoding=encoding)
        return str(path)

    def test_plain_lines(self, tmp_path):
        data = ingest(self.write(tmp_path, "1.5\n-0.25\n3e-2\n"))
        assert data.n == 3
        np.testing.assert_allclose(data.values, [-0.25, 0.03, 1.5])

    def test_values_come_back_sorted(self, tmp_path):
        data = ingest(self.write(tmp_path, "3\n1\n2\n"))
        np.testing.assert_array_equal(data.values, [1.0, 2.0, 3.0])

    def test_header_line_skipped(self, tmp_path):
        data = ingest(self.write(tmp_path, "value\n1.0\n2.5\n"))
        assert data.n == 2

    def test_header_after_leading_blank_lines(self, tmp_path):
        data = ingest(self.write(tmp_path, "\n\nobserved\n1.0\n2.0\n"))
        assert data.n == 2

    def test_crlf_and_bom(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"\xef\xbb\xbfvalue\r\n1.0\r\n2.0\r\n")
        data = ingest(str(path))
        assert data.n == 2

    def test_blank_lines_ignored(self, tmp_path):
        data = ingest(self.write(tmp_path, "1.0\n\n2.0\n\n\n3.0\n"))
        assert data.n == 3

    def test_trailing_comma_is_still_one_column(self, tmp_path):
        data = ingest(self.write(tmp_path, "1.5,\n2.5,\n"))
        np.testing.assert_allclose(data.values, [1.5, 2.5])

    def test_two_columns_rejected(self, tmp_path):
        with pytest.raises(InputError, match="single column"):
            ingest(self.write(tmp_path, "1.0,2.0\n"))

    def test_bad_value_reports_its_line_number(self, tmp_path):
        with pytest.raises(InputError, match="line 3: 'banana' is not numeric"):
            ingest(self.write(tmp_path, "1.0\n2.0\nbanana\n4.0\n"))

    def test_non_finite_value_rejected(self, tmp_path):
        with pytest.raises(InputError, match="non-finite"):
            ingest(self.write(tmp_path, "1.0\ninf\n2.0\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(InputError, match="no numeric data"):
            ingest(self.write(tmp_path, "\n  \n"))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InputError, match="cannot read input file"):
            ingest(str(tmp_path / "nope.txt"))


class TestUsageErrors:
    """Every malformed invocation exits 1 with a diagnostic on stderr."""

    CASES = [
        (["frobnicate"], "invalid choice"),
        (["fit", "--input", "DATA", "--models", "Weibull"], "known models"),
        (["fit", "--input", "DATA", "--models", "RLD,ExpLD"], "exactly one model"),
        (["gof", "--input", "DATA", "--params", EXP_PARAMS, "--models", "ERLD"], "unrecognized arguments: --models"),
        # only fit, compare and sample draw random numbers
        (["gof", "--input", "DATA", "--params", EXP_PARAMS, "--seed", "1"], "unrecognized arguments: --seed"),
        (["curves", "--params", EXP_PARAMS, "--seed", "1"], "unrecognized arguments: --seed"),
        (["moments", "--params", EXP_PARAMS, "--seed", "1"], "unrecognized arguments: --seed"),
        (["fit", "--input", "DATA", "--models", " , "], "at least one model"),
        (["compare", "--input", "DATA", "--models", "RLD,rld"], "names RLD more than once"),
        (["sample", "--params", "2,1,1,0.5", "--n", "5"], "five comma-separated"),
        (["sample", "--params", "2,1,one,0.5,2", "--n", "5"], "must be numeric"),
        (["sample", "--params", "0,1,1,1,1", "--n", "5"], "finite positive"),
        (["sample", "--params", "1,1,1,1,1", "--n", "0"], "positive integer"),
        (["moments"], "required: --params"),
        (["curves", "--params", "1,1,1,1,1", "--format", "yaml"], "invalid choice"),
    ]

    @pytest.mark.parametrize("argv,fragment", CASES, ids=[" ".join(c[0][:2]) + " " + c[1] for c in CASES])
    def test_exit_code_one_with_message(self, argv, fragment, data_file, capsys):
        argv = [data_file if token == "DATA" else token for token in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "erlfit: input error" in err
        assert fragment in err

    @pytest.mark.parametrize("argv", [
        ["fit", "--input", "DATA"],
        ["compare", "--input", "DATA", "--models", "RLD"],
        ["sample", "--params", EXP_PARAMS, "--n", "5"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed(self, argv, data_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = [data_file if token == "DATA" else token for token in argv]
        assert main([*argv, "--seed", "-3", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "erlfit: input error" in err and "non-negative" in err
        assert not out.exists()

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["fit", "--input", str(tmp_path / "gone.txt")]) == 1
        assert "cannot read input file" in capsys.readouterr().err

    def test_unwritable_output_file(self, tmp_path, capsys):
        out = tmp_path / "gone" / "x.json"
        assert main(["curves", "--params", EXP_PARAMS, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"erlfit: input error: cannot write output file {str(out)!r}: ")
        assert not out.parent.exists()

    @pytest.mark.parametrize("argv,fragment", [
        (["compare"], "ExpLD: need at least 4 observations, got 3"),
        (["fit", "--models", "RLD"], "RLD: need at least 4 observations, got 3"),
    ], ids=["compare", "fit"])
    def test_too_few_observations(self, argv, fragment, tmp_path, capsys):
        data = tmp_path / "three.txt"
        data.write_text("0.5\n1.5\n2.5\n")
        out = tmp_path / "report.json"
        assert main([*argv, "--input", str(data), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"erlfit: input error: {fragment}\n"
        assert not out.exists()


@pytest.fixture(scope="module")
def fit_report(data_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-fit") / "fit.json"
    rc = main(["fit", "--input", data_file, "--models", "RLD", "--output", str(out)])
    return rc, json.loads(out.read_text())


class TestFit:
    def test_exit_zero(self, fit_report):
        assert fit_report[0] == 0

    def test_report_matches_schema(self, fit_report):
        jsonschema.validate(fit_report[1], REPORT_SCHEMA)

    def test_data_summary(self, fit_report):
        summary = fit_report[1]["data_summary"]
        assert summary["n"] == 150
        assert summary["min"] == pytest.approx(-0.9134987660186471, abs=1e-12)
        assert summary["max"] == pytest.approx(2.287473458329397, abs=1e-12)
        assert summary["skewness"] == pytest.approx(0.51954849772713, abs=1e-9)
        assert summary["kurtosis"] == pytest.approx(2.90654619562054, abs=1e-9)

    def test_model_record(self, fit_report):
        (record,) = fit_report[1]["models"]
        assert record["name"] == "RLD"
        assert record["converged"] is True
        assert record["fixed"] == {"a": 1.0, "b": 1.0}
        assert set(record["estimates"]) == {"theta", "lambda", "beta"}
        # the sample came from theta=lam=beta=1, so the fit should land nearby
        assert record["estimates"]["theta"] == pytest.approx(1.0359694, abs=1e-3)
        assert record["estimates"]["lambda"] == pytest.approx(1.0400799, abs=1e-3)
        assert record["estimates"]["beta"] == pytest.approx(0.9588412, abs=1e-3)
        assert record["nll"] == pytest.approx(143.89266, abs=1e-4)
        for err in record["se"].values():
            assert err is not None and 0.0 < err < 1.0

    def test_information_criteria_consistent(self, fit_report):
        (record,) = fit_report[1]["models"]
        k, n = 3, 150
        assert record["aic"] == pytest.approx(2.0 * record["nll"] + 2.0 * k, rel=1e-12)
        assert record["caic"] == pytest.approx(record["aic"] + 2.0 * k * (k + 1) / (n - k - 1), rel=1e-12)
        assert record["bic"] == pytest.approx(2.0 * record["nll"] + k * math.log(n), rel=1e-12)
        assert record["hqic"] == pytest.approx(2.0 * record["nll"] + 2.0 * k * math.log(math.log(n)), rel=1e-12)
        assert fit_report[1]["selected"] == "RLD"

    def test_csv_row(self, data_file, tmp_path):
        out = tmp_path / "fit.csv"
        rc = main(["fit", "--input", data_file, "--models", "RLD",
                   "--format", "csv", "--output", str(out)])
        assert rc == 0
        header, row = out.read_text().strip().splitlines()
        assert header == ("model,a,se_a,b,se_b,theta,se_theta,lambda,se_lambda,"
                          "beta,se_beta,nll,aic,caic,hqic,bic,converged,ks,ks_pvalue,cvm,ad")
        cells = row.split(",")
        assert cells[0] == "RLD"
        assert cells[16] == "true"
        # fixed parameters carry their value and a blank standard error
        assert float(cells[1]) == 1.0 and cells[2] == ""
        assert float(cells[5]) == pytest.approx(1.036, abs=5e-3)
        assert float(cells[11]) == pytest.approx(143.893, abs=5e-3)

    def test_csv_follows_the_record(self, data_file, tmp_path, monkeypatch):
        # a field added to the JSON record becomes the last CSV column
        record = cli._model_record
        monkeypatch.setattr(cli, "_model_record", lambda fit, data: {**record(fit, data), "extra": 0.125})
        out = tmp_path / "compare.csv"
        assert main(["compare", "--input", data_file, "--models", "RLD,ExpLD",
                     "--format", "csv", "--output", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert header.endswith(",converged,ks,ks_pvalue,cvm,ad,extra")
        assert len(rows) == 2
        assert all(row.split(",")[16] == "true" and row.endswith(",0.125") for row in rows)


@pytest.fixture(scope="module")
def two_runs(data_file, tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-compare")
    argv = ["compare", "--input", data_file, "--models", "RLD,ExpLD", "--seed", "5"]
    paths = [base / "one.json", base / "two.json"]
    codes = [main(argv + ["--output", str(p)]) for p in paths]
    return codes, [p.read_bytes() for p in paths]


class TestCompare:
    def test_exit_zero(self, two_runs):
        assert two_runs[0] == [0, 0]

    def test_reruns_are_byte_identical(self, two_runs):
        one, two = two_runs[1]
        assert one == two

    def test_report_shape_and_ranking(self, two_runs):
        report = json.loads(two_runs[1][0])
        jsonschema.validate(report, REPORT_SCHEMA)
        names = [m["name"] for m in report["models"]]
        assert sorted(names) == ["ExpLD", "RLD"]
        aics = [m["aic"] for m in report["models"]]
        assert aics == sorted(aics)
        assert report["selected"] == names[0]
        assert all(m["converged"] for m in report["models"])


class TestGof:
    def test_fixed_parameter_mode(self, data_file, tmp_path):
        out = tmp_path / "gof.json"
        rc = main(["gof", "--input", data_file, "--params", "1,1,1,1,1",
                   "--output", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["model"]["name"] == "fixed"
        assert report["model"]["params"] == {
            "a": 1.0, "b": 1.0, "theta": 1.0, "lambda": 1.0, "beta": 1.0,
        }
        stats = report["gof"]
        assert stats["n"] == 150
        assert stats["ks"] == pytest.approx(0.04467271002621398, abs=1e-9)
        assert stats["ks_pvalue"] == pytest.approx(0.9256731871708158, abs=1e-9)
        assert stats["cvm"] == pytest.approx(0.052146644035807106, abs=1e-9)
        assert stats["ad"] == pytest.approx(0.3697592998847483, abs=1e-9)

    def test_fitted_mode_uses_named_model(self, fit_report, data_file, tmp_path):
        # fit --models RLD carries the EDF statistics of its estimate,
        # bitwise those of gof --params at the printed estimates
        (record,) = fit_report[1]["models"]
        assert record["ks"] < 0.08
        values = {**record["fixed"], **record["estimates"]}
        params = ",".join(repr(values[label]) for label in PARAM_LABELS.values())
        out = tmp_path / "gof_fit.json"
        assert main(["gof", "--input", data_file, "--params", params, "--output", str(out)]) == 0
        stats = json.loads(out.read_text())["gof"]
        for key in ("ks", "ks_pvalue", "cvm", "ad"):
            assert record[key] == stats[key], key


def _mp_edf_statistics(x, params):
    """KS, CvM and AD of the law at params against the sorted x, from an
    mpmath cdf at 40 digits: I_K(a, b) below K = 1/2, else one minus
    I_{e^-T}(b, a), with the survival kept apart so that ln(1 - F) keeps
    its digits where F is near 1."""
    a, b, theta, lam, beta = (mpmath.mpf(v) for v in params)
    cdf, sf = [], []
    with mpmath.workdps(40):
        for xi in x:
            t = beta / 2 * ((theta + mpmath.mpf(xi)) / theta) ** (2 * lam)
            big_k = -mpmath.expm1(-t)
            if big_k <= 0.5:
                cdf.append(mpmath.betainc(a, b, 0, big_k, regularized=True))
                sf.append(1 - cdf[-1])
            else:
                sf.append(mpmath.betainc(b, a, 0, mpmath.exp(-t), regularized=True))
                cdf.append(1 - sf[-1])
        n = len(x)
        ks = max(max(mpmath.mpf(i + 1) / n - f, f - mpmath.mpf(i) / n) for i, f in enumerate(cdf))
        cvm = mpmath.mpf(1) / (12 * n) + mpmath.fsum(
            (f - mpmath.mpf(2 * i + 1) / (2 * n)) ** 2 for i, f in enumerate(cdf))
        ad = -n - mpmath.fsum((2 * i + 1) * (mpmath.log(cdf[i]) + mpmath.log(sf[n - 1 - i]))
                              for i in range(n)) / n
        return {"ks": float(ks), "cvm": float(cvm), "ad": float(ad)}


class TestCompareEdfOracle:
    """Each compare record's KS, CvM and AD against an mpmath cdf.

    The estimates of ERLD (at the search-box edge) and of LRLD (on its
    ridge) put T up to about 3,700 at the largest value, where e^-T is
    not a double; the oracle forms it in mpmath, so it does not share
    the deep-tail branch of erlfit's cdf."""

    def test_records_against_mpmath(self, tmp_path):
        out = tmp_path / "compare.json"
        assert main(["compare", "--input", synthetic_path(), "--seed", "0", "--output", str(out)]) == 0
        records = json.loads(out.read_text())["models"]
        assert len(records) == 7
        x = ingest(synthetic_path()).values
        for record in records:
            values = {**record["fixed"], **record["estimates"]}
            params = [values[label] for label in PARAM_LABELS.values()]
            for key, expected in _mp_edf_statistics(x, params).items():
                assert record[key] == pytest.approx(expected, rel=1e-10), (record["name"], key)


class TestEdfPass:
    """Each EDF block evaluates its law once."""

    def test_gof_report_calls_the_cdf_once(self):
        calls = []

        def cdf(x):
            calls.append(x.size)
            return np.clip(x, 0.0, 1.0)

        d = Dataset(np.random.default_rng(43).uniform(0.05, 0.95, size=40))
        rep = gof_report(d, cdf)
        assert calls == [40]
        assert rep.ks_pvalue == ks_pvalue(rep.ks, 40)

    def test_gof_report_warns_on_the_ad_clamp(self):
        # the law puts the observed point 0 at probability 0
        with pytest.warns(RuntimeWarning, match="^gof_report: .* clamped$"):
            rep = gof_report(Dataset(np.array([0.0, 0.5])), lambda x: np.clip(x, 0.0, 1.0))
        assert math.isfinite(rep.ad)

    def test_compare_evaluates_each_fitted_law_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(x, params):
            calls.append(params)
            return erl_cdf(x, params)

        monkeypatch.setattr(cli, "erl_cdf", counted)
        out = tmp_path / "compare.json"
        assert main(["compare", "--input", synthetic_path(), "--seed", "0", "--output", str(out)]) == 0
        assert len(calls) == 7


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats adds about 20 MB of resident memory and 0.6 s to every run
    code = "import sys, erlfit.cli; print('scipy.stats' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0 and done.stdout.split() == ["False"], done.stderr


class TestSample:
    def run(self, tmp_path, name, seed, fmt="json", n="60"):
        out = tmp_path / name
        rc = main(["sample", "--params", POWER_PARAMS, "--n", n,
                   "--seed", seed, "--format", fmt, "--output", str(out)])
        return rc, out

    def test_reproducible_per_seed(self, tmp_path):
        rc1, one = self.run(tmp_path, "a.json", "42")
        rc2, two = self.run(tmp_path, "b.json", "42")
        rc3, other = self.run(tmp_path, "c.json", "43")
        assert (rc1, rc2, rc3) == (0, 0, 0)
        assert one.read_bytes() == two.read_bytes()
        assert one.read_bytes() != other.read_bytes()

    def test_report_contents(self, tmp_path):
        _, out = self.run(tmp_path, "s.json", "3")
        report = json.loads(out.read_text())
        assert report["seed"] == 3 and report["n"] == 60
        values = np.asarray(report["values"])
        assert values.shape == (60,)
        assert np.all(values > -1.0)  # support starts at -theta

    def test_csv_is_full_precision(self, tmp_path):
        _, jpath = self.run(tmp_path, "s.json", "3")
        _, cpath = self.run(tmp_path, "s.csv", "3", fmt="csv")
        from_json = json.loads(jpath.read_text())["values"]
        from_csv = [float(line) for line in cpath.read_text().split()]
        assert from_csv == from_json

    def test_non_finite_draws_are_null_and_na(self, tmp_path):
        # at lambda = 0.001 the quantile overflows to inf at draws 2 and 4
        def run(fmt):
            out = tmp_path / f"inf.{fmt}"
            assert main(["sample", "--params", "1,1,1,0.001,1", "--n", "5", "--seed", "1",
                         "--format", fmt, "--output", str(out)]) == 0
            return out.read_text()

        from_json = json.loads(run("json"))["values"]
        lines = run("csv").splitlines()
        assert [v is None for v in from_json] == [False, True, False, True, False]
        assert [line == "NA" for line in lines] == [v is None for v in from_json]
        assert [float(line) for line in lines if line != "NA"] == [v for v in from_json if v is not None]

    def test_closed_standard_output_exits_1(self):
        # as in `erlfit sample ... | head -1`: 100,000 draws overfill the
        # pipe, so the reader closes it while erlfit is still writing
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "erlfit.cli", "sample", "--params", POWER_PARAMS,
             "--n", "100000", "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        float(proc.stdout.readline())
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert "cannot write standard output" in err
        assert "Traceback" not in err and "Exception ignored" not in err


@pytest.fixture(scope="module")
def curves_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-curves") / "curves.json"
    rc = main(["curves", "--params", EXP_PARAMS, "--output", str(out)])
    assert rc == 0
    return json.loads(out.read_text())


class TestCurves:
    def test_grid_spans_the_central_mass(self, curves_report):
        report = curves_report
        x = np.asarray(report["x"])
        assert x.shape == (512,)
        assert np.all(np.diff(x) > 0)
        assert report["cdf"][0] == pytest.approx(0.001, abs=1e-9)
        assert report["cdf"][-1] == pytest.approx(0.999, abs=1e-9)

    def test_columns_are_consistent(self, curves_report):
        report = curves_report
        cdf = np.asarray(report["cdf"])
        surv = np.asarray(report["survival"])
        pdf = np.asarray(report["pdf"])
        hazard = np.asarray(report["hazard"])
        np.testing.assert_allclose(cdf + surv, 1.0, atol=1e-12)
        np.testing.assert_allclose(hazard, pdf / surv, rtol=1e-12)
        # this parameter point is the unit-rate shifted exponential
        np.testing.assert_allclose(hazard, 1.0, atol=1e-9)

    def test_csv_table(self, curves_report, tmp_path):
        out = tmp_path / "curves.csv"
        assert main(["curves", "--params", EXP_PARAMS, "--format", "csv",
                     "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,pdf,cdf,survival,hazard"
        # the columns are the report's list-valued keys, in order
        columns = [key for key, value in curves_report.items() if isinstance(value, list)]
        assert lines[0].split(",") == columns
        assert len(lines) == 513
        cells = lines[256].split(",")
        assert len(cells) == 5
        assert float(cells[4]) == pytest.approx(1.0, abs=1e-5)

    def test_quantiles_beyond_the_doubles_stay_quiet(self, tmp_path, capsys):
        # at lam = 0.0017 most grid quantiles exceed the doubles; pytest
        # records warnings instead of printing them, so raise them here
        out = tmp_path / "curves.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["curves", "--params", "0.98438,0.047210,1.0,0.0016740,0.026589",
                         "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""


class TestMoments:
    def test_json_report(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["moments", "--params", POWER_PARAMS, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["mean"] == pytest.approx(0.5, abs=1e-8)
        assert report["raw"]["1"] == pytest.approx(0.5, abs=1e-8)
        assert report["variance"] > 0.0

    def test_exponential_shape_summaries(self, tmp_path):
        out = tmp_path / "e.json"
        assert main(["moments", "--params", EXP_PARAMS, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["mean"] == pytest.approx(0.0, abs=1e-8)
        assert report["variance"] == pytest.approx(1.0, abs=1e-8)
        assert report["skewness"] == pytest.approx(2.0, abs=1e-6)
        assert report["kurtosis_excess"] == pytest.approx(6.0, abs=1e-6)

    def test_csv_pairs(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["moments", "--params", POWER_PARAMS, "--format", "csv",
                     "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "quantity,value"
        table = dict(line.split(",", 1) for line in lines[1:])
        assert float(table["mean"]) == pytest.approx(0.5, abs=1e-5)
        assert float(table["raw.1"]) == pytest.approx(0.5, abs=1e-5)

    def test_untrustworthy_moment_exits_three(self, capsys):
        assert main(["moments", "--params", "1,1,1,0.002,1"]) == 3
        err = capsys.readouterr().err
        assert "erlfit: numerical error" in err
        assert "integrand overflows a double" in err

    def test_even_moment_of_zero_exits_three(self, capsys):
        # LRLD at b = 1e6, where the quadrature sums E[X^2] to 0.0
        assert main(["moments", "--params", "1,1e6,0.0249999977,0.1130861,2.7238121e-6"]) == 3
        assert "raw moment r=2: quadrature gave 0.0" in capsys.readouterr().err

    def test_bundled_law(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["moments", "--params", "0.801,5.5,0.025,0.113,0.501",
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["mean"] == pytest.approx(0.164735, rel=1e-5)

    def test_stdout_when_no_output_given(self, capsys):
        assert main(["moments", "--params", POWER_PARAMS]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mean"] == pytest.approx(0.5, abs=1e-8)


class TestConvergenceFailure:
    def test_exit_two_and_report_still_written(self, data_file, tmp_path, monkeypatch):
        sham_params = ErlParams(1.0, 1.0, 1.0, 1.0, 1.0)

        def never_converges(specs, data, cfg):
            return [FitResult(spec=spec, params=sham_params, nll=150.0,
                              n=data.n, k=spec.free_count, converged=False)
                    for spec in specs]

        monkeypatch.setattr("erlfit.cli.fit_ladder", never_converges)
        out = tmp_path / "fit.json"
        rc = main(["fit", "--input", data_file, "--models", "RLD",
                   "--output", str(out)])
        assert rc == 2
        report = json.loads(out.read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        (record,) = report["models"]
        assert record["converged"] is False
        assert all(err is None for err in record["se"].values())


def _sanitize(obj):
    """Replace non-finite floats with None so the JSON stays strict."""
    if isinstance(obj, dict):
        return {key: _sanitize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(item) for item in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def reference_json(obj) -> str:
    """The JSON reports as json.dumps lays them out."""
    return json.dumps(_sanitize(obj), indent=2, allow_nan=False)


def written_json(obj) -> str:
    return "".join(cli._json_chunks(obj))


LEAVES = st.one_of(
    st.floats(), st.just(-0.0), st.integers(), st.booleans(), st.none(),
    st.text(alphabet=st.sampled_from('a"\\/\n\t\x00\u00e9\u2603\U0001f600')),
)
NESTED = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.lists(st.floats(), max_size=6),
        st.dictionaries(st.text(max_size=4), children, max_size=6),
    ),
    max_leaves=40,
)


class TestJsonWriter:
    """cli._json_chunks against json.dumps of the sanitized report."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(NESTED)
    def test_matches_json_dumps(self, obj):
        assert written_json(obj) == reference_json(obj)

    @pytest.mark.parametrize("obj", [{}, [], (), {"a": []}, {"a": {}, "b": ()}, [[], {}], [{}]],
                             ids=repr)
    def test_empty_containers(self, obj):
        assert written_json(obj) == reference_json(obj)

    def test_blocks_with_non_finite_values(self):
        values = np.linspace(-1.0, 1.0, 2 * cli._BLOCK + 1).tolist()
        values[cli._BLOCK + 7] = math.nan
        values[cli._BLOCK + 8] = -math.inf
        report = {"values": values, "nested": [values[: cli._BLOCK + 9]]}
        text = written_json(report)
        assert text == reference_json(report)
        assert json.loads(text)["values"][cli._BLOCK + 7 : cli._BLOCK + 9] == [None, None]

    def test_float_subclasses_keep_their_repr(self):
        report = {"x": [np.float64(0.1), 2.5, np.float64(math.inf)], "y": np.float64(1e-300)}
        assert written_json(report) == reference_json(report)

    COMMANDS = [
        ["compare", "--input", "DATA", "--models", "RLD,ExpLD", "--seed", "5"],
        ["gof", "--input", "DATA", "--params", "1,1,1,1,1"],
        ["sample", "--params", POWER_PARAMS, "--n", str(2 * cli._BLOCK + 3), "--seed", "3"],
        ["curves", "--params", EXP_PARAMS],
        ["moments", "--params", POWER_PARAMS],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=[c[0] for c in COMMANDS])
    def test_every_command_report(self, argv, data_file, tmp_path):
        argv = [data_file if token == "DATA" else token for token in argv]
        report, _ = cli._dispatch(cli.build_parser().parse_args(argv))
        out = tmp_path / "report.json"
        assert main([*argv, "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == reference_json(report) + "\n"
