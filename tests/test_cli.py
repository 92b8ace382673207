"""End-to-end tests for the command line interface.

Every test drives erlfit.cli.main in process with an explicit argv and
checks the exit code, the emitted file, and the report contents.
Exit codes: 0 success, 1 bad input, 2 fit did not converge, 3 the
numerics refused to produce a trustworthy answer.
"""

import json
import math
import warnings

import jsonschema
import numpy as np
import pytest

from erlfit.baseline import BaselineParams
from erlfit.cli import REPORT_SCHEMA, ingest, main
from erlfit.core import ErlParams, erl_sample
from erlfit.errors import InputError
from erlfit.estimation import FitResult

# a=b=1 with baseline (1, 0.5, 2) collapses to a unit-rate shifted
# exponential; a=2 squares its cdf and halves the mean to 1/2
EXP_PARAMS = "1,1,1,0.5,2"
POWER_PARAMS = "2,1,1,0.5,2"


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    draws = erl_sample(150, ErlParams(1.0, 1.0, BaselineParams(1.0, 1.0, 1.0)), seed=7)
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
        (["fit", "--input", "DATA", "--models", " , "], "at least one model"),
        (["sample", "--params", "2,1,1,0.5", "--n", "5"], "five comma-separated"),
        (["sample", "--params", "2,1,one,0.5,2", "--n", "5"], "must be numeric"),
        (["sample", "--params", "0,1,1,1,1", "--n", "5"], "finite positive"),
        (["sample", "--params", "1,1,1,1,1", "--n", "0"], "positive integer"),
        (["moments"], "requires --params"),
        (["curves", "--params", "1,1,1,1,1", "--format", "yaml"], "invalid choice"),
    ]

    @pytest.mark.parametrize("argv,fragment", CASES, ids=[" ".join(c[0][:2]) + " " + c[1] for c in CASES])
    def test_exit_code_one_with_message(self, argv, fragment, data_file, capsys):
        argv = [data_file if token == "DATA" else token for token in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "erlfit: input error" in err
        assert fragment in err

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["fit", "--input", str(tmp_path / "gone.txt")]) == 1
        assert "cannot read input file" in capsys.readouterr().err


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
                          "beta,se_beta,nll,aic,caic,hqic,bic,converged")
        cells = row.split(",")
        assert cells[0] == "RLD"
        assert cells[-1] == "true"
        # fixed parameters carry their value and a blank standard error
        assert float(cells[1]) == 1.0 and cells[2] == ""
        assert float(cells[5]) == pytest.approx(1.036, abs=5e-3)
        assert float(cells[11]) == pytest.approx(143.893, abs=5e-3)


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

    def test_fitted_mode_uses_named_model(self, data_file, tmp_path):
        out = tmp_path / "gof_fit.json"
        rc = main(["gof", "--input", data_file, "--models", "RLD",
                   "--output", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["model"]["name"] == "RLD"
        assert report["model"]["nll"] == pytest.approx(143.89266, abs=1e-4)
        # the fitted curve should sit closer to the sample than the
        # fixed (if close) truth does
        assert report["gof"]["ks"] < 0.08


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

    def test_csv_table(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert main(["curves", "--params", EXP_PARAMS, "--format", "csv",
                     "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,pdf,cdf,survival,hazard"
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
        sham_params = ErlParams(1.0, 1.0, BaselineParams(1.0, 1.0, 1.0))

        def never_converges(specs, data, cfg, extra_starts=None):
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
