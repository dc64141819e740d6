"""CLI surface: parsing, exit codes, CSV schemas, determinism."""

import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

import pauli_tsallis.cli as cli
from pauli_tsallis import bound_set
from pauli_tsallis.cli import main

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

BAD_ALPHAS = ["0", "-1", "abc", "inf", "-inf", "1e400", "nan"]

# Frozen stdout digests.  The CLI's output is byte-deterministic and these
# bytes are its contract: a refactor that moves any of them is a regression.
# The verify orders cover the pow, Shannon and expm1 kernel branches and both
# regimes (proven and interpolated); eval at bloch:0,0,1 has a deterministic
# pair, whose entropy must print as 0, not -0.
PINNED_VERIFY = "61a9caf2a256c88560d66daadd9af9076995d825e4260182aea66bcfb25c5c76"
# `verify 4,5,7,10 --grid 201`: integer orders whose p^n comes from repeated
# squaring; the digest was taken with numpy's pow at every order.
PINNED_INTEGER_ORDERS = "9f53c896f517f37722516fe22607f8ccc37ca5f74ea6806e91dfef9c4d08489f"
# `verify 0.5,1,1.005,2.5,4 --grid 801`: the smallest pruned square grid, so
# every scan of D runs the tile bounds and their refinement on the sphere,
# cut at their own extrema; each order skips most tiles.
PINNED_PRUNED = "d5e95283c539584104ea641ea0a979eaef5a7b79258791eaa92ba8a4daabbeab"
# `verify 1.5,2.5,2.98,3.2,3.9 --grid 2001`: orders whose tile bounds the
# sphere refinement decides, G concave (1.5, 3.2, 3.9) and convex (2.5, 2.98);
# the digest was taken before that refinement, when they kept 63-100% of D.
PINNED_SPHERE = "4eb5fc835374e872d86162e65f19b5a537a06c7777f2dd793efe9e403f917983"
# `verify 0.5,2.5 --grid g` at small, odd and even grids, whose full-domain
# check unfolds a D grid of min(g // 2 + 1, 251) points per axis.
PINNED_FULL_DOMAIN = {
    "2": "15b89e5eb1c25163afecaac880eb58a5ef4f19c10b15124375c919124470d240",
    "3": "094dcfeb8da01b3e0d2f4a6e9614fdcb81712875cc37c70f96f6a0be92a28b50",
    "42": "0a50130dc3f6a2cfbf84a6423947118c656b63577f6e837ad358c39b9fcf1b5c",
    "101": "3634b5d81466005359b249b55e61fc733ad64a9ff82be71abd6df663763967d0",
}
PINNED_TEXT = {
    "bounds 0.5": "66b9a3164ea114ae0bce208c5509b9b7dadfd41310371d9291f8f03e9a1ba15f",
    "eval bloch:0,0,1 --alpha 0.5": "6df2ec54952857110eb5f5c2dfb4e8eaaa465dd362d63c6c33f812cc57d56840",
    "eval angles:0.3,1.1 --alpha 0.5": "5c9495d16641a2d12db6e696991102a01a4c4b4c10aac6fff78155c787c35d92",
    "bounds 1": "51138d445f9d66ce8980cdcfdbb01cbb850887ba16394362bf878b1badfe0caf",
    "eval bloch:0,0,1 --alpha 1": "5cd05e4e59d0115f45b0a58730584d167c88448373c5eda1d7eea6a012098ccd",
    "eval angles:0.3,1.1 --alpha 1": "d2a29e8559ae7b2c8ae3808fd120240bc764e101e9201871b29f46883980fa70",
    "bounds 2": "a9e6538fc749ba5e1a0c38269c7b1be27624944f8757a377107dccd7d8be2a8e",
    "eval bloch:0,0,1 --alpha 2": "bd953e73a194d2e8076ca9449502c8b74b572724fe1155f2f51ab7400397c630",
    "eval angles:0.3,1.1 --alpha 2": "729073eb55c4d578921ed96f9fc0c1106be6dc4deebf4fdec5dc6f4c0c2081ec",
    "bounds 2.5": "448eabcf0e2fb2f29a93237c677b77bf699523391358faa47d09c7f8660f2430",
    "eval bloch:0,0,1 --alpha 2.5": "839c9feb53ea67de043d3a047d801cdd0075cb97e3527ded8734ec28da0d7c0d",
    "eval angles:0.3,1.1 --alpha 2.5": "b2f9ebef85c7711906a08c05160385e6b4c3a1ab34cfad6650d01e756e96ba9c",
    "bounds 3": "ba1e96f2f462ac28c6935cbbd8ee9d20e1deb95fbd6f4d326b3697b4d9161424",
    "eval bloch:0,0,1 --alpha 3": "a04ac3f2f79cb393597d79628fea2d768925be4fecbedcba082a751842f797ef",
    "eval angles:0.3,1.1 --alpha 3": "c09d97d30d4f2ae27886aa20244954f3f4ae429702f15db761d0c5307fb499fa",
    "bounds 4": "bf8104d57b465e2e609e6c20cf4b85b387d126bbb1a890270ae1dd3323f9e350",
    "eval bloch:0,0,1 --alpha 4": "1143ea7209a17a3d5e6797c5d4a82272565f4baf24a67c5f5543df2a1c2eab1c",
    "eval angles:0.3,1.1 --alpha 4": "9f811154a49cca233204aec7b84a95748af9c095b741b5767017dfbeec5027d5",
}

# `bounds alpha --out path`: digests of the CSV file.  Its upper_pure_is_tight
# column is derived from upper_pure (true where it is given) and must print
# false at 2.5.
PINNED_BOUNDS_CSV = {
    "0.5": "a121011e810469aa465061903b51fe9bcd68777b9d985df34f8d2be3a2414a19",
    "1": "5bf25848dbe51a5d7b09a9656ac1a8b0ae25a8e929c7100e4db20313754b086b",
    "2": "8f49d6490fc766b5711280db819690f9d4ffcf90cd00fae96087b7c1d3cd6e1b",
    "2.5": "12e6013d2e120333278441e05eca63d97cc977bc0b5133033f70a90ed8fa77b7",
    "4": "53a827d0e0438dc98f53dbb103c27ac4ad7e8d1277c20b69d59c532b37c5ce66",
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_lower_bound_attained_flag(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "bloch:0,0,1", "--alpha", "1")
        assert code == 0
        assert "sum: 1.38629436112" in out
        assert "lower bound attained" in out

    def test_mixed_maximum_flag(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "bloch:0,0,0", "--alpha", "2")
        assert code == 0
        assert "sum: 1.5" in out
        assert "mixed-state maximum attained" in out

    def test_pure_maximum_flag(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "angles:0.4777,0.7854", "--alpha", "0.5")
        assert code == 0
        assert "pure-state maximum attained (within tolerance)" in out

    def test_probability_lines(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "bloch:0.6,0,0.8", "--alpha", "2")
        assert code == 0
        assert "p(x): 0.8, 0.2" in out
        assert "p(y): 0.5, 0.5" in out
        assert "p(z): 0.9, 0.1" in out

    @pytest.mark.parametrize(
        "state", ["nonsense", "angles:1", "angles:1,2,3", "bloch:1,2", "polar:1,2,3", "bloch:a,b,c"]
    )
    def test_malformed_state_is_usage_error(self, capsys, state):
        code, _, err = run_cli(capsys, "eval", state, "--alpha", "1")
        assert code == 2
        assert err

    def test_invariant_violation_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "bloch:1.5,0,0", "--alpha", "1")
        assert code == 3
        assert err

    def test_angles_out_of_range_is_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "angles:3.0,0", "--alpha", "1")
        assert code == 3

    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_bad_alpha_is_usage_error(self, capsys, alpha):
        code, out, err = run_cli(capsys, "eval", "bloch:0,0,1", f"--alpha={alpha}")
        assert code == 2
        assert out == "" and err


class TestBounds:
    def test_tight_integer_order(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "4")
        assert code == 0
        assert "lower: 0.583333333333 (tight)" in out
        assert "r_alpha: 0.698412698413" in out

    def test_shannon(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "1")
        assert code == 0
        assert "lower: 1.38629436112 (tight)" in out
        assert "h_tilde: 0.515706736464" in out

    def test_noninteger_reports_empirical_only(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "2.5")
        assert code == 0
        assert "lower: 0.833333333333 (not tight)" in out
        assert "upper_pure: empirical only" in out

    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_bad_alpha_is_usage_error(self, capsys, alpha):
        code, _, _ = run_cli(capsys, "bounds", alpha)
        assert code == 2
        # after "--" even "-inf" reaches the order validator
        code, out, err = run_cli(capsys, "bounds", "--", alpha)
        assert code == 2
        assert out == "" and "alpha must be a finite positive number" in err

    def test_csv_output(self, capsys, tmp_path):
        out_path = tmp_path / "bounds.csv"
        code, _, _ = run_cli(capsys, "bounds", "4", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("alpha,lower,")
        assert lines[1].startswith("4,0.583333333333,true,")

    @pytest.mark.parametrize("alpha", list(PINNED_BOUNDS_CSV))
    def test_pinned_csv_output(self, capsys, tmp_path, alpha):
        out_path = tmp_path / "bounds.csv"
        code, _, _ = run_cli(capsys, "bounds", alpha, "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert sha256(text) == PINNED_BOUNDS_CSV[alpha], text
        header, row = (line.split(",") for line in text.splitlines())
        tight = row[header.index("upper_pure_is_tight")]
        assert tight == ("false" if alpha == "2.5" else "true")


class TestBand:
    def test_schema_and_endpoints(self, capsys, tmp_path):
        out_path = tmp_path / "band.csv"
        code, _, _ = run_cli(
            capsys, "band", "--alpha-min", "0.01", "--alpha-max", "1.0", "--steps", "100",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "alpha,band_low,band_high"
        assert len(lines) == 101
        rows = [line.split(",") for line in lines[1:]]
        highs = [float(row[2]) for row in rows]
        assert all(row[1] == "0.666666666667" for row in rows)
        assert abs(highs[0] - 1.0) <= 0.01
        assert highs[-1] == pytest.approx(0.744, abs=5e-4)
        assert all(b < a for a, b in zip(highs, highs[1:]))
        assert all(2.0 / 3.0 - 1e-12 <= h <= 1.0 for h in highs)

    def test_byte_deterministic(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run_cli(capsys, "band", "--alpha-min", "0.1", "--alpha-max", "1.0",
                    "--steps", "10", "--out", str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert b"\r" not in paths[0].read_bytes()

    def test_matches_bounds_at_shannon_order(self, capsys):
        code, out, _ = run_cli(capsys, "band", "--alpha-min", "0.5", "--alpha-max", "1.0",
                               "--steps", "2")
        assert code == 0
        last = out.strip().splitlines()[-1].split(",")
        code, bounds_out, _ = run_cli(capsys, "bounds", "1")
        r_line = [line for line in bounds_out.splitlines() if line.startswith("r_alpha:")][0]
        assert last[2] == r_line.split()[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--alpha-min", "0.5", "--alpha-max", "0.2", "--steps", "10"],
            ["--alpha-min", "0", "--alpha-max", "1", "--steps", "10"],
            ["--alpha-min", "0.1", "--alpha-max", "1", "--steps", "1"],
            ["--alpha-min", "0.5", "--alpha-max", "2.0", "--steps", "10"],
            # non-finite orders go through the same validator as every other alpha
            ["--alpha-min", "0.5", "--alpha-max", "inf", "--steps", "3"],
            ["--alpha-min", "0.5", "--alpha-max", "1e400", "--steps", "3"],
            ["--alpha-min", "0.5", "--alpha-max", "nan", "--steps", "3"],
        ],
    )
    def test_invalid_ranges_are_usage_errors(self, capsys, argv):
        code, out, _ = run_cli(capsys, "band", *argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("steps", ["1000002", str(10**12)])
    def test_oversized_steps_is_usage_error(self, capsys, monkeypatch, steps):
        # only the rejection path runs: the order grid is never allocated
        def no_linspace(*args, **kwargs):
            raise AssertionError("band built its order grid")

        monkeypatch.setattr(cli, "np", SimpleNamespace(linspace=no_linspace))
        code, out, err = run_cli(capsys, "band", "--alpha-min", "0.5", "--alpha-max", "1", "--steps", steps)
        assert code == 2
        assert out == "" and "at most 1000001" in err


class TestRtable:
    def test_reference_rows(self, capsys, tmp_path):
        out_path = tmp_path / "rtable.csv"
        code, _, _ = run_cli(capsys, "rtable", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "alpha,r_alpha"
        table = {row.split(",")[0]: row.split(",")[1] for row in lines[1:]}
        assert set(table) == {"1"} | {str(n) for n in range(2, 11)}
        assert table["2"] == "0.666666666667"
        assert table["3"] == "0.666666666667"
        assert float(table["5"]) == pytest.approx(0.741, abs=5e-4)
        assert float(table["9"]) == pytest.approx(0.885, abs=5e-4)

    def test_unwritable_path_is_io_error(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "rtable.csv"
        code, _, err = run_cli(capsys, "rtable", "--out", str(target))
        assert code == 4
        assert err


class TestVerify:
    def test_small_grid_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "0.5,2,2.5", "--grid", "101", "--seed", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "check,alpha,status,observed,expected,tolerance"
        assert all(len(line.split(",")) == 6 for line in lines)
        statuses = {line.split(",")[2] for line in lines[1:]}
        assert statuses <= {"pass", "skip"}
        # the non-tight order must be skipped, not failed, on tightness checks
        assert "lower_tight,2.5,skip" in out

    def test_missing_alphas_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--grid", "101")
        assert code == 2
        # a list that parses to no order would otherwise pass having checked nothing
        for alphas in (",", ",,", ""):
            code, out, err = run_cli(capsys, "verify", alphas, "--grid", "101")
            assert code == 2, alphas
            assert out == "" and "no order given" in err, alphas

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "0.5", "--grid", "3", "--seed", "-1")
        assert code == 2
        assert out == "" and "--seed" in err

    @pytest.mark.parametrize("grid", list(PINNED_FULL_DOMAIN))
    def test_full_domain_passes_on_small_and_even_grids(self, capsys, grid):
        # the full-domain check unfolds a D grid of grid // 2 + 1 points per axis
        code, out, _ = run_cli(capsys, "verify", "0.5,2.5", "--grid", grid)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines() if line.startswith("full_domain,")]
        assert len(rows) == 2 and all(row[2] == "pass" for row in rows)
        assert sha256(out) == PINNED_FULL_DOMAIN[grid], out

    def test_bad_grid_is_usage_error(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "1", "--grid", "1")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("grid", ["1000002", str(10**12)])
    def test_oversized_grid_is_usage_error(self, capsys, grid):
        # rejected before any grid is built or row printed
        code, out, err = run_cli(capsys, "verify", "1", "--grid", grid)
        assert code == 2
        assert out == "" and "at most 1000001" in err

    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_bad_alpha_is_usage_error(self, capsys, alpha):
        # rejected before any row is printed, even after a valid order
        code, out, err = run_cli(capsys, "verify", f"0.5,{alpha}", "--grid", "3")
        assert code == 2
        assert out == "" and err

    def test_kernel_monotonic_passes_near_shannon(self, capsys):
        # f must be accurate enough near alpha = 1 to show its strict increase
        code, out, _ = run_cli(capsys, "verify", "0.9999999,0.999999999999", "--grid", "3")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines() if line.startswith("kernel_monotonic,")]
        assert [row[1:3] for row in rows] == [["0.9999999", "pass"], ["0.999999999999", "pass"]]

    def test_proven_range_rows_follow_bound_set(self, capsys):
        # the four proven-range rows skip exactly where bound_set has no
        # upper_pure; at 1.0000000000001 (integral within INTEGER_TOL, but
        # above 1) kernel_monotonic must not run g_1 = 0 and print a pass
        orders = ["0.5", "1", "1.0000000000001", "1.9999999999999", "2", "2.5", "4", "7.5"]
        code, out, _ = run_cli(capsys, "verify", ",".join(orders), "--grid", "21")
        assert code == 0
        # 12 digits print 1.0000000000001 as 1: rows are grouped by position, seven per order
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 7 * len(orders)
        for k, text in enumerate(orders):
            status = {row[0]: row[2] for row in rows[7 * k : 7 * k + 7]}
            unproven = bound_set(float(text)).upper_pure is None
            for check in ("lower_tight", "upper_pure", "equality_conditions", "kernel_monotonic"):
                assert (status[check] == "skip") == unproven, (check, text)
        assert rows[7 * 2 + 4][:3] == ["kernel_monotonic", "1", "skip"]

    @pytest.mark.parametrize("alpha", ["1027", "2000", "1e5", "1e16", "1e300"])
    def test_order_beyond_float_range_is_domain_error(self, capsys, alpha):
        # g_alpha beyond the float range is a domain error, not a failed check
        code, out, err = run_cli(capsys, "verify", alpha, "--grid", "3")
        assert code == 3
        assert out == "" and f"alpha={float(alpha)!r}" in err

    @pytest.mark.parametrize("alpha,message", [
        ("1026", "kernel_g at alpha=1026.0 exceeds the float range at u=0.9987001299870013"),
        ("1027", "kernel_g at alpha=1027.0 exceeds the float range at u=0.9973002699730027"),
        ("2000", "kernel_g at alpha=2000.0: a coefficient 2 C(alpha-1, 2k+1) exceeds the float range"),
    ])
    def test_g_beyond_float_range_message(self, capsys, alpha, message):
        # the one-pass g check names the same first u as the scalar loop did, and warns nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "verify", alpha, "--grid", "3")
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_certification_and_concavity_run_once(self, capsys, monkeypatch):
        # one certification batch for the proven orders (1.005 and 2.5 are not),
        # and one concavity check per order range [1, max(2, alpha)]: 0.5, 1,
        # 1.005 and 2 all ask for [1, 2]; the rows are those of the pinned run
        real_certify, real_concavity = cli.certify_orders, cli.check_alpha_concavity
        certified, ranges = [], []

        def certify(alphas, **kwargs):
            certified.append(list(alphas))
            return real_certify(alphas, **kwargs)

        def concavity(state, low, high, n_points):
            ranges.append((low, high))
            return real_concavity(state, low, high, n_points)

        monkeypatch.setattr(cli, "certify_orders", certify)
        monkeypatch.setattr(cli, "check_alpha_concavity", concavity)
        code, out, _ = run_cli(capsys, "verify", "0.5,1,1.005,2,2.5,4", "--grid", "201")
        assert code == 0
        assert sha256(out) == PINNED_VERIFY, out
        assert certified == [[0.5, 1.0, 2.0, 4.0]]
        assert ranges == [(1.0, 2.0), (1.0, 2.5), (1.0, 4.0)]

    def test_pinned_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "0.5,1,1.005,2,2.5,4", "--grid", "201")
        assert code == 0
        assert sha256(out) == PINNED_VERIFY, out

    def test_pinned_integer_orders(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "4,5,7,10", "--grid", "201")
        assert code == 0
        assert sha256(out) == PINNED_INTEGER_ORDERS, out

    def test_pinned_pruned_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "0.5,1,1.005,2.5,4", "--grid", "801")
        assert code == 0
        statuses = [row.split(",")[2] for row in out.splitlines()[1:]]
        assert (statuses.count("pass"), statuses.count("skip"), len(statuses)) == (27, 8, 35)
        assert sha256(out) == PINNED_PRUNED, out

    def test_pinned_sphere_bound_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "1.5,2.5,2.98,3.2,3.9", "--grid", "2001")
        assert code == 0
        assert sha256(out) == PINNED_SPHERE, out


@pytest.mark.parametrize("argv", ["bounds 2 --alpha 4", "verify 0.5 --alpha 4 --grid 3"])
def test_alpha_option_is_rejected(capsys, argv):
    # orders are positional only; an --alpha beside them must not be ignored quietly
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "command,line",
    [
        ("verify", "  --grid GRID  D-grid points per axis, 2 to 1000001 (default 2001)\n"),
        ("band", "  --steps STEPS         number of orders, 2 to 1000001\n"),
    ],
)
def test_help_reads_library_limits(capsys, monkeypatch, command, line):
    # the numbers come from GridSpec.MAX_POINTS and DEFAULT_GRID; the text is unchanged
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    assert line in out


@pytest.mark.parametrize("argv", list(PINNED_TEXT))
def test_pinned_bounds_and_eval_text(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert sha256(out) == PINNED_TEXT[argv], out


def test_module_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "pauli_tsallis", "bounds", "2"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert "lower: 1 (tight)" in result.stdout
