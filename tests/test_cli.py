import json

import pytest

from advmean import AtomicDistribution, construct_q, load_distribution
from advmean.cli import main
from advmean.distribution import distribution_to_dict


def write_distribution(path, d):
    path.write_text(json.dumps(distribution_to_dict(d), indent=2, sort_keys=True))
    return str(path)


@pytest.fixture
def two_point_file(tmp_path):
    return write_distribution(
        tmp_path / "two_point.json", AtomicDistribution([-1.0, 1.0], [0.5, 0.5])
    )


@pytest.fixture
def asym_file(tmp_path):
    return write_distribution(
        tmp_path / "asym.json", AtomicDistribution([0.0, 1000.0], [0.999, 0.001])
    )


@pytest.fixture
def point_mass_file(tmp_path):
    return write_distribution(tmp_path / "point.json", AtomicDistribution([0.0], [1.0]))


def run(*argv):
    return main(list(argv))


class TestConstruct:
    def test_writes_partner_with_metadata(self, two_point_file, tmp_path):
        out = tmp_path / "q.json"
        code = run(
            "construct", "--in", two_point_file,
            "--n", "1000", "--delta", "0.05", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["case"] == "small_mean_shift"
        assert payload["meta"]["a"] == pytest.approx(0.006841660381389967, abs=1e-10)
        q = load_distribution(out)
        assert q.num_atoms == 2

    @pytest.mark.parametrize("fixture", ["two_point_file", "asym_file"])
    def test_out_meta_is_construct_q_meta(self, fixture, request, tmp_path):
        path = request.getfixturevalue(fixture)
        out = tmp_path / "q.json"
        assert run(
            "construct", "--in", path,
            "--n", "1000", "--delta", "0.05", "--out", str(out),
        ) == 0
        res = construct_q(load_distribution(path), 1000, 0.05)
        assert json.loads(out.read_text())["meta"] == res.meta

    def test_degenerate_input_refused(self, point_mass_file, tmp_path):
        code = run(
            "construct", "--in", point_mass_file,
            "--n", "1000", "--delta", "0.05", "--out", str(tmp_path / "q.json"),
        )
        assert code == 3

    def test_byte_identical_reruns(self, two_point_file, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert run(
                "construct", "--in", two_point_file,
                "--n", "1000", "--delta", "0.05", "--out", str(out),
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestVerify:
    def test_pass_exit_zero(self, asym_file, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            "verify", "--in", asym_file,
            "--n", "1000", "--delta", "0.05", "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"]
        measured = {c["name"]: c["measured"] for c in report["conditions"]}
        assert measured["mean_separation"] == pytest.approx(0.25, abs=1e-12)

    def test_point_mass_exit_three(self, point_mass_file):
        assert run(
            "verify", "--in", point_mass_file, "--n", "1000", "--delta", "0.05"
        ) == 3

    def test_out_of_regime_refused_without_override(self, two_point_file):
        assert run(
            "verify", "--in", two_point_file, "--n", "100", "--delta", "0.3"
        ) == 3
        assert run(
            "verify", "--in", two_point_file, "--n", "100", "--delta", "0.3",
            "--override-regime",
        ) == 0

    @pytest.mark.parametrize(
        "sub, with_pair",
        [("construct", False), ("verify", False), ("verify", True),
         ("neighborhood", False)],
        ids=["construct", "verify", "verify-pair", "neighborhood"],
    )
    def test_out_of_regime_messages(self, sub, with_pair, two_point_file, capsys):
        pair = ["--pair", two_point_file] if with_pair else []
        argv = [sub, "--in", two_point_file, *pair, "--n", "100", "--delta", "0.3"]
        assert run(*argv) == 3
        assert capsys.readouterr().err == (
            "error: (n=100, delta=0.3) is outside the asserted regime "
            "(delta <= 0.1, log(1/delta)/n <= 0.01); rerun with "
            "--override-regime to proceed without assertions\n"
        )
        assert run(*argv, "--override-regime") == 0
        assert capsys.readouterr().err == (
            "warning: outside the asserted regime; conditions are reported "
            "but not enforced\n"
        )

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"atoms": [{"x": 0.0, "w": }]}')
        assert run("verify", "--in", str(bad), "--n", "1000", "--delta", "0.05") == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    @pytest.mark.parametrize(
        "n, delta, extra, regime",
        [("1000", "0.05", [], {"delta_ok": True, "ratio_ok": True}),
         ("100", "0.3", ["--override-regime"], {"delta_ok": False, "ratio_ok": False})],
        ids=["in-regime", "override"],
    )
    def test_pair_report_fields(self, n, delta, extra, regime, two_point_file, tmp_path):
        out = tmp_path / "report.json"
        run(
            "verify", "--in", two_point_file, "--pair", two_point_file,
            "--n", n, "--delta", delta, *extra, "--out", str(out),
        )
        report = json.loads(out.read_text())
        assert report["claim"] == "indistinguishable_pair"
        assert report["regime"] == regime
        assert report["meta"] == {"mode": "pair", "pair_file": two_point_file}
        assert not report["degenerate"]
        assert [c["name"] for c in report["conditions"]] == [
            "mean_separation", "hellinger_closeness", "density_ratio",
            "variance_doubling", "estimator_separation",
        ]

    def test_pair_round_trip(self, two_point_file, tmp_path):
        q_path = tmp_path / "q.json"
        report_a = tmp_path / "a.json"
        report_b = tmp_path / "b.json"
        assert run(
            "construct", "--in", two_point_file,
            "--n", "1000", "--delta", "0.05", "--out", str(q_path),
        ) == 0
        assert run(
            "verify", "--in", two_point_file, "--pair", str(q_path),
            "--n", "1000", "--delta", "0.05", "--out", str(report_a),
        ) == 0
        direct = json.loads(report_a.read_text())
        assert run(
            "verify", "--in", two_point_file,
            "--n", "1000", "--delta", "0.05", "--out", str(report_b),
        ) == 0
        constructed = json.loads(report_b.read_text())
        pair_measured = {c["name"]: c["measured"] for c in direct["conditions"]}
        built_measured = {c["name"]: c["measured"] for c in constructed["conditions"]}
        for name, value in built_measured.items():
            assert pair_measured[name] == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize(
    "sub, claim",
    [("verify", "indistinguishable_pair"), ("neighborhood", "neighborhood_membership")],
)
def test_point_mass_report(sub, claim, point_mass_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(
        sub, "--in", point_mass_file, "--n", "1000", "--delta", "0.05", "--out", str(out)
    ) == 3
    reason = "a point mass has no distinct indistinguishable partner"
    assert capsys.readouterr().err == f"refused: degenerate input ({reason})\n"
    assert json.loads(out.read_text()) == {
        "claim": claim,
        "conditions": [],
        "pass": True,
        "degenerate": True,
        "regime": {"delta_ok": True, "ratio_ok": True},
        "meta": {"reason": reason},
    }


@pytest.mark.parametrize(
    "xs, ws, reason",
    [([0.0], [1.0], "a point mass has no distinct indistinguishable partner"),
     ([-1.0, 0.0, 1.0], [0.0005, 0.999, 0.0005],
      "trimmed core is a point mass at the mean; no skew target"),
     ([-5e-324, 5e-324], [0.5, 0.5],
      "trimmed core variance underflows float64 to 0 across 2 atoms; "
      "rescale the positions")],
    ids=["point-mass", "point-mass-core", "core-underflow"],
)
def test_pair_degenerate_refused(xs, ws, reason, tmp_path, capsys):
    # --pair applies the same degenerate rule as the constructed partner
    path = write_distribution(tmp_path / "p.json", AtomicDistribution(xs, ws))
    out = tmp_path / "report.json"
    assert run(
        "verify", "--in", path, "--pair", path,
        "--n", "1000", "--delta", "0.05", "--out", str(out),
    ) == 3
    assert capsys.readouterr().err == f"refused: degenerate input ({reason})\n"
    assert json.loads(out.read_text()) == {
        "claim": "indistinguishable_pair",
        "conditions": [],
        "pass": True,
        "degenerate": True,
        "regime": {"delta_ok": True, "ratio_ok": True},
        "meta": {"mode": "pair", "pair_file": path, "reason": reason},
    }
    assert run("construct", "--in", path, "--n", "1000", "--delta", "0.05") == 3
    assert capsys.readouterr() == ("", f"refused: {reason}\n")


class TestNeighborhood:
    def test_pass(self, two_point_file, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            "neighborhood", "--in", two_point_file,
            "--n", "1000", "--delta", "0.05", "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["claim"] == "neighborhood_membership"
        assert report["pass"]
        assert len(report["conditions"]) == 4


class TestBenchAndDistinguish:
    def test_bench_mom_json(self, two_point_file, tmp_path):
        out = tmp_path / "bench.json"
        code = run(
            "bench-mom", "--in", two_point_file, "--n", "140", "--delta", "0.05",
            "--trials", "400", "--seed", "0", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["trials"] == 400
        assert payload["distribution"] == "two_point"

    def test_bench_mom_csv_header(self, two_point_file, tmp_path, capsys):
        code = run(
            "bench-mom", "--in", two_point_file, "--n", "140", "--delta", "0.05",
            "--trials", "200", "--format", "csv",
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "distribution,n,delta,trials,seed,failure_rate,bound,ci_halfwidth,pass"
        assert len(lines) == 2

    def test_distinguish(self, two_point_file, tmp_path):
        q_path = tmp_path / "q.json"
        run(
            "construct", "--in", two_point_file,
            "--n", "1000", "--delta", "0.05", "--out", str(q_path),
        )
        out = tmp_path / "lr.json"
        code = run(
            "distinguish", "--in", two_point_file, "--pair", str(q_path),
            "--n", "200", "--delta", "0.05", "--trials", "400", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["empirical_error"] >= payload["delta_floor"]

    def test_distinguish_csv_header(self, two_point_file, capsys):
        code = run(
            "distinguish", "--in", two_point_file, "--pair", two_point_file,
            "--n", "200", "--delta", "0.05", "--trials", "200", "--format", "csv",
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "distribution,n,delta,trials,seed,empirical_error,ci_halfwidth,pass"
        assert len(lines) == 2
        assert lines[1].startswith("two_point,200,0.05,200,0,")

    def test_env_seed_default(self, two_point_file, tmp_path, monkeypatch):
        monkeypatch.setenv("ADVMEAN_SEED", "11")
        out = tmp_path / "bench.json"
        run(
            "bench-mom", "--in", two_point_file, "--n", "140", "--delta", "0.05",
            "--trials", "100", "--out", str(out),
        )
        assert json.loads(out.read_text())["seed"] == 11

    def test_bad_env_seed(self, two_point_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ADVMEAN_SEED", "abc")
        assert run("gen", "--name", "two_point_symmetric") == 0
        bench = ["bench-mom", "--in", two_point_file, "--n", "140", "--delta", "0.05",
                 "--trials", "100"]
        capsys.readouterr()
        assert run(*bench) == 2
        assert "ADVMEAN_SEED" in capsys.readouterr().err
        assert run(*bench, "--seed", "3") == 0

    @pytest.mark.parametrize("sub", ["bench-mom", "distinguish"])
    def test_override_regime_not_accepted(self, sub, two_point_file, capsys):
        # The Monte-Carlo subcommands never consult the regime, so they do not
        # offer the flag.
        pair = ["--pair", two_point_file] if sub == "distinguish" else []
        with pytest.raises(SystemExit) as err:
            run(
                sub, "--in", two_point_file, *pair, "--n", "140", "--delta", "0.05",
                "--trials", "2", "--override-regime",
            )
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: unrecognized arguments: --override-regime\n"
        )

    def test_distinguish_requires_pair(self, two_point_file, capsys):
        with pytest.raises(SystemExit) as err:
            run(
                "distinguish", "--in", two_point_file,
                "--n", "140", "--delta", "0.05", "--trials", "2",
            )
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: the following arguments are required: --pair\n"
        )

    def test_bench_mom_too_few_samples(self, two_point_file, capsys):
        code = run("bench-mom", "--in", two_point_file, "--n", "5", "--delta", "0.05")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: need at least 14 samples for 14 groups, got 5\n"
        )


@pytest.mark.parametrize("sub", ["construct", "verify", "neighborhood"])
def test_overflowing_moments_exit_two(sub, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"atoms": [{"x": -1e300, "w": 0.5}, {"x": 1e300, "w": 0.5}]}')
    assert run(sub, "--in", str(path), "--n", "1000", "--delta", "0.05") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: moments overflow float64")
    assert "variance inf" in err


HUGE = "9" * 400  # an integer with no float64 value
MANY = "1" + "0" * 30  # a trial count past sys.maxsize
SAME = "<the --in file>"  # stands for the fixture path in an argument list


@pytest.mark.parametrize(
    "argv, named",
    [
        (["scan", "--delta", "0", "--n-list", "1000"], "got 0.0"),
        (["scan", "--delta", "-0.5", "--n-list", "1000"], "got -0.5"),
        (["scan", "--delta", "0.05", "--n-list", HUGE], f"got {HUGE}"),
        (["verify", "--n", HUGE, "--delta", "0.05"], f"got {HUGE}"),
        (["construct", "--n", HUGE, "--delta", "0.05"], f"got {HUGE}"),
        (["distinguish", "--pair", SAME, "--n", HUGE, "--delta", "0.05", "--trials", "2"],
         f"got {HUGE}"),
        (["bench-mom", "--n", "140", "--delta", "0.05", "--trials", MANY], f"got {MANY}"),
        (["distinguish", "--pair", SAME, "--n", "140", "--delta", "0.05", "--trials", MANY],
         f"got {MANY}"),
    ],
    ids=["scan-delta-zero", "scan-delta-negative", "scan-huge-n", "verify-huge-n",
         "construct-huge-n", "distinguish-huge-n", "bench-mom-huge-trials",
         "distinguish-huge-trials"],
)
def test_bad_numbers_exit_two(argv, named, two_point_file, capsys):
    rest = [two_point_file if a == SAME else a for a in argv[1:]]
    assert run(argv[0], "--in", two_point_file, *rest) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize(
    "atoms, named",
    [('{"x": "abc", "w": 1.0}', "has no float64 value: 'abc'"),
     ('{"x": %s, "w": 1.0}' % HUGE, "has no float64 value: 9999"),
     ('{"x": %s, "w": 1.0}' % ("9" * 5000), "value has 5000 digits"),
     ('{"x": 0, "w": 1e308}, {"x": 1, "w": 1e308}',
      "masses sum past float64 range (largest mass 1e+308)"),
     ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded")],
    ids=["string", "huge-int", "over-long-int", "mass-sum-overflow", "deep-nesting"],
)
def test_unconvertible_atom_exit_two(atoms, named, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"atoms": [%s]}' % atoms)
    assert run("verify", "--in", str(path), "--n", "1000", "--delta", "0.05") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and named in err


@pytest.mark.parametrize(
    "argv",
    [["gen", "--name", "pareto_15"],
     ["verify", "--in", SAME, "--n", "1000", "--delta", "0.05"]],
    ids=["gen", "verify"],
)
def test_unwritable_out_exit_two(argv, two_point_file, tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.json"
    argv = [two_point_file if a == SAME else a for a in argv]
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ") and "No such file or directory" in err
    assert not out.parent.exists()


class TestScanAndGen:
    def test_scan_csv(self, two_point_file, tmp_path):
        out = tmp_path / "scan.csv"
        code = run(
            "scan", "--in", two_point_file, "--delta", "0.05",
            "--n-list", "1000,10000", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "distribution,n,delta,epsilon,normalized"
        assert len(lines) == 3

    def test_gen_round_trip(self, tmp_path):
        out = tmp_path / "pareto.json"
        assert run("gen", "--name", "pareto_15", "--out", str(out)) == 0
        d = load_distribution(out)
        assert d.num_atoms == 200

    def test_gen_unknown_name(self, tmp_path, capsys):
        assert run("gen", "--name", "nope", "--out", str(tmp_path / "x.json")) == 2
        assert capsys.readouterr().err == (
            "error: unknown corpus member 'nope'; choose from ['contaminated_gaussian', "
            "'gaussian_grid', 'pareto_15', 'pareto_25', 'two_point_asymmetric', "
            "'two_point_symmetric']\n"
        )

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            run("verify", "--n", "1000", "--delta", "0.05")
        assert err.value.code == 2
