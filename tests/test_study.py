import json
import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import block_pencil
from stokeseig import cli, study
from stokeseig.cli import main
from stokeseig.errors import ConfigurationError
from stokeseig.mesh import NEUMANN
from stokeseig.spaces import BOUNDARY_CONDITIONS
from stokeseig.study import (ExperimentConfig, extrapolate, fit_order, run_adapt,
                             run_study)

# published eigenvalue series on the (-1,1)^2 domain, lowest eigenvalue, k=0
TABLE_SERIES = [(20, 13.07172), (30, 13.07948), (40, 13.08235), (50, 13.08371)]
CONVERGED = 13.08617


def test_fit_order_exact_powers():
    slope, resid = fit_order([(0.1, 0.1 ** 2), (0.05, 0.05 ** 2), (0.025, 0.025 ** 2)])
    assert abs(slope - 2.0) < 1e-10
    assert resid < 1e-20
    slope, _ = fit_order([(h, 3.0 * h ** 1.08) for h in (0.2, 0.1, 0.05, 0.025)])
    assert abs(slope - 1.08) < 1e-10


def test_fit_order_published_series():
    pairs = [(2.0 / N, abs(lam - CONVERGED)) for N, lam in TABLE_SERIES]
    slope, _ = fit_order(pairs)
    assert abs(slope - 1.88) < 0.1


def test_fit_order_validation():
    with pytest.raises(ConfigurationError):
        fit_order([(0.1, 1.0)])
    with pytest.raises(ConfigurationError):
        fit_order([(0.1, 1.0), (-0.1, 0.5)])
    with pytest.raises(ConfigurationError):
        fit_order([(0.1, 1.0), (0.05, 0.0)])


def test_extrapolate_synthetic_quadratic():
    pairs = [(h, 10.0 + h ** 2) for h in (0.2, 0.1, 0.05, 0.025)]
    lam, C, t = extrapolate(pairs)
    assert abs(lam - 10.0) < 1e-8
    assert abs(C - 1.0) < 1e-6
    assert abs(t - 2.0) < 1e-6


def test_extrapolate_published_series():
    pairs = [(2.0 / N, lam) for N, lam in TABLE_SERIES]
    lam, _, t = extrapolate(pairs)
    assert abs(lam - CONVERGED) / CONVERGED < 2e-4
    assert 1.5 < t < 2.2


def test_extrapolate_noise_stability():
    rng = np.random.default_rng(0)
    base = [(h, 7.0 + 2.0 * h ** 1.5) for h in (0.2, 0.1, 0.05)]
    lam0, _, _ = extrapolate(base)
    noisy = [(h, v + 1e-9 * rng.standard_normal()) for h, v in base]
    lam1, _, _ = extrapolate(noisy)
    assert abs(lam0 - lam1) < 1e-6


def test_extrapolate_degenerate_series():
    lam, C, t = extrapolate([(0.1, 5.0), (0.05, 5.0), (0.025, 5.0)])
    assert lam == 5.0 and C == 0.0 and np.isnan(t)


def test_extrapolate_validation():
    with pytest.raises(ConfigurationError):
        extrapolate([(0.1, 1.0), (0.05, 1.1)])


def test_config_validation_and_json(tmp_path):
    with pytest.raises(ConfigurationError):
        ExperimentConfig(domain="hexagon")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(bc="mixed_bottom_fixed", domain="circle")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(N=(0, 2))
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "domain": "bi_unit_square",
        "scheme": {"ell": 1, "k": 0},
        "N": [2, 3, 4],
        "nev": 2,
    }))
    cfg = ExperimentConfig.from_json(cfgfile, nev=3)
    assert cfg.ell == 1 and cfg.k == 0 and cfg.nev == 3
    assert cfg.N == (2, 3, 4)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"domain": "circle", "wrong_key": 1}))
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_json(bad)


@pytest.mark.parametrize("data", [
    [1, 2], {"scheme": 5}, {"scheme": {"ell": 1}}, {"adaptive": 3}, {"nev": "5"},
    {"N": "abc"}, {"N": [2.5]}, {"nev": 2.5}, {"mu": "x"}, {"seed": "x"},
    {"dof_cap": "x"}, {"nev": True}, {"mu": -1.0}, {"mu": float("inf")}, {"seed": -1},
], ids=repr)
def test_config_json_rejects_bad_values(tmp_path, data):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_json(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
_KEYS = sorted(ExperimentConfig.__dataclass_fields__) + ["scheme", "adaptive"]
_SMALL = st.integers(-2, 60) | st.floats(-2.0, 2.0)


@settings(max_examples=200, deadline=None)
@given(data=st.dictionaries(st.sampled_from(_KEYS), _SMALL | _JSON | st.dictionaries(
    st.sampled_from(_KEYS + ["ell", "k"]), _SMALL | _JSON, max_size=3), max_size=5))
def test_config_json_gives_config_or_configuration_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_cfg.json"
    path.write_text(json.dumps(data))
    try:
        ExperimentConfig.from_json(path)
    except ConfigurationError:
        pass


def test_adaptive_mode_forces_lowest_order():
    cfg = ExperimentConfig(domain="lshape", ell=1, k=1, N=(2, 3, 4))
    with pytest.raises(ConfigurationError):
        run_adapt(cfg)


@pytest.fixture(scope="module")
def small_study(tmp_path_factory):
    out = tmp_path_factory.mktemp("study")
    cfg = ExperimentConfig(domain="bi_unit_square", ell=1, k=0,
                           N=(4, 6, 8), nev=2, out=str(out))
    return cfg, run_study(cfg)


def test_study_outputs_written(small_study):
    cfg, report = small_study
    assert report.lambdas.shape == (3, 2)
    assert os.path.exists(os.path.join(cfg.out, "study_table.csv"))
    assert os.path.exists(os.path.join(cfg.out, "study_errors.csv"))
    with open(os.path.join(cfg.out, "study_report.json")) as fp:
        meta = json.load(fp)
    assert meta["h_convention"].startswith("side_length/N")
    assert len(meta["lambda_extr"]) == 2


def test_study_determinism(small_study, tmp_path):
    cfg, _ = small_study
    out2 = tmp_path / "again"
    cfg2 = ExperimentConfig(domain="bi_unit_square", ell=1, k=0,
                            N=(4, 6, 8), nev=2, out=str(out2))
    run_study(cfg2)
    for name in ("study_table.csv", "study_errors.csv"):
        with open(os.path.join(cfg.out, name), "rb") as fp:
            first = fp.read()
        with open(out2 / name, "rb") as fp:
            second = fp.read()
        assert first == second


def test_cli_solve_and_mesh(tmp_path, capsys):
    rc = main(["solve", "--domain", "bi_unit_square", "--scheme", "1,0",
               "--N", "4", "--nev", "2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["eigenvalues"]) == 2
    meshfile = tmp_path / "m.mesh"
    rc = main(["mesh", "--domain", "lshape", "--N", "2", "--path", str(meshfile)])
    assert rc == 0
    assert meshfile.exists()


def test_cli_study_adapt_export(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["study", "--domain", "bi_unit_square", "--scheme", "1,0",
               "--N", "3,4,5", "--nev", "2", "--out", str(out)])
    assert rc == 0
    assert (out / "study_table.csv").exists()
    capsys.readouterr()

    rc = main(["adapt", "--domain", "lshape", "--scheme", "1,0", "--N", "2",
               "--max-iterations", "2", "--lambda-ref", "32.13183",
               "--initial-N", "2", "--out", str(out)])
    assert rc == 0
    assert (out / "adapt_table.csv").exists()
    capsys.readouterr()

    vtk = tmp_path / "mode.vtk"
    rc = main(["export", "--domain", "bi_unit_square", "--scheme", "1,0",
               "--N", "4", "--nev", "2", "--path", str(vtk)])
    assert rc == 0
    assert vtk.exists()


def test_cli_error_is_machine_readable(capsys):
    rc = main(["study", "--domain", "bi_unit_square", "--scheme", "9,9", "--N", "3,4,5"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["category"] == "config"


def test_cli_bad_resolutions_and_deep_config_exit_with_config_code(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (["solve", "--N", "abc"], ["solve", "--config", str(deep)]):
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["category"] == "config"


@pytest.mark.parametrize("ell,k", [(1, 0), (2, 1)])
def test_dump_matrices_writes_the_pencil_bit_for_bit(tmp_path, capsys, ell, k):
    # %.17g round-trips every double, and the pencil rebuilds the full K
    # from its triangle for the dump; the solve runs at mu = 1, the dump is K(mu)
    for mu in (1.0, 2.0):
        out = tmp_path / f"mu{mu}"
        assert main(["solve", "--N", "3", "--scheme", f"{ell},{k}", "--nev", "2", "--mu",
                     str(mu), "--dump-matrices", "--out", str(out)]) == 0
        for name, want in zip(("pencil_K.txt", "pencil_N.txt"),
                              block_pencil(ell, k, N=3, mu=mu)):
            i, j, v = np.loadtxt(out / name, unpack=True)
            assert len(v) == want.nnz
            got = sp.csr_matrix((v, (i.astype(int), j.astype(int))), shape=want.shape)
            for attr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr))


@pytest.mark.parametrize("argv", [
    ["study", "--N", "3,4,5", "--nev", "2"],
    ["adapt", "--domain", "lshape", "--initial-N", "2", "--max-iterations", "1"],
    ["solve", "--N", "3", "--nev", "2", "--dump-matrices"],
])
def test_cli_output_dir_under_a_file_exits_with_io_code(tmp_path, capsys, argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([*argv, "--scheme", "1,0", "--out", str(blocker / "out")]) == 6
    err = json.loads(capsys.readouterr().err)
    assert err["category"] == "io"
    assert str(blocker / "out") in err["message"]


@pytest.mark.parametrize("argv", [
    ["study", "--N", "3,4,5", "--nev", "2"],
    ["adapt", "--domain", "lshape", "--initial-N", "2", "--max-iterations", "1"],
    ["solve", "--N", "3", "--nev", "2", "--dump-matrices"],
])
def test_unusable_out_fails_before_the_first_solve(tmp_path, capsys, monkeypatch, argv):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking --out")

    monkeypatch.setattr(study, "solve_on_mesh", no_solve)
    monkeypatch.setattr(study, "afem_loop", no_solve)
    monkeypatch.setattr(cli, "solve_on_mesh", no_solve)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([*argv, "--scheme", "1,0", "--out", str(blocker / "out")]) == 6
    assert json.loads(capsys.readouterr().err)["category"] == "io"


def test_one_domain_table_drives_config_mesh_h_and_cli(capsys):
    for name, (build, side, mixed) in study.DOMAINS.items():
        cfg = ExperimentConfig(domain=name)
        assert cfg.h_of(4) == side / 4
        assert np.array_equal(cfg.build_mesh(2).vertices, build(2).vertices)
        if mixed:
            tagged = ExperimentConfig(domain=name, bc="mixed_bottom_fixed").build_mesh(2)
            assert np.any(tagged.edge_tags == NEUMANN)
        else:
            with pytest.raises(ConfigurationError, match="square domains"):
                ExperimentConfig(domain=name, bc="mixed_bottom_fixed")
    with pytest.raises(ConfigurationError, match="pick one of"):
        ExperimentConfig(domain=["lshape"])
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    usage = capsys.readouterr().out
    assert "{" + ",".join(study.DOMAINS) + "}" in usage
    assert "{" + ",".join(BOUNDARY_CONDITIONS) + "}" in usage


def test_study_rejects_repeated_resolutions(capsys):
    assert main(["study", "--scheme", "1,0", "--N", "3,3,3", "--nev", "2"]) == 2
    assert json.loads(capsys.readouterr().err)["category"] == "config"
    with pytest.raises(ConfigurationError, match="distinct"):
        run_study(ExperimentConfig(N=(3, 4, 3), nev=2))


def test_study_accepts_decreasing_resolutions():
    report = run_study(ExperimentConfig(N=(5, 4, 3), nev=2))
    assert list(report.dofs) == sorted(report.dofs, reverse=True)


def test_square_first_order_scheme_table_row():
    # first-kind stress of order 1: the lowest eigenvalue is converged to
    # 13.08617 at every resolution of the published table
    cfg = ExperimentConfig(domain="bi_unit_square", ell=1, k=1,
                           N=(20, 30, 40, 50), nev=1)
    report = run_study(cfg)
    rel = np.abs(report.lambdas[:, 0] - CONVERGED) / CONVERGED
    assert rel.max() < 5e-5


def test_run_adapt_writes_tables(tmp_path):
    cfg = ExperimentConfig(domain="lshape", ell=1, k=0, N=(2,), nev=3,
                           out=str(tmp_path), max_iterations=2,
                           lambda_ref=32.13183, initial_N=2)
    report = run_adapt(cfg)
    assert len(report.iterations) == 3
    table = (tmp_path / "adapt_table.csv").read_text().strip().splitlines()
    assert table[0].startswith("iteration,dof,lambda_h")
    assert len(table) == len(report.iterations) + 1
