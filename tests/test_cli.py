import importlib

import numpy as np
import pytest

from peer_lab import analysis, checkpoint
from peer_lab.cli import main
from peer_lab.config import parse_config
from peer_lab.model import model_config_from_flat

TINY = """
model.n_blocks=2
model.d_model=16
model.n_attn_heads=2
model.d_ff=32
model.seq_len=32
model.middle_layer=peer
peer.n_experts=64
peer.heads=2
peer.topk=2
peer.query_dim=8
train.steps=5
train.batch=4
train.lr=0.001
train.warmup=2
data.synthetic_bytes=20000
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


class TestTrainEval:
    def test_train_writes_metrics_and_checkpoint(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(tiny_cfg), "--out-dir", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "step,loss,ppl,tokens_per_s,mac_per_token"
        assert len(lines) == 6
        assert (out / "checkpoint.bin").exists()
        assert "val_ppl=" in capsys.readouterr().out

    def test_eval_uses_embedded_config(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--config", str(tiny_cfg), "--out-dir", str(out)])
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "checkpoint.bin")]) == 0
        text = capsys.readouterr().out
        assert "step=5" in text and "val_ppl=" in text

    def test_resume_continues(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--config", str(tiny_cfg), "--out-dir", str(out)])
        capsys.readouterr()
        cfg10 = tmp_path / "ten.cfg"
        cfg10.write_text(TINY.replace("train.steps=5", "train.steps=10"))
        out2 = tmp_path / "run2"
        assert main(["train", "--config", str(cfg10), "--out-dir", str(out2), "--resume", str(out / "checkpoint.bin")]) == 0
        text = capsys.readouterr().out
        assert "resumed" in text and "step=10" in text
        lines = (out2 / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 6  # five new rows appended after the header


class TestRetrieveBench:
    def test_csv_shape_and_matches(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["retrieve-bench", "--n", "256", "--d", "8", "--k", "4", "--trials", "10", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "N,d,k,method,macs,comparisons,wall_ns,match"
        assert len(lines) == 21
        rows = [line.split(",") for line in lines[1:]]
        assert {r[3] for r in rows} == {"product", "exhaustive"}
        assert all(r[7] == "1" for r in rows)
        for r in rows:
            if r[3] == "product":
                assert int(r[4]) == 16 * 8 + 16
            else:
                assert int(r[4]) == 256 * 8

    def test_stdout_mode(self, capsys):
        assert main(["retrieve-bench", "--n", "16", "--d", "4", "--k", "2", "--trials", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5


class TestMetrics:
    def test_usage_printed_and_csv_written(self, tiny_cfg, tmp_path, capsys):
        run = tmp_path / "run"
        main(["train", "--config", str(tiny_cfg), "--out-dir", str(run)])
        capsys.readouterr()
        out = tmp_path / "m"
        assert main(["metrics", "--checkpoint", str(run / "checkpoint.bin"), "--out-dir", str(out)]) == 0
        text = capsys.readouterr().out
        assert "usage=" in text and "unevenness=" in text
        lines = (out / "usage.csv").read_text().strip().splitlines()
        assert lines[0] == "expert_id,z"
        assert len(lines) == 65
        z = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert z.sum() == pytest.approx(1.0, abs=1e-9)

    def test_dense_checkpoint_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "dense.cfg"
        cfg.write_text(TINY.replace("model.middle_layer=peer", "model.middle_layer=dense"))
        run = tmp_path / "run"
        main(["train", "--config", str(cfg), "--out-dir", str(run)])
        with pytest.raises(SystemExit):
            main(["metrics", "--checkpoint", str(run / "checkpoint.bin"), "--out-dir", str(tmp_path / "m")])

    def test_kind_checked_before_the_checkpoint_loads(self, tmp_path):
        cfg = tmp_path / "dense.cfg"
        cfg.write_text(TINY.replace("model.middle_layer=peer", "model.middle_layer=dense"))
        missing = tmp_path / "no-such-checkpoint.bin"
        with pytest.raises(SystemExit, match="no routed experts"):
            main(["metrics", "--config", str(cfg), "--checkpoint", str(missing), "--out-dir", str(tmp_path / "m")])


@pytest.mark.parametrize("command", ["eval", "metrics"])
@pytest.mark.parametrize("with_config", [False, True])
def test_checkpoint_read_once(command, with_config, tiny_cfg, tmp_path, monkeypatch, capsys):
    run = tmp_path / "run"
    main(["train", "--config", str(tiny_cfg), "--out-dir", str(run)])
    reads = []

    def counting(path):
        reads.append(path)
        return checkpoint.load_checkpoint(path)

    for module in ("peer_lab.cli", "peer_lab.train"):
        monkeypatch.setattr(importlib.import_module(module), "load_checkpoint", counting, raising=False)
    args = [command, "--checkpoint", str(run / "checkpoint.bin")] + (["--config", str(tiny_cfg)] if with_config else [])
    if command == "metrics":
        args += ["--out-dir", str(tmp_path / "m")]
    assert main(args) == 0
    assert [str(p) for p in reads] == [str(run / "checkpoint.bin")]


class TestGradCheckCommand:
    def test_passes_and_prints_groups(self, capsys):
        assert main(["grad-check", "--seed", "0"]) == 0
        text = capsys.readouterr().out
        assert "peer.subkeys.c" in text and "max rel_err" in text and "OK" in text


class TestSweep:
    def test_tiny_sweep_csv(self, tmp_path, capsys):
        base = parse_config(TINY)
        step_macs = max(
            analysis.model_train_step_macs(model_config_from_flat({**base, "model.middle_layer": m, "model.d_model": dm, "model.d_ff": 4 * dm}), base["train.batch"])
            for m in ("dense", "peer")
            for dm in (8, 16)
        )
        budget = step_macs * 12
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TINY + f"sweep.budget_macs={budget}\nsweep.methods=dense,peer\nsweep.d_models=8,16\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 0
        lines = (out / "isoflop.csv").read_text().strip().splitlines()
        assert lines[0] == "method,total_params,active_params,steps,val_ppl"
        assert len(lines) == 5  # 2 methods x 2 grid points
        assert (out / "isoflop_plot.json").exists()
        for line in lines[1:]:
            method, total, active, steps, ppl = line.split(",")
            assert method in ("dense", "peer")
            assert int(steps) >= 10
            assert int(active) <= int(total)
            assert float(ppl) > 1.0
        text = capsys.readouterr().out
        assert "optimum[dense]" in text and "optimum[peer]" in text

    def test_every_train_key_reaches_the_runs(self, tmp_path, monkeypatch):
        from peer_lab import sweep
        from peer_lab.data import Corpus

        seen = []
        monkeypatch.setattr(sweep, "train", lambda model, corpus, tc: seen.append(tc))
        monkeypatch.setattr(sweep, "evaluate_perplexity", lambda model, corpus: 2.0)
        base = parse_config(TINY + "train.beta1=0.8\ntrain.beta2=0.95\ntrain.eps=1e-6\ntrain.seed=5\ntrain.warmup=1000\n")
        step_macs = analysis.model_train_step_macs(model_config_from_flat({**base, "model.middle_layer": "dense", "model.d_model": 8, "model.d_ff": 32}), 4)
        cfg = {**base, "sweep.budget_macs": 12 * step_macs, "sweep.methods": ("dense",), "sweep.d_models": (8,)}
        sweep.isoflop_sweep(cfg, Corpus.synthetic(20000, seed=0), tmp_path / "s", log=lambda *a: None)
        (tc,) = seen
        assert (tc.steps, tc.warmup) == (12, 12)
        assert (tc.batch, tc.lr, tc.beta1, tc.beta2, tc.eps, tc.seed) == (4, 0.001, 0.8, 0.95, 1e-6, 5)

    def test_no_bias_accounting_flag_parses(self):
        from peer_lab.cli import build_parser

        args = build_parser().parse_args(["sweep", "--no-bias-accounting"])
        assert args.no_bias_accounting is True

    def test_budget_too_small_errors(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TINY + "sweep.budget_macs=1000\nsweep.methods=dense\nsweep.d_models=8\n")
        with pytest.raises(ValueError, match="need >= 10"):
            main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "s")])

    def test_steps_inverse_to_step_cost(self, tmp_path):
        base = parse_config(TINY)
        mc_small = model_config_from_flat({**base, "model.middle_layer": "dense", "model.d_model": 8, "model.d_ff": 32})
        mc_large = model_config_from_flat({**base, "model.middle_layer": "dense", "model.d_model": 16, "model.d_ff": 64})
        m_small = analysis.model_train_step_macs(mc_small, base["train.batch"])
        m_large = analysis.model_train_step_macs(mc_large, base["train.batch"])
        budget = m_large * 11
        assert budget // m_small > budget // m_large >= 10
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(TINY + f"sweep.budget_macs={budget}\nsweep.methods=dense\nsweep.d_models=8,16\n")
        out = tmp_path / "s"
        main(["sweep", "--config", str(cfg), "--out-dir", str(out)])
        rows = [line.split(",") for line in (out / "isoflop.csv").read_text().strip().splitlines()[1:]]
        by_params = sorted(rows, key=lambda r: int(r[1]))
        assert int(by_params[0][3]) == budget // m_small
        assert int(by_params[1][3]) == budget // m_large
