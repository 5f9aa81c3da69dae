"""Config resolution, the auto dispatcher, and the command line surface."""

import random
from fractions import Fraction

import pytest

from rectbin.cli import main, pack_auto, shelf_pack
from rectbin.config import SolveConfig, config_from_env
from rectbin.errors import PackingStuck
from rectbin.fileio import parse_instance, parse_packing, serialize_instance
from rectbin.geometry import Instance, Item, ValidationReport, validate_packing
from rectbin.oracle import GeneratorSpec, certify_opt, gen_instance
from rectbin.render_svg import render_bin

F = Fraction


class TestConfig:
    def test_defaults(self):
        cfg = SolveConfig()
        assert cfg.k == 3
        assert cfg.eps_opt1 == F(1, 256)
        assert (cfg.exact_limit, cfg.enumeration_limit, cfg.oracle_limit) == (10, 12, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(k=1)
        with pytest.raises(ValueError):
            SolveConfig(eps_opt1=F(1, 200))
        with pytest.raises(ValueError):
            SolveConfig(eps_opt1=F(1, 100))
        with pytest.raises(ValueError):
            SolveConfig(exact_limit=0)

    def test_env_overrides(self):
        cfg = config_from_env({"K": "4", "EPS_OPT1": "1/512", "ORACLE_LIMIT": "6"})
        assert cfg.k == 4
        assert cfg.eps_opt1 == F(1, 512)
        assert cfg.oracle_limit == 6
        assert cfg.exact_limit == 10

    def test_env_rejects_junk(self):
        with pytest.raises(ValueError):
            config_from_env({"K": "three"})
        with pytest.raises(ValueError):
            config_from_env({"EPS_OPT1": "1/0"})


class TestPackAuto:
    def test_single_item(self):
        inst = Instance([Item(0, F(1, 2), F(1, 3))])
        packing, branch, guaranteed = pack_auto(inst, SolveConfig())
        assert branch == "opt1"
        assert guaranteed
        assert 1 <= len(packing.bins) <= 2

    def test_certified_two_bin_instance(self):
        for seed in range(5):
            inst, wit = gen_instance(GeneratorSpec(seed=seed, n=9, ell=2))
            assert certify_opt(inst, 2, wit)
            packing, branch, guaranteed = pack_auto(inst, SolveConfig())
            assert validate_packing(packing, inst).ok
            if guaranteed:
                assert len(packing.bins) <= 4

    def test_crowd_of_mid_items_falls_back(self):
        # a hundred mid-size squares blow the enumeration limit on every
        # multi-bin guess, so the shelf packer takes over, flagged as such
        side = F(3, 20)
        inst = Instance([Item(i, side, side) for i in range(100)])
        packing, branch, guaranteed = pack_auto(inst, SolveConfig())
        assert branch == "shelf"
        assert guaranteed is False
        assert validate_packing(packing, inst).ok

    def test_never_raises_on_generated_mixes(self):
        rng = random.Random(11)
        for _ in range(15):
            items = [
                Item(i, F(rng.randint(5, 95), 100), F(rng.randint(5, 95), 100))
                for i in range(rng.randint(1, 20))
            ]
            inst = Instance(items)
            packing, branch, guaranteed = pack_auto(inst, SolveConfig())
            assert validate_packing(packing, inst).ok


class TestShelf:
    def test_everything_lands_exactly_once(self):
        rng = random.Random(3)
        items = [
            Item(i, F(rng.randint(1, 100), 100), F(rng.randint(1, 100), 100))
            for i in range(60)
        ]
        inst = Instance(items)
        packing = shelf_pack(inst)
        assert validate_packing(packing, inst).ok

    def test_full_squares_one_per_bin(self):
        inst = Instance([Item(i, F(1), F(1)) for i in range(3)])
        assert len(shelf_pack(inst).bins) == 3

    def test_failed_validation_raises(self, monkeypatch):
        import rectbin.cli

        broken = ValidationReport()
        broken.add("overlap", (0, 1), "forced for the test")
        monkeypatch.setattr(rectbin.cli, "validate_packing", lambda packing, instance: broken)
        with pytest.raises(PackingStuck):
            shelf_pack(Instance([Item(0, F(1, 2), F(1, 2))]))


class TestCommands:
    def test_gen_pack_validate_round_trip(self, tmp_path, capsys):
        inst = tmp_path / "a.inst"
        pack = tmp_path / "a.pack"
        assert main(["gen", "--n", "6", "--seed", "4", "--out", str(inst)]) == 0
        assert main(["pack", "--in", str(inst), "--out", str(pack)]) == 0
        out = capsys.readouterr().out
        assert "branch" in out
        assert main(["validate", "--in", str(inst), "--packing", str(pack)]) == 0

    def test_validate_rejects_corrupt_packing(self, tmp_path, capsys):
        inst = tmp_path / "a.inst"
        pack = tmp_path / "a.pack"
        inst.write_text("items 2\n0 3/4 3/4\n1 3/4 3/4\n")
        pack.write_text("bins 1\nbin 0\n0 0 0\n1 0 0\n")
        assert main(["validate", "--in", str(inst), "--packing", str(pack)]) == 1
        assert "overlap" in capsys.readouterr().out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.inst"
        bad.write_text("items 1\n0 3/0 1/2\n")
        out = tmp_path / "x.pack"
        assert main(["pack", "--in", str(bad), "--out", str(out)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_oracle_command(self, tmp_path, capsys):
        inst = tmp_path / "a.inst"
        inst.write_text("items 2\n0 3/4 3/4\n1 3/4 3/4\n")
        assert main(["oracle", "--in", str(inst), "--max-bins", "3"]) == 0
        assert capsys.readouterr().out.strip() == "opt 2"

    def test_oracle_limit_exit_code(self, tmp_path, capsys):
        inst = tmp_path / "a.inst"
        lines = ["items 12"] + [f"{i} 1/2 1/2" for i in range(12)]
        inst.write_text("\n".join(lines) + "\n")
        assert main(["oracle", "--in", str(inst), "--max-bins", "3"]) == 3

    def test_render_produces_one_file_per_bin(self, tmp_path):
        inst = tmp_path / "a.inst"
        pack = tmp_path / "a.pack"
        outdir = tmp_path / "svg"
        inst.write_text("items 2\n0 1/2 1/2\n1 1/2 1/2\n")
        pack.write_text("bins 2\nbin 0\n0 0 0\nbin 1\n1 0 1/2\n")
        assert main(["render", "--in", str(inst), "--packing", str(pack),
                     "--out", str(outdir)]) == 0
        files = sorted(p.name for p in outdir.iterdir())
        assert files == ["bin_000.svg", "bin_001.svg"]
        text = (outdir / "bin_000.svg").read_text()
        assert text.startswith("<svg")
        assert 'version="1.1"' in text
        assert ">0</text>" in text

    def test_pack_svg_flag(self, tmp_path, capsys):
        inst = tmp_path / "a.inst"
        pack = tmp_path / "a.pack"
        inst.write_text("items 1\n0 1/2 1/2\n")
        assert main(["pack", "--in", str(inst), "--out", str(pack),
                     "--svg", str(tmp_path / "svg")]) == 0
        assert (tmp_path / "svg").is_dir()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        inst = tmp_path / "a.inst"
        assert main(["gen", "--n", "8", "--ell", "2", "--seed", "9",
                     "--out", str(inst)]) == 0
        p1 = tmp_path / "p1.pack"
        p2 = tmp_path / "p2.pack"
        assert main(["pack", "--in", str(inst), "--out", str(p1)]) == 0
        assert main(["pack", "--in", str(inst), "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestRenderDetails:
    def test_y_axis_is_flipped(self):
        inst = Instance([Item(0, F(1, 4), F(1, 2))])
        layout = parse_packing("bins 1\nbin 0\n0 0 0\n").bins[0]
        svg = render_bin(layout, inst.by_id())
        # bottom-left placement must appear in the lower half of the image
        assert 'y="256.000"' in svg
