"""Config resolution, the auto dispatcher, and the command line surface."""

import hashlib
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import rectbin.cli
import rectbin.geometry
from rectbin.cli import main, pack_auto, shelf_pack
from rectbin.config import MAX_LIMIT, SolveConfig, config_from_env
from rectbin.errors import PackingStuck, PreconditionViolated
from rectbin.fileio import parse_instance, parse_packing, serialize_instance, serialize_packing
from rectbin.geometry import BinLayout, Instance, Item, Packing, validate_packing
from rectbin.oracle import (
    GeneratorSpec,
    certify_opt,
    gen_instance,
    plant_const_case2,
    plant_const_case4,
    plant_delta_height,
    plant_delta_width,
)
from rectbin.render_svg import render_bin

F = Fraction

# (instance, provenance, path) of pack_auto: one per branch, two of them
# (delta_height, flipped) built on a transposed instance
BRANCHES = [
    pytest.param(plant_delta_width(0)[0], "opt1", "delta_width", id="delta_width"),
    pytest.param(plant_delta_height(0)[0], "opt1", "delta_height", id="delta_height"),
    pytest.param(plant_const_case2(0)[0], "const2", "case2", id="case2"),
    pytest.param(plant_const_case4(0)[0], "const2", "case4/flip/flipped/spill", id="flipped"),
    pytest.param(Instance([Item(i, F(3, 5), F(3, 5)) for i in range(5)]), "shelf", "-",
                 id="shelf"),
]
SOLVER = {"opt1": "pack_opt1", "const2": "pack_opt_const", "shelf": "shelf_pack"}


def without_first_placement(solve):
    """solve, with the first placement of the packing it returns dropped."""
    def broken(*args, **kwargs):
        packing = solve(*args, **kwargs)
        first, *rest = packing.bins
        return Packing([BinLayout(first.width, first.height, first.placements[1:]), *rest],
                       packing.path)
    return broken


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

    def test_eps_is_exact(self):
        # a float would become a Fraction with a denominator of 2**58
        with pytest.raises(TypeError, match="floats are not allowed"):
            SolveConfig(eps_opt1=0.004)
        assert SolveConfig(eps_opt1="1/512").eps_opt1 == F(1, 512)
        assert SolveConfig(eps_opt1="0.004").eps_opt1 == F(1, 250)
        with pytest.raises(ValueError, match="eps_opt1 must lie in"):
            SolveConfig(eps_opt1=1)

    @pytest.mark.parametrize("name", ["k", "exact_limit", "enumeration_limit", "oracle_limit"])
    @pytest.mark.parametrize("value", [3.5, 3.0, True, F(3), "3", None])
    def test_counts_are_ints(self, name, value):
        # k=3.5 used to reach range() in pack_auto, and True passed as 1
        with pytest.raises(TypeError, match=f"{name} must be an int, got "):
            SolveConfig(**{name: value})

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

    @pytest.mark.parametrize("raw", ["1e-5000", "1E+5000", "1e-4300", "1.1e-4299"])
    def test_env_eps_number_bound(self, raw):
        # the bound of the instance parser: 1e-5000 would build a
        # 16610-bit denominator
        with pytest.raises(ValueError, match="EPS_OPT1"):
            config_from_env({"EPS_OPT1": raw})

    def test_env_integers_are_ascii(self):
        # int() would read the Arabic-Indic three as 3
        with pytest.raises(ValueError, match="K: bad integer '\u0663'"):
            config_from_env({"K": "\u0663"})
        with pytest.raises(ValueError, match="EXACT_LIMIT"):
            config_from_env({"EXACT_LIMIT": "\u0661\u0660"})

    @pytest.mark.parametrize("name", ["exact_limit", "enumeration_limit", "oracle_limit"])
    def test_limits_have_a_maximum(self, name):
        assert getattr(SolveConfig(**{name: MAX_LIMIT}), name) == MAX_LIMIT
        with pytest.raises(ValueError, match=f"{name} must lie in \\[1, {MAX_LIMIT}\\]"):
            SolveConfig(**{name: MAX_LIMIT + 1})
        with pytest.raises(ValueError, match=name):
            config_from_env({name.upper(): str(MAX_LIMIT + 1)})

    def test_env_eps_at_bound_is_exact(self):
        cfg = config_from_env({"EPS_OPT1": "1e-4299"})
        assert cfg.eps_opt1 == F(1, 10**4299)


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

    @pytest.mark.parametrize("inst,provenance,path", BRANCHES)
    def test_each_solve_validates_once(self, monkeypatch, inst, provenance, path):
        # every module that binds validate_packing counts into one list
        calls = []
        real = rectbin.geometry.validate_packing

        def spy(packing, instance):
            calls.append(packing)
            return real(packing, instance)

        for name, module in list(sys.modules.items()):
            if name.startswith("rectbin") and getattr(module, "validate_packing", None) is real:
                monkeypatch.setattr(module, "validate_packing", spy)
        packing, branch, _ = pack_auto(inst, SolveConfig())
        assert (branch, "/".join(packing.path) or "-") == (provenance, path)
        assert calls == [packing]

    @pytest.mark.parametrize("inst,provenance,path", BRANCHES)
    def test_invalid_packing_names_its_branch(self, monkeypatch, inst, provenance, path):
        name = SOLVER[provenance]
        monkeypatch.setattr(rectbin.cli, name, without_first_placement(getattr(rectbin.cli, name)))
        with pytest.raises(PackingStuck, match="missing_item") as info:
            pack_auto(inst, SolveConfig())
        assert str(info.value).startswith(f"{provenance} packing (path {path}) failed validation")

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

    def test_layouts_are_pinned(self):
        # recorded before the shelves moved onto BinLayout.row
        rng = random.Random(2028)
        h = hashlib.sha256()
        for _ in range(500):
            items = [Item(i, F(rng.randint(1, 12), 12),
                          F(rng.randint(1, 12), rng.choice([12, 16, 20])))
                     for i in range(rng.randint(0, 40))]
            h.update(serialize_packing(shelf_pack(Instance(items))).encode())
        assert h.hexdigest() == "b677b14484d8d8474a224d93cffbd6450ba38dad6840127c8792d695d9c56164"

    def test_shelves_fill_first_fit(self):
        # the 3/4-wide items take a shelf each and fill bin 0's height; the
        # 1/2 squares share one shelf in bin 1; the last, lowest item goes
        # back to bin 0's first shelf
        inst = Instance([Item(i, F(3, 4), F(1, 2)) for i in range(2)]
                        + [Item(2, F(1, 4), F(1, 4)), Item(3, F(1, 2), F(1, 2)),
                           Item(4, F(1, 2), F(1, 2))])
        assert serialize_packing(shelf_pack(inst)) == (
            "bins 2\nbin 0\n0 0 0\n1 0 1/2\n2 3/4 0\nbin 1\n3 0 0\n4 1/2 0\n")

    def test_failed_validation_raises(self, monkeypatch):
        # five squares above half a side: every guess fails, the fallback packs
        inst = Instance([Item(i, F(3, 5), F(3, 5)) for i in range(5)])
        monkeypatch.setattr(rectbin.cli, "shelf_pack", without_first_placement(shelf_pack))
        with pytest.raises(PackingStuck, match="shelf packing .*item 0 is not placed"):
            pack_auto(inst, SolveConfig())


class TestCommands:
    def test_gen_pack_validate_round_trip(self, tmp_path, capsys):
        inst = tmp_path / "a.inst"
        pack = tmp_path / "a.pack"
        assert main(["gen", "--n", "6", "--seed", "4", "--out", str(inst)]) == 0
        assert main(["pack", "--in", str(inst), "--out", str(pack)]) == 0
        out = capsys.readouterr().out
        assert "branch" in out
        assert main(["validate", "--in", str(inst), "--packing", str(pack)]) == 0

    def test_pack_to_stdout_reads_back(self, tmp_path, capsys):
        # the summary goes to stderr, so stdout holds the packing alone
        inst = tmp_path / "a.inst"
        inst.write_text("items 2\n0 1/2 1/2\n1 1/2 1/2\n")
        assert main(["pack", "--in", str(inst), "--out", "-"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("bins ")
        assert captured.err.startswith("bins ") and " branch " in captured.err
        pack = tmp_path / "a.pack"
        pack.write_text(captured.out)
        assert main(["validate", "--in", str(inst), "--packing", str(pack)]) == 0

    def test_gen_refuses_one_stdout_for_instance_and_witness(self, capsys):
        argv = ["gen", "--n", "6", "--seed", "4", "--out", "-", "--witness", "-"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--witness" in captured.err

    @pytest.mark.parametrize("out, witness", [("F", "F"), ("./F", "F")])
    def test_gen_refuses_one_file_for_instance_and_witness(self, out, witness, tmp_path,
                                                           monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["gen", "--n", "6", "--seed", "4", "--out", out, "--witness", witness]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("bad argument: ") and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

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

    def test_gen_rejects_more_pieces_than_the_grid_holds(self, tmp_path, capsys):
        out = tmp_path / "a.inst"
        assert main(["gen", "--n", "4097", "--seed", "1", "--out", str(out)]) == 2
        assert "at most 4096 grid cells" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_rejects_a_huge_count_at_once(self, tmp_path, capsys):
        out = tmp_path / "a.inst"
        start = time.perf_counter()
        assert main(["gen", "--n", "100000000", "--seed", "1", "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1
        assert "at most 4096 grid cells" in capsys.readouterr().err

    def test_negative_item_count_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "neg.inst"
        bad.write_text("items -3\n")
        out = tmp_path / "neg.pack"
        assert main(["pack", "--in", str(bad), "--out", str(out)]) == 2
        assert "line 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("error", [PackingStuck, PreconditionViolated])
    def test_internal_error_exit_code(self, tmp_path, capsys, monkeypatch, error):
        def broken(instance, config):
            raise error("forced for the test")

        monkeypatch.setattr(rectbin.cli, "pack_auto", broken)
        inst = tmp_path / "a.inst"
        inst.write_text("items 1\n0 1/2 1/2\n")
        out = tmp_path / "a.pack"
        assert main(["pack", "--in", str(inst), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == "internal error: forced for the test\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["1e-5000", "1.1e-4299", "1/0", "x"])
    def test_pack_eps_number_bound(self, tmp_path, capsys, eps):
        inst = tmp_path / "a.inst"
        inst.write_text("items 1\n0 1/2 1/2\n")
        out = tmp_path / "a.pack"
        assert main(["pack", "--in", str(inst), "--out", str(out), "--eps", eps]) == 2
        assert "--eps" in capsys.readouterr().err
        assert not out.exists()

    def test_pack_eps_accepts_decimal(self, tmp_path, capsys):
        inst = tmp_path / "a.inst"
        inst.write_text("items 1\n0 1/2 1/2\n")
        out = tmp_path / "a.pack"
        assert main(["pack", "--in", str(inst), "--out", str(out), "--eps", "0.001"]) == 0
        assert out.exists()

    def test_oracle_command(self, tmp_path, capsys):
        inst = tmp_path / "a.inst"
        inst.write_text("items 2\n0 3/4 3/4\n1 3/4 3/4\n")
        assert main(["oracle", "--in", str(inst), "--max-bins", "3"]) == 0
        assert capsys.readouterr().out.strip() == "opt 2"

    def test_oracle_limit_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("ORACLE_LIMIT", raising=False)
        inst = tmp_path / "a.inst"
        lines = ["items 12"] + [f"{i} 1/2 1/2" for i in range(12)]
        inst.write_text("\n".join(lines) + "\n")
        assert main(["oracle", "--in", str(inst), "--max-bins", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "limits exceeded: 12 items exceed the oracle limit 8\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["gen", "--seed", "1", "--out", "-", "--n", "\u0664"],
        ["pack", "--in", "-", "--out", "-", "--k", "\u0663"],
        ["oracle", "--in", "-", "--max-bins", "\u0662"],
    ])
    def test_integer_options_are_ascii(self, argv, capsys):
        # the non-ASCII value comes last, after its option
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"bad argument: bad integer {argv[-1]!r}\n"

    @pytest.mark.parametrize("command,variable", [("pack", "EXACT_LIMIT"), ("oracle", "ORACLE_LIMIT")])
    def test_a_limit_past_the_maximum_exits_2(self, tmp_path, capsys, monkeypatch, command,
                                              variable):
        # 1200 items of 1/40 x 1/40 once ended in a RecursionError
        # traceback under a limit of 2000
        monkeypatch.setenv(variable, "2000")
        inst = tmp_path / "a.inst"
        inst.write_text(serialize_instance(Instance([Item(i, F(1, 40), F(1, 40))
                                                     for i in range(1200)])))
        out = tmp_path / "a.pack"
        argv = [command, "--in", str(inst)]
        argv += ["--out", str(out)] if command == "pack" else ["--max-bins", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"bad argument: {variable.lower()} must lie in "
                                f"[1, {MAX_LIMIT}], got 2000\n")
        assert captured.out == "" and not out.exists()

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

    def test_render_rejects_an_unknown_id(self, tmp_path, capsys):
        inst = tmp_path / "a.inst"
        pack = tmp_path / "a.pack"
        outdir = tmp_path / "svg"
        inst.write_text("items 1\n0 1/2 1/2\n")
        pack.write_text("bins 1\nbin 0\n0 0 0\n7 1/2 0\n")
        assert main(["render", "--in", str(inst), "--packing", str(pack),
                     "--out", str(outdir)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "Violation(kind='unknown_item', item_ids=(7,), detail='item 7 not in instance')"]
        assert not outdir.exists()

    def test_oracle_rejects_max_bins_below_one(self, tmp_path, capsys):
        inst = tmp_path / "a.inst"
        inst.write_text("items 2\n0 3/4 3/4\n1 3/4 3/4\n")
        for bins in ("-2", "0"):
            assert main(["oracle", "--in", str(inst), "--max-bins", bins]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "--max-bins" in captured.err

    def test_pack_svg_flag(self, tmp_path, capsys):
        inst = tmp_path / "a.inst"
        pack = tmp_path / "a.pack"
        inst.write_text("items 1\n0 1/2 1/2\n")
        assert main(["pack", "--in", str(inst), "--out", str(pack),
                     "--svg", str(tmp_path / "svg")]) == 0
        assert (tmp_path / "svg").is_dir()

    @pytest.mark.parametrize("command,option", [
        (["pack", "--in", "a.inst", "--out", "a.pack", "--svg", "-"], "--svg"),
        (["render", "--in", "a.inst", "--packing", "a.pack", "--out", "-"], "--out"),
    ])
    def test_svg_directory_is_not_stdout(self, tmp_path, capsys, monkeypatch, command, option):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.inst").write_text("items 1\n0 1/2 1/2\n")
        if command[0] == "render":
            (tmp_path / "a.pack").write_text("bins 1\nbin 0\n0 0 0\n")
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and option in captured.err
        assert not (tmp_path / "-").exists()
        if command[0] == "pack":
            assert not (tmp_path / "a.pack").exists()

    def test_pack_guesses_stop_at_the_item_count(self, tmp_path, capsys, monkeypatch):
        # OPT <= n, so no guess runs past ell = n: a huge --k tries the
        # guesses of k = n + 1 and packs the same bytes
        inst = tmp_path / "a.inst"
        inst.write_text(serialize_instance(Instance([Item(i, F(3, 5), F(3, 5))
                                                     for i in range(13)])))
        guesses = []
        pack_opt_const = rectbin.cli.pack_opt_const

        def spy(instance, ell, *args, **kwargs):
            guesses.append(ell)
            return pack_opt_const(instance, ell, *args, **kwargs)

        monkeypatch.setattr(rectbin.cli, "pack_opt_const", spy)
        packs = []
        for k in (14, 10 ** 9):
            guesses.clear()
            out = tmp_path / f"k{k}.pack"
            start = time.perf_counter()
            assert main(["pack", "--in", str(inst), "--out", str(out), "--k", str(k)]) == 0
            assert time.perf_counter() - start < 1.0
            assert guesses == list(range(2, 14))
            packs.append(out.read_bytes())
        assert packs[0] == packs[1]

    def test_module_entry_point(self):
        # `python3 -m rectbin` runs the command line
        src = os.path.dirname(os.path.dirname(rectbin.cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
        done = subprocess.run([sys.executable, "-m", "rectbin", "gen", "--n", "3", "--seed", "1",
                               "--out", "-"], capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert len(parse_instance(done.stdout).items) == 3

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
