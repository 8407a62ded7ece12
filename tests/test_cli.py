import argparse
import contextlib
import gc
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusioncodes
from fusioncodes import cli, thresholds
from fusioncodes.cli import GRID_POINTS_CAP, main
from fusioncodes.graphs import enumerate_progenitor_records
from fusioncodes.thresholds import config_to_json_dict, default_bias_config, example_error_threshold_table


def write_config(tmp_path, with_epsilon=True):
    cfg = config_to_json_dict(default_bias_config())
    if with_epsilon:
        cfg["epsilon_M"] = [list(row) for row in example_error_threshold_table()]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestEnumerate:
    def test_single_photon(self, tmp_path):
        out = tmp_path / "lib"
        assert main(["enumerate", "--n", "1", "--out", str(out)]) == 0
        data = json.loads((out / "graphs.json").read_text())
        assert data["count"] == 1
        assert (out / "L.dot").exists()

    def test_two_photons(self, tmp_path):
        out = tmp_path / "lib"
        assert main(["enumerate", "--n", "2", "--out", str(out)]) == 0
        data = json.loads((out / "graphs.json").read_text())
        assert data["count"] == 2

    def test_zero_photons_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "0", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_cap_exceeded(self, tmp_path):
        assert main(["enumerate", "--n", "9", "--out", str(tmp_path / "x")]) == 4

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["enumerate", "--n", "3", "--out", str(out1)])
        main(["enumerate", "--n", "3", "--out", str(out2)])
        assert (out1 / "graphs.json").read_bytes() == (out2 / "graphs.json").read_bytes()


# sha256 of the `analyze --code C --w W --p-fail P` JSON files, concatenated
# in this order: W all 0, all 1 and alternating from 1 (LLPLPLPL: W
# 10010100 only), each at P 0.5, 0.3 and 0.1234567; every code with n <= 5
ANALYZE_JSON_SHA256 = {
    "L": "b04c8378ecaad87c6570e858a25468205ad711912b6a8c169ceb3ea1b64bc37a",
    "LL": "bf684ded5263b1191133f9df2beb133afc561108751b169e6e47452dc88f1a78",
    "LP": "edb99f2664575c706ec9639457569036d30e2ba08a049b590a7b0c9f7895a0b0",
    "LLL": "2cb515b62e719212564be453e231aa88e225d2c790727fd0f9318d91b4d5f61b",
    "LPL": "ce322a57ab3c46f3efb4e7a9f0d40a845157815aa4ad5bfb7d61359a2bec7306",
    "LLP": "1a51b9e859eba2b961aa900b4acfc0edc16c88e1b561816d807d190439b07d64",
    "LPP": "e6ea3ae5939b256b4a2be1957cfc580866a18d89055448f9dd6f90931fbdf897",
    "LLLL": "31624565aa592bec34731f0b182628b03d2841f7acff7d01b38dca3a1fa46ed1",
    "LPLL": "70a7c2fd1c698f276656d93cdb5c7cf2c9beb77e11f9e0a012fb6b970c978fae",
    "LLPL": "91c325fd751500598edc35f1a8f3f06905747a262328c6ce16a09ecf247180d6",
    "LPPL": "cea32ab4a27587f6b6af121bcf170401c0b79863ccf694ada249968fddb28dd1",
    "LLLP": "78e89c2daa50f21dca66397c7bf334f666941b929f19feaea065706d99c61672",
    "LPLP": "c8ff20531e00f21dad721d95a0048f1dd0a79d80cc241a5274aa76e62b80c8af",
    "LLPP": "a9b6fd2053207bc843be426c7f1eafaa6651f178cb054f2b622358b937c5f59f",
    "LPPP": "58c2cb850418bb0aeb747e6ff16a1973fe7a0a656582613138c969bb1671cd4f",
    "LLLLL": "9542e0b2fff9123879860677e11dfbb514f0906571ad0649f9e34d45eabd0fcc",
    "LPLLL": "88c332fdba68cdd9c962ecce195c96558d9826875749ed6d148363e0dd60c7c1",
    "LLPLL": "5d3402d9efccf6a6ababce5f8fbcd9b05dbffd37985e7682f8ded71e21609f7b",
    "LPPLL": "5900c765859a8df7887716652e86d06b550c8b3ebc2cf7cb61b081b6453a8d81",
    "LLLPL": "19ddf5009d870ee1da5a6c6a5955520d3e8e8d3c0193b1b245248a8bfbe70924",
    "LPLPL": "0b2ad3e8b8631008e877fc536e2b44dac4667790fb832de769bfba5796f7eb43",
    "LLPPL": "7c8a68399d9e896ac1a8d1853843c6b671099241bcea3a0908015d905ac14646",
    "LPPPL": "3ff8aa74ef476583e30764457fc5c64ab46e4fad417133653905f54c8068f527",
    "LLLLP": "5ff5f2122234859d39db9e413b358324398c93c325f21a1862689486960d9df6",
    "LPLLP": "a0ebc113b11ce307376411f70a398e0a6e62d6b0cf70fb633e05a2556bed5b85",
    "LLPLP": "3871c3e5c92979bd60931e4f51be6b8b4beab8ae469d6e5dd9e751ac3af47cdc",
    "LPPLP": "bbd7f446ddbfea1f5eca463dfacc18c1ea60da7876c0502fa2ce8f641a4f58ea",
    "LLLPP": "179d1515321413e197993055d608149be0506ba01ba90e6dc57e337d8d1bff3a",
    "LPLPP": "2adc88ea47554ac7fc55384b9caf2771ea33a3f089637b0c0d1262222e8d9422",
    "LLPPP": "30dbc4dbea0ce90c8172a51a41d45785050f9ebdd818dad8551344a3a75ec4ac",
    "LPPPP": "80f2efb180c6721410e7eaeeb1f48bb1d041393be2cea70b12af2303c3729f37",
    "LLPLPLPL": "bad28a2a60cc16a90fcf827316d5c2246e73905a30d8286e0423ad37b440fc7b",
}


class TestAnalyze:
    def test_report_written_with_manifest(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", "--code", "LL", "--w", "00", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["manifest"]["command"] == "analyze"
        assert data["report"]["n_code"] == 2
        assert data["report"]["rates"]

    def test_bad_w_is_config_error(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["analyze", "--code", "LL", "--w", "0", "--out", str(out)]) == 3

    def test_empty_w_is_config_error(self, tmp_path, capsys):
        # an empty basis is malformed like any other, not the all-zero default
        out = tmp_path / "r.json"
        assert main(["analyze", "--code", "LL", "--w", "", "--out", str(out)]) == 3
        assert not out.exists()
        assert "failure basis '' must be 2 bits of 0/1" in capsys.readouterr().err

    def test_report_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "a.json"
        for code, digest in ANALYZE_JSON_SHA256.items():
            n = len(code)
            bases = ["10010100"] if code == "LLPLPLPL" else ["0" * n, "1" * n, ("10" * n)[:n]]
            h = hashlib.sha256()
            for w in bases:
                for p_fail in ("0.5", "0.3", "0.1234567"):
                    assert main(["analyze", "--code", code, "--w", w, "--p-fail", p_fail, "--out", str(out)]) == 0
                    h.update(out.read_bytes())
            assert h.hexdigest() == digest, code

    @pytest.mark.parametrize(
        "flag, value",
        [("--p-fail", "1.5"), ("--p-fail", "nan"), ("--p-fail", "-0.1"), ("--eta-grid", "1,x"),
         ("--eta-grid", "1.0,1.5"), ("--eta-grid", "inf")],
    )
    def test_bad_number_is_usage_error(self, tmp_path, flag, value):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--code", "LL", flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


# sha256 of the `optimize-w --code C --bias B --p-fail P` JSON files,
# concatenated over B randomized, passive and P 0.5, 0.3 in that order,
# for each n=6 code and LLPLPLPL
OPTIMIZE_W_JSON_SHA256 = {
    "LLLLLL": "37bae6c5354354bdc2fa523dd83b3f5c7cff31f1ecac5f4b0c0d012f31b469fa",
    "LPLLLL": "e341102920ee0ad261b15cf156d2b1c7c93363cd1959e16e84687b76977c684a",
    "LLPLLL": "f5ed8133faa92107360d6e99276fcbdb2538e31da19adb9303d97cb7c8d313c4",
    "LPPLLL": "c5131daccdbd93394d3862fedc3845f78141554e8648fe36a5ab2a612e7b3920",
    "LLLPLL": "2ac4346f2c3e01c37fc5aeffa98e13c9fd279aaf06f1a6e52095c154b64d398b",
    "LPLPLL": "ddd89e03e9316b29f6c32423ef970d16c6c589dda29d8d6dd3cf13d6dcb91bf8",
    "LLPPLL": "cd1a0f1b6f0490069e0eb86194c7400b413ef1ecee9c04fbc4d0add7b4bc9390",
    "LPPPLL": "68e6b5d8d625d77de3af8175324575f3e9425045059db3f338fd13f66963a9b4",
    "LLLLPL": "bc61bf74243d2b22d1371e67e17ea7f926c8b6c1555f3c379bef3ed0ce82b556",
    "LPLLPL": "fb913511269abad223e63d6a4abf3f6b2174f56dfdd60dcebbf81b7279e9ff19",
    "LLPLPL": "24c55f758824b0c27cdcacf6c2c2713eced362b0f26c4d51799383d582c44256",
    "LPPLPL": "6a084d577a4a45683b6dcb8d90099aac0851f7c1b277a06b35f1bb4f3e1333a6",
    "LLLPPL": "ce501cb55ab5b7a004fc8591363dfce2b64b5aa99250c5501a74fb729c904dec",
    "LPLPPL": "86a8f9f90cc34c34024ddb3fb05904405488b16887d15f08ea706fae8e5b3971",
    "LLPPPL": "846ac6e43ee0441d7ddc2ddcf52f2a2161c4fadf48134006f8584c461b1ac5a7",
    "LPPPPL": "df1fd6175cf9815500533d94f83937cde22f4d4cb80d6c191a441a8132e02d9e",
    "LLLLLP": "b16fa0d2cc0af36a086bbf7d7c40c74ac9e311fe92416c2dbc9996b15b82fa0a",
    "LPLLLP": "66770c37ff7854ec6fcf88c785b2b5cb94709dd06120979be4dfd1a81460051b",
    "LLPLLP": "042fa27f806e3e3be34c909cdcb1b695303c89beaf86af47c3dbea380918a16c",
    "LPPLLP": "d1535d5fd693dea94008792662d1d2ed8e5de788ed8d2de19487c9d5b22675fb",
    "LLLPLP": "6633d96a73daae76636541cd91fa0190e792242d7f342dbdc82571f466648eb7",
    "LPLPLP": "f219aef2f08fcb6aa3d48d960244b9a4f09d75cb82f127456ec711590ee724f4",
    "LLPPLP": "0c1590ddea56f97f688dbe7418bbae60fab51783e009c03d86a5e12219d09d38",
    "LPPPLP": "0b9d2812de02f67b20380f5d3064932fde1578f85913886f6a60df1908928ca1",
    "LLLLPP": "80cba81e4bf3523077f2d0ac1f4ea923e0c0fe5e1a760611ac4944ffc54c8f26",
    "LPLLPP": "31cd5fca592f72392a1ff7f531e79b8cb3e35b97d22106a69f74521d3057f844",
    "LLPLPP": "e97db27ee820455a60cc074ed102e43cafe65c1e689bd2aa7822fb72d4189743",
    "LPPLPP": "e4f46c8ad2f8013d624cbb5d1a81068f779181019a0dbee4ccdea79b89f57668",
    "LLLPPP": "afeec0221c255c20099113f87133c51fe36b6bbc637a7c314923ba37a016f2f1",
    "LPLPPP": "78df5a9b8b44d36bb36d3993f67b82a3997af2c388cfe21b8176a0087a413921",
    "LLPPPP": "ce8bfe35d1b292332ee8d374354a4f88f013a85494059e17489288ef4705c167",
    "LPPPPP": "0922d9c0e73f9d8bd23f0565c2703dd8999f493e1e7828f22cc1c1861959787b",
    "LLPLPLPL": "9d53a3d0554a608e4f061b97e6e85abb9e9130c73c4d6d2024077b44614c0088",
}


class TestOptimizeW:
    def test_report_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "w.json"
        for code, digest in OPTIMIZE_W_JSON_SHA256.items():
            h = hashlib.sha256()
            for bias in ("randomized", "passive"):
                for p_fail in ("0.5", "0.3"):
                    argv = ["optimize-w", "--code", code, "--bias", bias, "--p-fail", p_fail, "--out", str(out)]
                    assert main(argv) == 0
                    h.update(out.read_bytes())
            assert h.hexdigest() == digest, code

    def test_reports_best_basis(self, tmp_path):
        out = tmp_path / "w.json"
        cfg = write_config(tmp_path)
        assert main(["optimize-w", "--code", "LL", "--config", cfg, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["w_star"] in {"00", "01", "10", "11"}
        assert data["gamma_star"] > 0

    @pytest.mark.parametrize("bias", ["randomized", "passive"])
    @pytest.mark.parametrize("p_tilde", [0.47, 0.48])
    def test_placeholder_table_binds_passive_mode_only(self, tmp_path, capsys, bias, p_tilde):
        # without p_tilde_biased, passive mode reads the placeholder table
        # 2.1 p_tilde at zero bias, which leaves (0, 1) from p_tilde = 1/2.1 on
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_tilde_randomized": p_tilde}))
        out = tmp_path / "w.json"
        code = main(["optimize-w", "--code", "LLL", "--bias", bias, "--config", str(cfg), "--out", str(out)])
        if bias == "passive" and p_tilde == 0.48:
            assert code == 3 and not out.exists()
            assert "p_tilde_biased" in capsys.readouterr().err
        else:
            assert code == 0 and json.loads(out.read_text())["bias_mode"] == bias


# sha256 of the `threshold --n-min 1 --n-max N --bias B --p-fail P` CSV
# followed by its .codes.json, default config, keyed by (B, P); N is 6,
# and 5 at P 0.1234567 (q near 2^30: numerators past 2^53)
THRESHOLD_SHA256 = {
    ("randomized", "0.5"): "c61d40f02ae83033e6a2de9c425b093ae17b3c50528fd896a7b2c31f7491d6b7",
    ("randomized", "0.3"): "86dc3b945033881c4e643ef2aef9d036abd79cb79513f2df41b3a4a7cc6e6892",
    ("randomized", "0.1234567"): "abaf2e5299c746ff5483315d0085892d3a8a79c0dadf5662c281d554e46ad5cf",
    ("passive", "0.5"): "8cdd263833e843eab894b0d1bf31647a22bbac033bf41ab7d5edda0f6200f2d5",
    ("passive", "0.3"): "7c4647fad6999276aa22a52571fed5c92933154dc61fd27a7235e0a630c686ff",
    ("passive", "0.1234567"): "f92b0f752d870586d07bdf80805cda65cc0838b8f49e28379ae419b8666b8257",
}


class TestThreshold:
    def test_output_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "t.csv"
        for (bias, p_fail), digest in THRESHOLD_SHA256.items():
            n_max = "5" if p_fail == "0.1234567" else "6"
            argv = ["threshold", "--n-min", "1", "--n-max", n_max, "--bias", bias, "--p-fail", p_fail]
            assert main(argv + ["--out", str(out)]) == 0
            h = hashlib.sha256(out.read_bytes())
            h.update((tmp_path / "t.csv.codes.json").read_bytes())
            assert h.hexdigest() == digest, (bias, p_fail)

    def test_small_range(self, tmp_path):
        out = tmp_path / "thresholds.csv"
        cfg = write_config(tmp_path)
        code = main(
            ["threshold", "--config", cfg, "--n-min", "1", "--n-max", "2", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("n,code_id,bias_mode,gamma_star")
        assert len(lines) == 3
        gammas = [float(line.split(",")[3]) for line in lines[1:]]
        assert gammas[0] <= gammas[1]
        assert os.path.exists(str(out) + ".manifest.json")
        assert os.path.exists(str(out) + ".codes.json")

    def test_missing_config_key(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"p_tilde_biased": [[0, 0.2], [1, 0.1]]}))
        out = tmp_path / "t.csv"
        assert main(["threshold", "--config", str(bad), "--n-max", "1", "--out", str(out)]) == 3

    # falsy values too: only a missing key, null and [] read as no rows
    @pytest.mark.parametrize("key", ["p_tilde_biased", "epsilon_M"])
    @pytest.mark.parametrize("rows", [[[0.1]], [[0.1, "x"]], [0.1, 0.2], {"a": 1}, [[0.1, 1e999]], 0, False, "", {}])
    def test_malformed_config_rows_are_config_errors(self, tmp_path, capsys, key, rows):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_tilde_randomized": 0.14, key: rows}))
        out = tmp_path / "t.csv"
        assert main(["threshold", "--config", str(cfg), "--n-max", "2", "--out", str(out)]) == 3
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["p_tilde_biased", "epsilon_M"])
    @pytest.mark.parametrize("value", [None, []])
    def test_null_and_empty_config_rows_read_as_absent(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_tilde_randomized": 0.14, key: value}))
        # passive mode falls back to the placeholder table; region needs epsilon_M rows
        argv = ["optimize-w", "--code", "LL", "--bias", "passive", "--config", str(cfg), "--out", str(tmp_path / "w")]
        assert main(argv) == 0
        assert main(["region", "--code", "LL", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 3
        assert "missing key: epsilon_M" in capsys.readouterr().err

    def test_undecodable_config_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'\xff\xfe{"p_tilde_randomized": 0.14}')
        assert main(["threshold", "--config", str(cfg), "--n-max", "2", "--out", str(tmp_path / "t.csv")]) == 3

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["threshold", "--config", cfg, "--n-max", "2", "--out", str(a)])
        main(["threshold", "--config", cfg, "--n-max", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "bias, evaluations",
        [("randomized", [68, 204, 506, 1632]), ("passive", [68, 204, 506, 1534])],
        ids=["randomized", "passive"],
    )
    def test_pruned_search_horner_evaluations(self, tmp_path, monkeypatch, bias, evaluations):
        # per size n = 2..5: the 680 (code, basis) rows there would take about 30 evaluations apiece
        # in full bisections; one more per code gives the winner's diagnostics
        calls = []
        real = thresholds._rates

        def counting(cx, cz, gamma):
            calls.append(len(cx))
            return real(cx, cz, gamma)

        monkeypatch.setattr(thresholds, "_rates", counting)
        argv = ["threshold", "--n-min", "2", "--n-max", "5", "--bias", bias, "--out", str(tmp_path / "t.csv")]
        assert main(argv) == 0
        assert [calls.count(n + 1) for n in range(2, 6)] == evaluations

    @pytest.mark.parametrize("n_min, n_max, expected", [("9", "9", 4), ("5", "3", 2)])
    def test_size_range_checked_before_search(self, tmp_path, n_min, n_max, expected):
        out = tmp_path / "t.csv"
        assert main(["threshold", "--n-min", n_min, "--n-max", n_max, "--out", str(out)]) == expected
        assert not out.exists()


# sha256 of the `region --code C` CSV under write_config's config, every
# other flag at its default, for each n=6 code and LLPLPLPL
REGION_CSV_SHA256 = {
    "LLLLLL": "bf077a2c8d57b9c57532ee59781c3d9e3b856cc18d143f3c2b5ec089414336c8",
    "LPLLLL": "f462e1d66de8374419c85e0278e042f4e233a06a95c3987cc678be271bacf8f0",
    "LLPLLL": "49c49a3582987154d79e32eddefc7546ba0ae9487766fde11709315645b2e2fc",
    "LPPLLL": "4280c2f9be549c2bc5e5b37f336a5d17c4d843328df69bd39d5d4c4f284b380a",
    "LLLPLL": "7a43f66255589482cc0bd28945a8c9200fdd17ff69142d331a149cfaeafa20aa",
    "LPLPLL": "feb69bba1b763fad3fff1dc4bf6b02dc14ef173c168c8855e8fd7bce5b84a79e",
    "LLPPLL": "90e9993f76a5160d8af5be03061551756b233cb1014646c49ca9bf74e7102ca5",
    "LPPPLL": "81e20ec9dab67a6a77beb327fdb61d51f4310b790deffff2d14b2effcadeab37",
    "LLLLPL": "97d21616fcab1692eddcb63270d03158708f1ba432e5681772899b6d0fd3bf48",
    "LPLLPL": "311570af904b3f71cd9eea369d6bb1a5cd627bd6f76a57fa322afce4e0660cc8",
    "LLPLPL": "83d8bc9c4156292fdadb8efb318dd3f9795568ce2729c9126e64b17ec71160f4",
    "LPPLPL": "de949d995c0ce533964a28532e724a8427af3891b726f1b5fceb0c85f8b64a39",
    "LLLPPL": "75b0559501a8d851b99c4b7562590faacd811b1bfc6ad72199aa77fa38a10d6a",
    "LPLPPL": "8f6e379748bfbfa222db3eeab9fd243d674e3e3d637660176d6805ee0bba9e1b",
    "LLPPPL": "c6350be4d7189155b8a32045c55bd9ec1301ce71132e66c2a6d53008e4330a4e",
    "LPPPPL": "2938fb2187d94901c4bbd0a14d24e85eb0b2fa4387d23276c6f4fb551b5b1834",
    "LLLLLP": "bf077a2c8d57b9c57532ee59781c3d9e3b856cc18d143f3c2b5ec089414336c8",
    "LPLLLP": "f462e1d66de8374419c85e0278e042f4e233a06a95c3987cc678be271bacf8f0",
    "LLPLLP": "49c49a3582987154d79e32eddefc7546ba0ae9487766fde11709315645b2e2fc",
    "LPPLLP": "4280c2f9be549c2bc5e5b37f336a5d17c4d843328df69bd39d5d4c4f284b380a",
    "LLLPLP": "7a43f66255589482cc0bd28945a8c9200fdd17ff69142d331a149cfaeafa20aa",
    "LPLPLP": "feb69bba1b763fad3fff1dc4bf6b02dc14ef173c168c8855e8fd7bce5b84a79e",
    "LLPPLP": "90e9993f76a5160d8af5be03061551756b233cb1014646c49ca9bf74e7102ca5",
    "LPPPLP": "81e20ec9dab67a6a77beb327fdb61d51f4310b790deffff2d14b2effcadeab37",
    "LLLLPP": "97d21616fcab1692eddcb63270d03158708f1ba432e5681772899b6d0fd3bf48",
    "LPLLPP": "311570af904b3f71cd9eea369d6bb1a5cd627bd6f76a57fa322afce4e0660cc8",
    "LLPLPP": "83d8bc9c4156292fdadb8efb318dd3f9795568ce2729c9126e64b17ec71160f4",
    "LPPLPP": "de949d995c0ce533964a28532e724a8427af3891b726f1b5fceb0c85f8b64a39",
    "LLLPPP": "75b0559501a8d851b99c4b7562590faacd811b1bfc6ad72199aa77fa38a10d6a",
    "LPLPPP": "8f6e379748bfbfa222db3eeab9fd243d674e3e3d637660176d6805ee0bba9e1b",
    "LLPPPP": "c6350be4d7189155b8a32045c55bd9ec1301ce71132e66c2a6d53008e4330a4e",
    "LPPPPP": "2938fb2187d94901c4bbd0a14d24e85eb0b2fa4387d23276c6f4fb551b5b1834",
    "LLPLPLPL": "878c5d8c5370da8c7dd7f5bf76eb233898c946963380147da121c425c3f334cb",
}


# sha256 of the `region` CSV on paths the pins above miss: another p_fail,
# a finer grid, and a size whose winner the search picks
REGION_PATH_SHA256 = {
    ("--code", "LLPLPL", "--p-fail", "0.25"): "2344612a03b50bf0a2f54a5cd442426f7fd540174c449c935303d6e44915c3c1",
    ("--code", "LLPLPLPL", "--p-fail", "0.25"): "751f85f364657cae560175b6ae268210fecc571415d4914a00e97531e9666737",
    ("--code", "LLPLPL", "--grid-points", "201"): "d9a7d2db22a2b1bc2dc51893af9521ad506bb4a8de69a17ba69114d89fe4735b",
    ("--code", "LLPLPLPL", "--grid-points", "201"): "97bf83c8da06bc72bfb185c5ea1b93c5c11e29acc697167596e38aeaa96195b4",
    ("--n", "8"): "878c5d8c5370da8c7dd7f5bf76eb233898c946963380147da121c425c3f334cb",
}


class TestRegion:
    def test_zero_epsilon_map_warns_but_succeeds(self, tmp_path, capsys):
        cfg_dict = config_to_json_dict(default_bias_config())
        cfg_dict["epsilon_M"] = [[0.0, 0.0], [1.0, 0.0]]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_dict))
        out = tmp_path / "region.csv"
        assert main(["region", "--code", "LL", "--config", str(cfg), "--out", str(out)]) == 0
        assert "empty" in capsys.readouterr().err

    def test_region_for_small_code(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "region.csv"
        assert main(
            ["region", "--code", "LLL", "--config", cfg, "--grid-points", "5", "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "gamma,epsilon_boundary"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 5
        # grid stays below the loss threshold and the boundary closes
        assert rows[-1][1] == pytest.approx(0.0, abs=1e-6)

    def test_missing_epsilon_table(self, tmp_path):
        cfg = write_config(tmp_path, with_epsilon=False)
        out = tmp_path / "region.csv"
        assert main(["region", "--code", "LL", "--config", cfg, "--out", str(out)]) == 3

    def test_size_over_cap(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["region", "--n", "9", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 4

    @pytest.mark.parametrize("points", [GRID_POINTS_CAP + 1, 10**11])
    def test_grid_over_cap_is_resource_error(self, tmp_path, capsys, points):
        # checked before any work: 10^11 points once ended in a numpy
        # allocation traceback, 2 * 10^6 ran for minutes
        cfg = write_config(tmp_path)
        out = tmp_path / "r.csv"
        argv = ["region", "--code", "LL", "--config", cfg, "--grid-points", str(points), "--out", str(out)]
        assert main(argv) == 4 and not out.exists()
        assert f"{points} grid points exceeds cap {GRID_POINTS_CAP}" in capsys.readouterr().err

    def test_single_grid_point_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["region", "--code", "LL", "--config", cfg, "--grid-points", "1", "--out", str(tmp_path / "r.csv")])
        assert exc.value.code == 2

    def test_region_csv_bytes_are_pinned(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "r.csv"
        for code, digest in REGION_CSV_SHA256.items():
            assert main(["region", "--code", code, "--config", cfg, "--out", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, code

    @pytest.mark.parametrize("args", list(REGION_PATH_SHA256), ids=" ".join)
    def test_region_path_bytes_are_pinned(self, tmp_path, args):
        cfg = write_config(tmp_path)
        out = tmp_path / "r.csv"
        assert main(["region", *args, "--config", cfg, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == REGION_PATH_SHA256[args]

    def test_code_region_builds_one_table(self, tmp_path, monkeypatch):
        # only the loss threshold counts a code's patterns; the decoder reads the code's packed cosets
        built = []
        real = thresholds.basis_numerators

        def counting(code, p_fail):
            built.append(code.code_id)
            return real(code, p_fail)

        monkeypatch.setattr(thresholds, "basis_numerators", counting)
        cfg = write_config(tmp_path)
        assert main(["region", "--code", "LLPL", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
        assert built == ["LLPL"]
        # the search over n=4 counts each code once, and the winner's region none more
        built.clear()
        assert main(["region", "--n", "4", "--config", cfg, "--out", str(tmp_path / "r4.csv")]) == 0
        assert sorted(built) == sorted(r.sequence for r in enumerate_progenitor_records(4))

    def test_size_region_reuses_the_search_result(self, tmp_path, monkeypatch):
        # the region of the n=4 winner takes its threshold from the search:
        # one loss_threshold call per n=4 code and none more; fusion imports the name, so it is patched there too
        from fusioncodes import fusion

        calls = []
        real = thresholds.loss_threshold

        def counting(code, *args, **kwargs):
            calls.append(code.code_id)
            return real(code, *args, **kwargs)

        for module in (thresholds, fusion):
            monkeypatch.setattr(module, "loss_threshold", counting)
        cfg = write_config(tmp_path)
        assert main(["region", "--n", "4", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
        assert sorted(calls) == sorted(r.sequence for r in enumerate_progenitor_records(4))


class TestCompile:
    def test_compile_ten_chain(self, tmp_path):
        outer = tmp_path / "outer.json"
        outer.write_text(json.dumps({"n": 10, "edges": [[i, i + 1] for i in range(9)], "emitter": 0}))
        out = tmp_path / "run"
        code = main(["compile", "--outer", str(outer), "--inner", "LPL", "--out", str(out)])
        assert code == 0
        seq = json.loads((tmp_path / "run.sequence.json").read_text())
        assert seq["verified"] is True
        assert seq["sequence"]["photons"] == 30
        csv_lines = (tmp_path / "run.resources.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "inner_n,spin_spin_gates,max_emitter_depth,photons"

    def test_memory_mode_has_swaps(self, tmp_path):
        outer = tmp_path / "outer.json"
        outer.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "emitter": 0}))
        out = tmp_path / "mm"
        assert main(
            ["compile", "--outer", str(outer), "--inner", "LL", "--mode", "emitter-memory", "--out", str(out)]
        ) == 0
        seq = json.loads((tmp_path / "mm.sequence.json").read_text())
        assert any(i["op"] == "swap" for i in seq["sequence"]["instructions"])

    def test_injected_fault_fails_verification(self, tmp_path):
        outer = tmp_path / "outer.json"
        outer.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]], "emitter": 0}))
        out = tmp_path / "bad"
        code = main(
            ["compile", "--outer", str(outer), "--inner", "LL", "--inject-fault", "--out", str(out)]
        )
        assert code == 5
        seq = json.loads((tmp_path / "bad.sequence.json").read_text())
        assert seq["verified"] is False

    @pytest.mark.parametrize("mode", ["two-emitter", "emitter-memory"])
    def test_fault_with_no_cz_to_delete_is_usage_error(self, tmp_path, capsys, mode):
        # one outer vertex compiles to no spin-spin CZ, so the flag would leave the sequence intact
        outer = tmp_path / "outer.json"
        outer.write_text(json.dumps({"n": 1, "edges": []}))
        argv = ["compile", "--outer", str(outer), "--inner", "LLPL", "--mode", mode, "--out", str(tmp_path / "one")]
        assert main(argv + ["--inject-fault"]) == 2
        assert capsys.readouterr().err == (
            "usage error: --inject-fault finds no spin-spin CZ to delete (one outer vertex)\n"
        )
        assert list(tmp_path.iterdir()) == [outer]  # no output file written
        assert main(argv) == 0

    @pytest.mark.parametrize("mode", ["two-emitter", "emitter-memory"])
    @pytest.mark.parametrize(
        "outer_json, inner, line",
        [
            (
                {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
                "LLPL",
                "target generator 20 (+IIXXIIZIIIIZZZIIIIIIXI) is missing from the compiled group",
            ),
            (
                {"n": 11, "edges": [[0, v] for v in range(1, 11)]},
                "LLPLPLPL",
                "target generator 90 (+" + "IIIIZIIZIIZIXZ" + "IIIIZIXZ" * 9 + "IIIIXIIIIIIIIII) is missing from the compiled group",
            ),
        ],
        ids=["chain4-LLPL", "star11-LLPLPLPL"],
    )
    def test_injected_fault_names_the_tableau_generator(self, tmp_path, capsys, mode, outer_json, inner, line):
        # both targets exceed the state vector's auto limits, so the tableau reports
        outer = tmp_path / "outer.json"
        outer.write_text(json.dumps(outer_json))
        argv = ["compile", "--outer", str(outer), "--inner", inner, "--mode", mode, "--inject-fault"]
        assert main(argv + ["--out", str(tmp_path / "bad")]) == 5
        assert capsys.readouterr().err == f"verification failed: {line}\n"

    @pytest.mark.parametrize("mode", ["two-emitter", "emitter-memory"])
    def test_leading_path_edge_inner_compiles_as_leading_leaf(self, tmp_path, mode):
        # a leading P builds the marked graph of a leading L, so both ids write the same sequence and resources
        outer = tmp_path / "chain4.json"
        outer.write_text(json.dumps(CHAIN4))

        def outputs(inner):
            assert main(["compile", "--outer", str(outer), "--inner", inner, "--mode", mode, "--out", str(tmp_path / inner)]) == 0
            payload = json.loads((tmp_path / f"{inner}.sequence.json").read_text())
            del payload["manifest"]
            return payload, (tmp_path / f"{inner}.resources.csv").read_bytes()

        for n in range(1, 6):
            for rec in enumerate_progenitor_records(n):
                assert outputs("P" + rec.sequence[1:]) == outputs(rec.sequence), rec.sequence

    def test_non_caterpillar_outer_rejected(self, tmp_path):
        outer = tmp_path / "outer.json"
        outer.write_text(
            json.dumps({"n": 7, "edges": [[0, 1], [1, 2], [0, 3], [3, 4], [0, 5], [5, 6]]})
        )
        assert main(["compile", "--outer", str(outer), "--inner", "L", "--out", str(tmp_path / "x")]) == 3

    def test_inner_over_cap_is_resource_error(self, tmp_path):
        outer = tmp_path / "outer.json"
        outer.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
        assert main(["compile", "--outer", str(outer), "--inner", "L" * 9, "--out", str(tmp_path / "x")]) == 4

    @pytest.mark.parametrize(
        "outer_json, inner",
        [
            ({"n": 3}, "L"),
            ([[0, 1], [1, 2]], "L"),
            ({"n": 3, "edges": [[1, 1]]}, "L"),
            ({"n": 3, "edges": [[0, 5]]}, "L"),
            ({"n": 3, "edges": [[0, 1], [1, 2]]}, ""),
            ({"n": 2, "edges": [[0, 1], [1, 0]]}, "L"),
        ],
        ids=["no-edges", "list-root", "self-loop", "out-of-range", "empty-inner", "duplicate-edge"],
    )
    def test_bad_input_is_config_error(self, tmp_path, outer_json, inner):
        outer = tmp_path / "outer.json"
        outer.write_text(json.dumps(outer_json))
        assert main(["compile", "--outer", str(outer), "--inner", inner, "--out", str(tmp_path / "x")]) == 3


class TestConfigDigest:
    @pytest.mark.parametrize("blocked", [(), ("_sha256", "_sha2")], ids=["builtin", "hashlib-fallback"])
    @pytest.mark.parametrize("source", ["default", "file"])
    def test_digest_is_sha256_of_canonical_json(self, tmp_path, monkeypatch, source, blocked):
        if source == "file":
            with open(write_config(tmp_path)) as fh:
                cfg = json.load(fh)
        else:
            cfg = config_to_json_dict(default_bias_config())
        for name in blocked:
            monkeypatch.setitem(sys.modules, name, None)  # its import raises ImportError
        manifest = cli._manifest(argparse.Namespace(n_max=5, out="t.csv"), "threshold", cfg)
        assert manifest["config_digest"] == hashlib.sha256(cli._canonical_json(cfg).encode()).hexdigest()


def _child_env(*first: str) -> dict:
    """Environment of a child interpreter that imports the package under test,
    with the ``first`` directories ahead of it on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fusioncodes.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [*first, src, os.environ.get("PYTHONPATH")]))}


def _cli_process(argv, cwd, env=None, **kwargs) -> subprocess.CompletedProcess:
    """``python -m fusioncodes.cli *argv`` in a fresh interpreter; stdout and stderr captured as text by default."""
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run(
        [sys.executable, "-m", "fusioncodes.cli", *argv], cwd=cwd, env=env or _child_env(), text=True, **kwargs
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize-w", "--code", "LL", "--config", "deep.json", "--out", "w.json"],
        ["region", "--code", "LL", "--config", "deep.json", "--out", "r.csv"],
        ["compile", "--outer", "deep.json", "--inner", "L", "--out", "c"],
    ],
    ids=["optimize-w", "region", "compile"],
)
def test_deeply_nested_json_is_config_error(tmp_path, argv):
    # past about a thousand levels json.load raises RecursionError, not ValueError
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    proc = _cli_process(argv, tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("config error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, line",
    [
        (["enumerate", "--n", "abc"], "fusioncodes enumerate: error: argument --n: expected a positive integer, got 'abc'"),
        (
            ["region", "--code", "LL", "--grid-points", "2.5"],
            "fusioncodes region: error: argument --grid-points: a grid needs at least 2 points, got '2.5'",
        ),
        (["analyze", "--code", "LL", "--p-fail", "x"], "fusioncodes analyze: error: argument --p-fail: expected a number in [0, 1], got 'x'"),
        (["analyze", "--code", "LL", "--eta-grid", ""], "fusioncodes analyze: error: argument --eta-grid: expected a number in [0, 1], got ''"),
        (
            ["analyze", "--code", "LL", "--eta-grid", "0.5,,0.4"],
            "fusioncodes analyze: error: argument --eta-grid: expected a number in [0, 1], got ''",
        ),
    ],
    ids=["n", "grid-points", "p-fail", "eta-grid-empty", "eta-grid-empty-item"],
)
def test_unparseable_value_reads_like_out_of_range(tmp_path, capsys, argv, line):
    # int() and float() raise before the range check; the message must not name the private converter
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == line
    assert not (tmp_path / "out").exists()


class TestCodeSizeCap:
    @pytest.mark.parametrize("command", ["analyze", "optimize-w", "region"])
    @pytest.mark.parametrize("code", ["L" * 20_000, "LPx" * 7_000], ids=["long", "long-malformed"])
    def test_long_code_id_exits_before_the_code_is_built(self, tmp_path, capsys, command, code):
        argv = [command, "--code", code, "--out", str(tmp_path / "out")]
        if command != "analyze":
            argv += ["--config", write_config(tmp_path)]
        start = time.perf_counter()
        assert main(argv) == 4
        assert time.perf_counter() - start < 1.0
        assert f"code size {len(code)} exceeds cap 8" in capsys.readouterr().err


class TestDuals:
    def test_duals_all_verified(self, tmp_path):
        out = tmp_path / "duals.json"
        assert main(["duals", "--n", "3", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["duals"]) == 4
        assert all(d["swap_verified"] for d in data["duals"])


def _fresh_python(script: str, cwd) -> None:
    """Run ``script`` in a new interpreter that imports the package under test."""
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


CHAIN4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}


class TestProcessEntry:
    """``python -m fusioncodes.cli`` and the ``fusioncodes`` script enter ``cli.run``."""

    @pytest.mark.parametrize(
        "argv, code, line",
        [
            (["enumerate", "--n", "1", "--out", "lib"], 0, None),
            (["enumerate", "--n", "abc", "--out", "lib"], 2, "fusioncodes enumerate: error: argument --n: expected a positive integer, got 'abc'"),
            (["optimize-w", "--code", "LL", "--config", "bad.json", "--out", "w.json"], 3, "config error: config root must be a JSON object"),
            (["enumerate", "--n", "9", "--out", "lib"], 4, "resource cap exceeded: 9 photons exceeds cap 8"),
            (
                ["compile", "--outer", "chain4.json", "--inner", "LLPL", "--inject-fault", "--out", "c"],
                5,
                "verification failed: target generator 20 (+IIXXIIZIIIIZZZIIIIIIXI) is missing from the compiled group",
            ),
        ],
        ids=["ok", "usage", "config", "resource", "verify"],
    )
    def test_documented_exit_codes(self, tmp_path, argv, code, line):
        (tmp_path / "bad.json").write_text("[1]")
        (tmp_path / "chain4.json").write_text(json.dumps(CHAIN4))
        proc = _cli_process(argv, tmp_path)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1:] == ([line] if line else [])

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_outputs_get_the_mode_open_would_create(self, tmp_path, umask):
        # the umask is set in a fresh interpreter, beside a file made by a plain open()
        _fresh_python(
            f"import os\nos.umask({umask:#o})\nopen('plain', 'w').close()\n"
            "from fusioncodes.cli import main\nassert main(['enumerate', '--n', '2', '--out', 'lib']) == 0\n",
            tmp_path,
        )
        modes = {p.name: p.stat().st_mode & 0o777 for p in (tmp_path / "lib").iterdir()}
        assert sorted(modes) == ["LL.dot", "LP.dot", "graphs.json"]
        assert set(modes.values()) == {(tmp_path / "plain").stat().st_mode & 0o777} == {0o666 & ~umask}

    def test_main_leaves_the_collector_unfrozen(self, tmp_path):
        before = gc.get_freeze_count()
        assert main(["enumerate", "--n", "3", "--out", str(tmp_path / "lib")]) == 0
        with pytest.raises(SystemExit):
            main(["enumerate", "--n", "abc", "--out", str(tmp_path / "lib")])
        assert gc.get_freeze_count() == before

    def test_exit_runs_frozen_and_keeps_atexit(self, tmp_path):
        # site imports sitecustomize from the path before -m runs the module
        probe = tmp_path / "probe"
        probe.mkdir()
        (probe / "sitecustomize.py").write_text(
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print(f'frozen at exit: {gc.get_freeze_count()}', file=sys.stderr))\n"
        )
        proc = _cli_process(["enumerate", "--n", "2", "--out", "lib"], tmp_path, env=_child_env(str(probe)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "enumerated 2 progenitors with 2 photons -> lib\n"
        label, count = proc.stderr.rsplit(": ", 1)
        assert label == "frozen at exit" and int(count) > 0

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_stdout_keeps_files_and_exit_code(self, tmp_path, unbuffered):
        # unbuffered, the first progress line meets the closed pipe; buffered, the flush after it does
        argv = ["threshold", "--n-min", "2", "--n-max", "4", "--out", "t.csv"]
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        normal, closed = tmp_path / "normal", tmp_path / "closed"
        normal.mkdir()
        closed.mkdir()
        assert _cli_process(argv, normal, env).returncode == 0
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _cli_process(argv, closed, env, stdout=write)
        finally:
            os.close(write)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
        names = ["t.csv", "t.csv.codes.json", "t.csv.manifest.json"]
        assert sorted(p.name for p in closed.iterdir()) == names
        for name in names:
            assert (closed / name).read_bytes() == (normal / name).read_bytes(), name


class TestStartup:
    """No command imports numpy; commands import the analysis modules only when they use them."""

    def test_no_command_loads_numpy(self, tmp_path):
        (tmp_path / "chain4.json").write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}))
        (tmp_path / "chain11.json").write_text(json.dumps({"n": 11, "edges": [[i, i + 1] for i in range(10)]}))
        cfg = write_config(tmp_path)
        _fresh_python(
            f"""
import contextlib, io, sys
from fusioncodes.cli import main
commands = [
    ["enumerate", "--n", "3", "--out", "lib"],
    ["duals", "--n", "3", "--out", "duals.json"],
    ["compile", "--outer", "chain4.json", "--inner", "LPL", "--out", "run"],
    ["compile", "--outer", "chain11.json", "--inner", "LLPLPLPL", "--out", "run"],
    ["analyze", "--code", "LLPL", "--w", "1001", "--out", "report.json"],
    ["optimize-w", "--code", "LLPL", "--config", {cfg!r}, "--out", "w.json"],
    ["threshold", "--n-min", "1", "--n-max", "4", "--config", {cfg!r}, "--out", "t.csv"],
    ["region", "--code", "LLPLPL", "--config", {cfg!r}, "--out", "r.csv"],
    ["region", "--n", "4", "--config", {cfg!r}, "--p-fail", "0.3", "--out", "r4.csv"],
]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in commands:
        assert main(argv) == 0, argv
        assert "numpy" not in sys.modules, argv
assert "fusioncodes.fusion" in sys.modules
""",
            tmp_path,
        )

    def test_enumerate_and_stabilizer_compile_run_without_numpy(self, tmp_path):
        (tmp_path / "chain.json").write_text(json.dumps({"n": 11, "edges": [[i, i + 1] for i in range(10)]}))
        _fresh_python(
            """
import json, sys
preloaded = "hashlib" in sys.modules
from fusioncodes.cli import main
assert "numpy" not in sys.modules
assert main(["enumerate", "--n", "3", "--out", "lib"]) == 0
assert "numpy" not in sys.modules
assert main(["duals", "--n", "3", "--out", "duals.json"]) == 0
assert all(d["swap_verified"] for d in json.load(open("duals.json"))["duals"])
assert "numpy" not in sys.modules and "fusioncodes.fusion" not in sys.modules
assert main(["compile", "--outer", "chain.json", "--inner", "LLPLPLPL", "--out", "run"]) == 0
assert json.load(open("run.sequence.json"))["verification_method"] == "stabilizer"
assert "numpy" not in sys.modules and "fusioncodes.statevec" not in sys.modules
# no command loads hashlib
assert preloaded or "hashlib" not in sys.modules
""",
            tmp_path,
        )

    def test_config_digest_skips_openssl(self, tmp_path):
        if importlib.util.find_spec("_sha256") is None and importlib.util.find_spec("_sha2") is None:
            pytest.skip("no built-in SHA-256 module: the config digest falls back to hashlib")
        write_config(tmp_path)
        _fresh_python(
            """
import contextlib, io, sys
preloaded = "_hashlib" in sys.modules
from fusioncodes.cli import main
commands = [
    ["threshold", "--n-min", "2", "--n-max", "3", "--config", "config.json", "--out", "t.csv"],
    ["optimize-w", "--code", "LLPL", "--bias", "passive", "--out", "w.json"],
    ["region", "--code", "LLPL", "--config", "config.json", "--out", "r.csv"],
]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in commands:
        assert main(argv) == 0, argv
        assert preloaded or "_hashlib" not in sys.modules, argv
""",
            tmp_path,
        )

    def test_statevector_compile_runs_without_numpy(self, tmp_path):
        # the two smallest compile workloads: 12 photons on 16 target wires
        (tmp_path / "chain.json").write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}))
        _fresh_python(
            """
import contextlib, io, json, sys
from fusioncodes.cli import main
for mode in ("two-emitter", "emitter-memory"):
    args = ["compile", "--outer", "chain.json", "--inner", "LPL", "--mode", mode]
    assert main(args + ["--out", "run"]) == 0
    assert json.load(open("run.sequence.json"))["verification_method"] == "statevector"
    assert "numpy" not in sys.modules
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(args + ["--inject-fault", "--out", "bad"]) == 5
    assert err.getvalue() == "verification failed: compiled state deviates from target (overlap 0.500000)\\n", err.getvalue()
    assert "numpy" not in sys.modules and "fusioncodes.tableau" not in sys.modules
""",
            tmp_path,
        )

    def test_no_command_loads_dataclasses(self, tmp_path):
        # records are NamedTuples or slotted classes, and no command loads numpy, which imports inspect
        for m in (4, 11):
            (tmp_path / f"chain{m}.json").write_text(json.dumps({"n": m, "edges": [[i, i + 1] for i in range(m - 1)]}))
        write_config(tmp_path)
        _fresh_python(
            """
import contextlib, io, json, sys
from fusioncodes.cli import main

def unloaded(*names):
    assert not set(names) & set(sys.modules), set(names) & set(sys.modules)

unloaded("dataclasses", "inspect")
assert main(["enumerate", "--n", "3", "--out", "lib"]) == 0
assert main(["duals", "--n", "3", "--out", "duals.json"]) == 0
unloaded("dataclasses", "inspect")
methods = []
with contextlib.redirect_stderr(io.StringIO()):
    for outer, inner in (("chain4.json", "LPL"), ("chain11.json", "LLPLPLPL")):
        for fault in ([], ["--inject-fault"]):
            assert main(["compile", "--outer", outer, "--inner", inner, *fault, "--out", "run"]) == (5 if fault else 0)
            methods.append(json.load(open("run.sequence.json"))["verification_method"])
assert methods == ["statevector"] * 2 + ["stabilizer"] * 2, methods
unloaded("dataclasses", "inspect")
assert main(["analyze", "--code", "LL", "--out", "report.json"]) == 0
assert main(["optimize-w", "--code", "LLPL", "--out", "w.json"]) == 0
assert main(["region", "--code", "LLPL", "--config", "config.json", "--out", "r.csv"]) == 0
unloaded("dataclasses", "inspect")
""",
            tmp_path,
        )

    def test_commands_other_than_compile_skip_the_compiler(self, tmp_path):
        _fresh_python(
            """
import sys
from fusioncodes.cli import main
assert "fusioncodes.compiler" not in sys.modules
assert main(["analyze", "--code", "LL", "--out", "report.json"]) == 0
assert "fusioncodes.compiler" not in sys.modules
""",
            tmp_path,
        )

    def test_parser_modes_are_the_compiler_modes(self):
        from fusioncodes.cli import MODES
        from fusioncodes.compiler import Mode

        assert MODES == tuple(m.value for m in Mode)

    def test_analyze_runs_without_numpy(self, tmp_path):
        # erasure counts read only the readable sets; region loads the decoder, still without numpy
        cfg = write_config(tmp_path)
        _fresh_python(
            f"""
import sys
from fusioncodes.cli import main
heavy = {{"numpy", "fusioncodes.fusion", "fusioncodes.thresholds"}}
for p_fail in ("0.5", "0.3"):
    argv = ["analyze", "--code", "LLPLPLPL", "--w", "10010100", "--p-fail", p_fail, "--out", "report.json"]
    assert main(argv) == 0
    assert not heavy & set(sys.modules), heavy & set(sys.modules)
assert main(["region", "--code", "LL", "--config", {cfg!r}, "--out", "r.csv"]) == 0
assert "fusioncodes.fusion" in sys.modules and "numpy" not in sys.modules
""",
            tmp_path,
        )

    def test_threshold_and_optimize_w_run_without_numpy(self, tmp_path):
        # the search counts on the readable sets in Python ints; region loads the decoder, still without numpy
        cfg = write_config(tmp_path)
        _fresh_python(
            f"""
import sys
from fusioncodes.cli import main
heavy = {{"numpy", "fusioncodes.fusion"}}
for bias in ("randomized", "passive"):
    for p_fail in ("0.5", "0.3", "0.1234567"):
        argv = ["--bias", bias, "--p-fail", p_fail, "--config", {cfg!r}]
        assert main(["threshold", "--n-min", "1", "--n-max", "5", *argv, "--out", "t.csv"]) == 0
        assert main(["optimize-w", "--code", "LLPLPLPL", *argv, "--out", "w.json"]) == 0
        assert not heavy & set(sys.modules), heavy & set(sys.modules)
assert main(["region", "--n", "3", "--config", {cfg!r}, "--out", "r.csv"]) == 0
assert "fusioncodes.fusion" in sys.modules and "numpy" not in sys.modules
""",
            tmp_path,
        )

    def test_dyadic_p_fail_skips_fractions(self, tmp_path):
        # 1/2 and 1/4 are exact binary ratios; 0.3 needs Fraction.limit_denominator
        cfg = write_config(tmp_path)
        _fresh_python(
            f"""
import sys
from fusioncodes.cli import main
for p_fail in ("0.5", "0.25"):
    assert main(["optimize-w", "--code", "LLPL", "--p-fail", p_fail, "--out", "w.json"]) == 0
    assert main(["region", "--code", "LLPL", "--config", {cfg!r}, "--p-fail", p_fail, "--out", "r.csv"]) == 0
    assert "fractions" not in sys.modules and "decimal" not in sys.modules
assert main(["optimize-w", "--code", "LLPL", "--p-fail", "0.3", "--out", "w.json"]) == 0
assert "fractions" in sys.modules
""",
            tmp_path,
        )

    def test_package_resolves_fusion_names_on_access(self, tmp_path):
        _fresh_python(
            """
import sys
import fusioncodes
assert "fusioncodes.fusion" not in sys.modules
from fusioncodes import FusionSpec, code_from_progenitor, erasure_analysis
assert "fusioncodes.fusion" not in sys.modules and "numpy" not in sys.modules
import fusioncodes.lpoly
assert fusioncodes.erasure_analysis is fusioncodes.lpoly.erasure_analysis
try:
    fusioncodes.nope
except AttributeError:
    pass
else:
    raise AssertionError("fusioncodes.nope resolved")
""",
            tmp_path,
        )


class TestManifest:
    def test_config_digest_stable(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["optimize-w", "--code", "LL", "--config", cfg, "--out", str(a)])
        main(["optimize-w", "--code", "LL", "--config", cfg, "--out", str(b)])
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        assert da["manifest"]["config_digest"] == db["manifest"]["config_digest"]
        assert da["manifest"]["version"]
        # nothing machine-dependent enters the parameters
        assert "threads" not in da["manifest"]["parameters"]

    def test_config_is_read_once(self, tmp_path, monkeypatch):
        # the digest must describe the config that was parsed, so the
        # file is opened once, not once to parse and again to digest
        cfg = write_config(tmp_path)
        opened = []
        real_open = open

        def counting_open(path, *args, **kwargs):
            opened.append(str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        assert main(["optimize-w", "--code", "LL", "--config", cfg, "--out", str(tmp_path / "w.json")]) == 0
        assert opened.count(cfg) == 1


def _tree(n):
    parents = st.tuples(*[st.integers(0, v - 1) for v in range(1, n)])
    return parents.map(lambda ps: {"n": n, "edges": [[p, v] for v, p in enumerate(ps, start=1)]})


_pair = st.lists(st.integers(-1, 8), min_size=2, max_size=2)
_vertex = st.one_of(st.integers(-2, 9), st.booleans(), st.floats(allow_nan=False), st.text(max_size=2))
_outer_json = st.one_of(
    st.integers(1, 24).flatmap(_tree),
    st.integers(0, 8).flatmap(
        lambda n: st.fixed_dictionaries({"n": st.just(n), "edges": st.lists(_pair, max_size=n + 2)})
    ),
    st.fixed_dictionaries(
        {},
        optional={
            "n": st.one_of(st.integers(-1, 8), st.booleans(), st.text(max_size=2), st.none()),
            "edges": st.one_of(
                st.lists(st.one_of(st.lists(_vertex, max_size=3), st.integers(), st.none()), max_size=6),
                st.integers(),
                st.text(max_size=3),
            ),
            "emitter": st.one_of(st.integers(-1, 8), st.none()),
        },
    ),
    st.lists(st.integers(0, 8), max_size=4),
    st.text(max_size=4),
    st.none(),
)
_inner = st.one_of(st.text(alphabet="LP", max_size=9), st.text(alphabet="LPlx ", max_size=4))


@settings(max_examples=150, deadline=None)
@given(outer_json=_outer_json, inner=_inner)
def test_compile_boundary_never_raises(outer_json, inner):
    with tempfile.TemporaryDirectory() as tmp:
        outer = os.path.join(tmp, "outer.json")
        with open(outer, "w") as fh:
            json.dump(outer_json, fh)
        code = main(["compile", "--outer", outer, "--inner", inner, "--out", os.path.join(tmp, "run")])
    assert code in {0, 3, 4, 5}


# Flags and config JSON of the numeric commands, with codes of at most 4
# qubits; "CONFIG" stands for the path of the drawn config file.
_number_text = st.one_of(
    st.floats(0, 1).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-inf", "-0", "1e-320", "x", "", "0.5.1", "0x1"]),
)
_json_number = st.one_of(
    st.floats(0, 1), st.floats(), st.integers(), st.booleans(), st.text(max_size=2), st.none()
)
_rows = st.one_of(
    st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)).map(list), max_size=4).map(sorted),
    st.lists(st.lists(_json_number, max_size=3), max_size=4),
    _json_number,
)
_config_json = st.one_of(
    st.fixed_dictionaries(
        {"p_tilde_randomized": st.one_of(st.floats(0.01, 0.6), _json_number)},
        optional={"p_tilde_biased": _rows, "epsilon_M": _rows},
    ),
    st.lists(st.integers(), max_size=2),
    st.text(max_size=3),
)


def _optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def _numeric_args(draw):
    command = draw(st.sampled_from(["analyze", "optimize-w", "threshold"]))
    args = [command]
    if command != "threshold":
        args += ["--code", draw(st.one_of(st.text(alphabet="LP", min_size=1, max_size=4), st.text("LPx", max_size=3)))]
    args += draw(_optional("--p-fail", _number_text))
    if command == "analyze":
        args += draw(_optional("--w", st.text(alphabet="01x", max_size=5)))
        args += draw(_optional("--eta-grid", st.lists(_number_text, min_size=1, max_size=3).map(",".join)))
        return args
    args += draw(_optional("--bias", st.sampled_from(["randomized", "passive", "both"])))
    args += draw(_optional("--config", st.just("CONFIG")))
    if command == "threshold":
        args += draw(_optional("--n-min", st.integers(-1, 4).map(str)))
        args += ["--n-max", str(draw(st.integers(0, 4)))]
    return args


@settings(max_examples=150, deadline=None)
@given(args=_numeric_args(), config=_config_json)
def test_numeric_boundary_never_raises(args, config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        argv = [path if a == "CONFIG" else a for a in args] + ["--out", os.path.join(tmp, "out")]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in {0, 2, 3, 4, 5}


# region with codes of at most 4 qubits, any grid size (one in ten above
# the cap), p_fail at and between its ends and drawn epsilon_M rows, most
# of them valid so that regions get computed: exercises empty regions and
# grid points where no recovering pattern can occur.
_epsilon_m = st.lists(st.tuples(st.floats(0, 1), st.floats(0, 0.05)), min_size=1, max_size=4, unique_by=lambda r: r[0])


@st.composite
def _region_case(draw):
    valid = draw(st.integers(0, 3)) > 0
    code = draw(st.text(alphabet="LP", min_size=1, max_size=4) if valid else st.text("LPx", max_size=3))
    points = st.integers(2, 200) if draw(st.integers(0, 9)) else st.integers(GRID_POINTS_CAP + 1, 10**12)
    args = ["region", "--code", code, "--grid-points", str(draw(points))]
    p_fail = st.one_of(st.sampled_from(["0", "1", "0.5", "0.25"]), st.floats(0, 1).map(repr), _number_text)
    args += draw(_optional("--p-fail", p_fail))
    rows = [list(r) for r in sorted(draw(_epsilon_m))] if draw(st.integers(0, 3)) > 0 else draw(_rows)
    p_tilde = draw(st.one_of(st.floats(0.01, 0.6), st.just(0.1430585)))
    return args, {"p_tilde_randomized": p_tilde, "epsilon_M": rows}


@settings(max_examples=100, deadline=None)
@given(case=_region_case())
def test_region_boundary_never_raises(case):
    args, config = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        argv = args + ["--config", path, "--out", os.path.join(tmp, "region.csv")]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in {0, 2, 3, 4, 5}


# --n of the two commands that take only a size: small and huge integers,
# near misses and arbitrary text
_size_text = st.one_of(
    st.integers(-2, 12).map(str),
    st.integers(9, 10**30).map(str),
    st.sampled_from(["", "x", "3.0", "0x8", " 4", "+2", "1_0", "-0", "\u0663", "\u0669"]),
    st.text(max_size=4),
)


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["enumerate", "duals"]), n=_size_text)
def test_size_boundary_never_raises(command, n):
    try:
        over_cap = int(n) > 8  # the parser's own reading of the text
    except ValueError:
        over_cap = False
    # above the cap not one progenitor is built and nothing is written
    no_work = mock.patch("fusioncodes.graphs.build_progenitor", side_effect=AssertionError("built above the cap"))
    with tempfile.TemporaryDirectory() as tmp, no_work if over_cap else contextlib.nullcontext():
        out = os.path.join(tmp, "out")
        try:
            code = main([command, "--n", n, "--out", out])
        except SystemExit as exc:
            code = exc.code
        assert code == 0 or not os.path.exists(out), (n, code)
    assert code == 4 if over_cap else code in {0, 2, 4}, (n, code)
