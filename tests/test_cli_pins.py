"""Pinned CLI outputs on small graphs, for the commands the golden corpus
does not cover.

Each pin is the sha256 of the JSON list [exit code, stdout, stderr] of one
command on one graph, taken before the competition-number ascent was
reworked.  ``rebuild-star`` and ``hall-cert`` print data derived from the
competition number's witness, so these pins also guard that witness.
Error exits are pinned like any other output.
"""

import json

import pytest

from compnum.cli import main
from compnum.fixtures import (effective_cover_example_cover,
                              effective_cover_example_digraph,
                              effective_cover_example_graph)
from compnum.graph import Digraph, Graph, add_isolated
from compnum.io import serialize_edge_list

from test_constructions import BOWTIE
from test_exact_search_pins import (C4_PLUS_3, K4_PLUS_3, cycle, grid, path,
                                    rg, sha256, star)

PETERSEN = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                            + [(i, i + 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])

GRAPHS = {
    "K4+3": K4_PLUS_3,
    "C4+3": C4_PLUS_3,
    "rg12-4+4": add_isolated(rg(12, .5, 4), 4),
    "C5": cycle(5),
    "P6": path(6),
    "K1_5": star(5),
    "bowtie": BOWTIE,
    "petersen": PETERSEN,
    "fixture": effective_cover_example_graph(),
    "P20": path(20),
    "C20": cycle(20),
    "grid3x5": grid(3, 5),
    "rg16-53": rg(16, .5, 53),
}

# each graph command reads the edge list g.edges
COMMANDS = {
    "theta": ["theta", "--in", "g.edges", "--witness"],
    "cover": ["cover", "--in", "g.edges"],
    "knumber": ["knumber", "--in", "g.edges", "--witness"],
    "realize": ["realize", "--in", "g.edges", "--k", "2", "--witness"],
    "chordal-build": ["chordal-build", "--in", "g.edges"],
    "rebuild-star": ["rebuild-star", "--in", "g.edges"],
    "bounds": ["bounds", "--in", "g.edges"],
    "planar-check": ["planar-check", "--in", "g.edges"],
    "hall-cert": ["hall-cert", "--graph", "g.edges"],
}

PINNED = {
    ("K4+3", "theta"): "782397dfbc492a5abb300a3bb27a410a8057c5d0df26b8a98ffe194f2f0a4759",
    ("K4+3", "cover"): "3d299f0b233054a94085f9f5a3ea42db720dd4db4ab7b6ef081043f578a81751",
    ("K4+3", "knumber"): "4a28aa4d2f7c38ae8d745f67908de5eb51a96b26e1a6cefc1f3f3dbf8cd33c3c",
    ("K4+3", "realize"): "cb5c71855fea33bb42d7c015b11956438e61a0952c49ba14a1d78fea44d96f65",
    ("K4+3", "chordal-build"): "e146cbf0f1c7b9121251158b4725406ed8f6b072453dce94a73fb61a42e3a82e",
    ("K4+3", "rebuild-star"): "c9513802e0bc2d73073e94778f66ad69fed4632fd6b34f9eed832cdf64bf11a8",
    ("K4+3", "bounds"): "2b7ce3deda4731436baae4a4afc1a309b07352d7ec4edc5cbbfa37cbf067f296",
    ("K4+3", "planar-check"): "af2209b450234578e5f95ea7c0194fc6c98988e371c498bc04d8c9f4efb285e1",
    ("K4+3", "hall-cert"): "7df4f2fd7495128821498135884fcd38f8796e1961218a1094a7c88dc87ced03",
    ("C4+3", "theta"): "08499dd4e2d21f0e66c8c3629147d3285fd84c18feb569f6e32f154ff6ca1762",
    ("C4+3", "cover"): "edeff9c9801a4cbafe1c0e2935e5ca16e9ca5a6736b8fd9e4a875d44adfbd38a",
    ("C4+3", "knumber"): "e029caa67d8565a3857ad5116c8ec30bab99a2edbbd18ae47bbde7cedbf42e2e",
    ("C4+3", "realize"): "96e0b4df142af23345df855773a63d97a617e048827e70ffdc420b87fec506f4",
    ("C4+3", "chordal-build"): "e146cbf0f1c7b9121251158b4725406ed8f6b072453dce94a73fb61a42e3a82e",
    ("C4+3", "rebuild-star"): "aa3a73fb9998c8f51fc524592b8c7d538f8f7303ce6c3f88a1081e4d850f4505",
    ("C4+3", "bounds"): "e5d98c09dcd63ae18b3cc9823014b51bb42a93dd95ae8070c2c9b13dd91569b0",
    ("C4+3", "planar-check"): "af2209b450234578e5f95ea7c0194fc6c98988e371c498bc04d8c9f4efb285e1",
    ("C4+3", "hall-cert"): "b09aef3a4019dfb9b0593a8cdfda8598c8b458a133ad43776adf160d9059de9b",
    ("rg12-4+4", "theta"): "6268135ef65c4625a83f0bf1223ed5c3188f6eb1fe4049bda78412719502107b",
    ("rg12-4+4", "cover"): "da420477f6e25ba50098b1b71c627809b9eac38dd16660fe157261d87cbe8a0b",
    ("rg12-4+4", "knumber"): "49ce70bb022998419c702f78437d6849c2e5372aea7f30a3f21f888a9467cb65",
    ("rg12-4+4", "realize"): "08f8a7264f3e97dc9226d44779bdcf2c003d03e122b1cfa7ef8d802c61f39afa",
    ("rg12-4+4", "chordal-build"): "e146cbf0f1c7b9121251158b4725406ed8f6b072453dce94a73fb61a42e3a82e",
    ("rg12-4+4", "rebuild-star"): "b5d9092b86f7697517eab558155fc4881242321f17ce6b17ed22153810877f87",
    ("rg12-4+4", "bounds"): "62eb4638eca8b43c9cdf036f33307254afa45156b0edecd7aff5848082682f24",
    ("rg12-4+4", "planar-check"): "af2209b450234578e5f95ea7c0194fc6c98988e371c498bc04d8c9f4efb285e1",
    ("rg12-4+4", "hall-cert"): "dfb620e761cffe56e763d80a970095df2c8817307b97d5b2a186f9c8779b29f3",
    ("C5", "theta"): "4c2da24bbe8df9b9fa91941b75fe16ac8af416052f0bfc8a80c6f29c8476f6fe",
    ("C5", "cover"): "a75353db093d5ef6fdcf771e2dd91c46853e2b1014c471ed78618a3f1b8dd0c2",
    ("C5", "knumber"): "3fbef88b49d6b315badd69b42dd996959136a230b29448315e3b2981d89de227",
    ("C5", "realize"): "d93e261b71cc323e3a87d6838d9d682a1309dc62dde75bd52da1c7e33fcb1889",
    ("C5", "chordal-build"): "88ec2709466755d8f9794a0401b7744e9de53761415e3487a3765e15f2f00217",
    ("C5", "rebuild-star"): "3c00c60ec1dc1e02b7be4a0705860bca7fcf82324619eaeeb1fd5b4a090da5fc",
    ("C5", "bounds"): "6c29a6d5938fbf7901895aa718ff06b2e2ca111ec84f7c15524af4d9d0e2b879",
    ("C5", "planar-check"): "e67080a5ddcb2bea971db19075d851bf9df6ff26057304152b96843ffcadb848",
    ("C5", "hall-cert"): "429882759ad6b79cb637c3fdd0129cf7d44055a2eb16489bcdd1cba370305f24",
    ("P6", "theta"): "263ee4e43ae1af5b2cc688f9cdcdf52ebfcab73bc4e81e11395e5cde5388d5c7",
    ("P6", "cover"): "5496f5baee272e458d2c9a6f08fc91deb024f26c55991bc2e29284d8fa84b613",
    ("P6", "knumber"): "dc8c08f941833dc0746fb30b33dae90437f9ced92c457d90eda2789b340434d9",
    ("P6", "realize"): "af2398258b0ba2a6b005e49d17c6be45b6ed7523277e016facb1b64e4d91ea7b",
    ("P6", "chordal-build"): "3e4b349695adba9a3b3a9bde0837f131f2b6c72c0af3bfeb9218658424044167",
    ("P6", "rebuild-star"): "d837fe20003fa53a5b706b1e2118266c582667d2bbf88564716ace22480a8ca0",
    ("P6", "bounds"): "76ab7933996988fc232fd884a72112b80e1a923f0f64882d47a99c7ca60d5dba",
    ("P6", "planar-check"): "ae96708c2ce5e3912c864fbb0cba8a6d90e8079e773720124c4ee5bcafdadd41",
    ("P6", "hall-cert"): "1f9651d9ccfda81d46f41af9ac0a911243c74b53d4d9d89af6b384ba2b390fe4",
    ("K1_5", "theta"): "73dac9982bb8c836230de73128ab9ca4e678e868bc5daaf14862c2be86b7129a",
    ("K1_5", "cover"): "4111463191c21ff2a71f621f8c67cc7ff0976634c52d1c7fd1f93c46cf053883",
    ("K1_5", "knumber"): "42beb110d338526a8ca6005345cd58471dfaeb70f9c69e1e64caf7c2cf98a0d6",
    ("K1_5", "realize"): "470c22e1d5b746f4f99ac0b99d7ab30ea09edd6159721172971d601d80d3e9e4",
    ("K1_5", "chordal-build"): "97dd42c6675b9641b6a3e524cda57b6679a502efb5e97bbcd20eba3035b3cd4a",
    ("K1_5", "rebuild-star"): "fcfe218b03857ebc24a7dd71647aaeaef8a38e03a92e567492609a06fc0e4449",
    ("K1_5", "bounds"): "76ab7933996988fc232fd884a72112b80e1a923f0f64882d47a99c7ca60d5dba",
    ("K1_5", "planar-check"): "ae96708c2ce5e3912c864fbb0cba8a6d90e8079e773720124c4ee5bcafdadd41",
    ("K1_5", "hall-cert"): "1f9651d9ccfda81d46f41af9ac0a911243c74b53d4d9d89af6b384ba2b390fe4",
    ("bowtie", "theta"): "d7e5ddc6ae9cd3141db7ee7c550d7139762b7c729d55d54800bc199a6e59c0dd",
    ("bowtie", "cover"): "349b38683875b9cd677a0bfd995eed41b9964539f25c4e740879859b8febf85e",
    ("bowtie", "knumber"): "10241e23561d0d4abd1269f21412624d79afe445a985e1dbfee2d4402fb8379a",
    ("bowtie", "realize"): "342f3958a760779a6b3d1a2739520c3744b4b40ed6aa5f41249911369131e404",
    ("bowtie", "chordal-build"): "2fd15a29a1d5d22e46755cb8e72ba3bcb288bc6985de5be34985b5bece44d5fc",
    ("bowtie", "rebuild-star"): "b42bad4b6300ae7c528f901215814171fef84a016601e0d06dfc6f1a21f71a3d",
    ("bowtie", "bounds"): "9e56a78baa8ece3634181b57b9573995a5139c32fdfd4b6d5f010b426213eed0",
    ("bowtie", "planar-check"): "a021cc3dfb8684c023f6792978e054d8ba53c5f9f569b0f4640da3b564a9cbaf",
    ("bowtie", "hall-cert"): "899ed5dbf41ac965954582b04e9938a204216a1752e3b5e080c64dde783caa36",
    ("petersen", "theta"): "b54951d1e366a6764f72e1ae03d18c1d67c9a27236674f7765cd79eafc379bcb",
    ("petersen", "cover"): "11642168efa1ae6038e02736589d6cfc7f0c8d987608af8f8f0321bf89abc57d",
    ("petersen", "knumber"): "54f41b534a81791cd77bb8ac22ffa3dc166b5930dfc06a432b2cc01d9582de93",
    ("petersen", "realize"): "b53a576ad4a530c87dbf53b77115acccd2cfd055d19fefba5fe3845de15d6bad",
    ("petersen", "chordal-build"): "3f5c62bc38f04478fe39f5841a8bc53c1146bfeaf7a936e33fc748f39d146f69",
    ("petersen", "rebuild-star"): "0b4a5996749e08d82b8002573e3cf4602526f85dad3567663430c41a71485549",
    ("petersen", "bounds"): "c581f9c776a96ed217dd67ebdb557cc1da684a233d1f8c7ed6ae5c437576dd42",
    ("petersen", "planar-check"): "f278d4c8179c2a637d98e8b106d3e8058cb4c2c1ee79bb026a07160a2381ba51",
    ("petersen", "hall-cert"): "64a2714286ff945e0eb4daa24e82cb4e5441178be26acd33eb22654f73019483",
    ("fixture", "theta"): "68e551b2a81912703892441c310db9f2c0ae0ed0ba2e73098f43c0fafed9d2fb",
    ("fixture", "cover"): "5746162e87e64925d9db4a56ec8c3ae3c152b8a821b933fb8c5aa288fbe42a4e",
    ("fixture", "knumber"): "26602a6ade5cfca45d12c7f5f3a8d02d3cb06b23eec5019eb32ccc89369ebfaf",
    ("fixture", "realize"): "b3eedd4b18086fc42ab71b79f98b572f752301c176d1a2b74f828cdc037a286e",
    ("fixture", "chordal-build"): "e3b29ddcb98108b0ca939b4cd67a87bd71eee6d7415d4c114a535fcbc4a7e667",
    ("fixture", "rebuild-star"): "4db12721e389e40b98059bed4360a047d9bf921807d653425f7c8a7e25be9d1d",
    ("fixture", "bounds"): "bb77311fdf25484460d127e7abbce0608113c84175ea9ed309519c22343b76ea",
    ("fixture", "planar-check"): "c231a6f7062af8661e72688610439cfa4e1386a10fbd81920a8d339f8346626a",
    ("fixture", "hall-cert"): "f4ccd63d5549c74fbe510b28c03ae1d024464182163a2ef4c509f66414846b36",
    # theta_e 18 to 22, taken while the report scanned every cover subset
    ("P20", "bounds"): "e29f3d17c706d012b4c5c8f73e450168f6ac24074a57fa38e95d56194bcbab1c",
    ("C20", "bounds"): "d26d25a7eccac9d8327004ae5d7d8bedf094040d70ebfdf784ad95ff2cd74614",
    ("grid3x5", "bounds"): "bf4e38defb35e353e5e8eb60b52c421c93736202dcf7c4eaa974c6153c982650",
    ("rg16-53", "bounds"): "3e4b4b46d1e906e538ca055370b639383351c1927638f3538c1368f7f5b6c79a",
}

# commands on the nine-vertex fixture's files
FIXTURE_COMMANDS = {
    "verify-effective": ["verify-effective", "--graph", "g.edges",
                         "--cover", "cover.json", "--digraph", "d.arcs"],
    "compete": ["compete", "--in", "d.arcs"],
}

PINNED_FIXTURE = {
    "verify-effective": "5b449588efb041f895acc01654f8608440310b342b8994f749731f47b8706fd3",
    "compete": "0de779af6f74fd5a448406ae0b87c882c8c285d80b990344fabd41971e59ad9f",
}


# verify-effective on the fixture graph and three (cover, digraph) inputs:
# the fixture triple, its cover padded with a second copy of (6, 7),
# and its digraph without the arc 8 > 6, the last two invalid (exit 1); each
# with and without --json
FIXTURE_CLIQUES = [list(c) for c in effective_cover_example_cover()]
FIXTURE_ARCS = effective_cover_example_digraph().arcs
VERIFY_INPUTS = {
    "triple": (FIXTURE_CLIQUES, FIXTURE_ARCS),
    "padded": (FIXTURE_CLIQUES + [[6, 7]], FIXTURE_ARCS),
    "missing-arc": (FIXTURE_CLIQUES,
                    [a for a in FIXTURE_ARCS if a != (8, 6)]),
}

PINNED_VERIFY = {
    ("triple", False):
        "dcda0914e5f39526b8b8cb537cfefba5b9a370bc1a2cb3b8484843f0c72ecc45",
    ("triple", True):
        "5b449588efb041f895acc01654f8608440310b342b8994f749731f47b8706fd3",
    ("padded", False):
        "5de7827f9a98151d76378afbf5614b9fa79099712377a477f834f104eda9d7e9",
    ("padded", True):
        "5f9cb69b74d78ad2a97bcb0e5d619a5d75082834984fe3f71a0b4d90f699d74d",
    ("missing-arc", False):
        "4fd6a6cbf0d13c97e3e06c93a915acfaee3f408edc11a75c475f1e5007cde420",
    ("missing-arc", True):
        "4f894e39a8cbe49c34d877e4265c03d9f90a769d64841b51272ec1d46dd144ea",
}

# sha256 of [exit, stdout, stderr, the --out file] of `sweep --n 5 --threads 1`
PINNED_SWEEP_N5 = (
    "00b3c7a696f647c25691fd6c7a8fa807f32dc9dbd9dc67854c100c9a949cb3af")


def digest(argv, capsys) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    return sha256(json.dumps([code, captured.out, captured.err]))


def cli_digest(argv, capsys) -> str:
    return digest(argv + ["--json"], capsys)


def write_fixture_files(tmp_path, cliques, arcs) -> None:
    graph = effective_cover_example_graph()
    (tmp_path / "g.edges").write_text(serialize_edge_list(graph))
    (tmp_path / "d.arcs").write_text(
        serialize_edge_list(Digraph.from_arcs(graph.n + 1, arcs)))
    (tmp_path / "cover.json").write_text(json.dumps({"cliques": cliques}))


@pytest.mark.parametrize("graph,command", sorted(PINNED))
def test_cli_output_is_pinned(graph, command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.edges").write_text(serialize_edge_list(GRAPHS[graph]))
    assert cli_digest(COMMANDS[command], capsys) == PINNED[graph, command]


@pytest.mark.parametrize("command", sorted(PINNED_FIXTURE))
def test_cli_output_on_the_fixture_files_is_pinned(command, tmp_path,
                                                   monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_fixture_files(tmp_path, FIXTURE_CLIQUES, FIXTURE_ARCS)
    assert cli_digest(FIXTURE_COMMANDS[command], capsys) == PINNED_FIXTURE[command]


@pytest.mark.parametrize("name,as_json", sorted(PINNED_VERIFY))
def test_verify_effective_output_is_pinned(name, as_json, tmp_path,
                                           monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_fixture_files(tmp_path, *VERIFY_INPUTS[name])
    argv = FIXTURE_COMMANDS["verify-effective"] + ["--json"] * as_json
    assert digest(argv, capsys) == PINNED_VERIFY[name, as_json]


def test_sweep_output_and_report_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["sweep", "--n", "5", "--threads", "1", "--out", "R"])
    captured = capsys.readouterr()
    report = (tmp_path / "R").read_text()
    assert sha256(json.dumps([code, captured.out, captured.err, report])) == (
        PINNED_SWEEP_N5)
