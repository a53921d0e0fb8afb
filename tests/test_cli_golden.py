"""Golden stdout bytes of every CLI command in every output format.

Each case is the argument list, the expected exit code and the sha256 of
everything the request writes to stdout.  Refactors of the CLI or of the
layers below it must leave all of these unchanged.
"""
import hashlib
import json
from pathlib import Path

import pytest

from hurwitz import closedform
from hurwitz.cli import main

GOLDEN = [
    ("closed-form --kind monotone --mu 3,2,1 --format text", 0, "755b43ba48fae9e7ba8de3bf520e48d21b3d3ddb9eeda1a0db5cb75a7617b4af"),
    ("closed-form --kind monotone --mu 3,2,1 --format json", 0, "cc41b2c682856fcfe8ba9a8d18311e40f71568672c79763a38edc40090866c17"),
    ("closed-form --kind monotone --mu 3,2,1 --format csv", 0, "d440794da47dc5d6213fe093d56262916a9ada397ea254bf58a5674267f90dec"),
    ("asymptotics --kind monotone --mu 3,2,1 --format text", 0, "ce92c35692d629c248e80c8a094944c451a3d4e714fef77a85e0edc02251b89a"),
    ("asymptotics --kind monotone --mu 3,2,1 --format json", 0, "96e0eb7fb4c36c3bcb4e389a103e77fe70ee03bde9fe40c942a097ee59d4c640"),
    ("asymptotics --kind monotone --mu 3,2,1 --format csv", 0, "548ecc89ddee0d26252de31f164bc5fe6b73d5002fb5834457f83a7530f2920b"),
    ("eval --kind monotone --mu 3,2,1 --genus 2 --format text", 0, "31811d5a953bab5709df039af7f1112275b508ccc846bd2f1e7a654def92b833"),
    ("eval --kind monotone --mu 3,2,1 --genus 2 --format json", 0, "e5a455500bead073746e29d4b4298db040dab85d1f8c217ac8f012d8045f5f63"),
    ("eval --kind monotone --mu 3,2,1 --genus 2 --format csv", 0, "dfd19007ceaef12ca635f697f4cf96d1331ba55786325cb9c7bc2641f1f81bca"),
    ("table --kind monotone --mu 3,2,1 --genus-max 3 --format text", 0, "b59ff8e26f07766336848c67ac7702dc35d45a731a18caaba8d558dcf50eb462"),
    ("table --kind monotone --mu 3,2,1 --genus-max 3 --format json", 0, "c910eafc03fbbb3cf2eb5f2627721266eb24fd72f6d2da7c6f4672a8db5b37e6"),
    ("table --kind monotone --mu 3,2,1 --genus-max 3 --format csv", 0, "2abe0703c85407932124a3b95fc1e344494ac138ea8082529e222d2151137b61"),
    ("closed-form --kind monotone --mu 3 --format text", 0, "00feda1a0dd7efc1da656bb54011b91e62fc69f40ffafe0639f7adb4bda253f2"),
    ("closed-form --kind monotone --mu 3 --format json", 0, "7b299136d9e8b7586f63ac7f4bc5488dbf0a06d7b45f5737bd9d754c70171ea1"),
    ("closed-form --kind monotone --mu 3 --format csv", 0, "0ece8b7e16fa75313f02de1de17d5127a6a0d3ebf08bcc654c62eb17e54480e2"),
    ("asymptotics --kind monotone --mu 3 --format text", 0, "53fc9266ff9f9dd5852a865c3236d3643c2156af2e4256732a8287f60d7e8554"),
    ("asymptotics --kind monotone --mu 3 --format json", 0, "b576547bb49052e3de29675271de579b2b3e4bf01c967faa7131a3ded397c691"),
    ("asymptotics --kind monotone --mu 3 --format csv", 0, "69630b7e54f4f2d82e38596448d0c6937297685e201650ccfefa7a61bcd8436a"),
    ("eval --kind monotone --mu 3 --genus 2 --format text", 0, "9a92adbc0cee38ef658c71ce1b1bf8c65668f166bfb213644c895ccb1ad07a25"),
    ("eval --kind monotone --mu 3 --genus 2 --format json", 0, "de397dcff72f830026cdd1d69926684bcd46854dbc0fac210c76d3c16639695b"),
    ("eval --kind monotone --mu 3 --genus 2 --format csv", 0, "930fc80035325159a1958d4165859a3ee846a370cd62186d2efac23b82ff862a"),
    ("table --kind monotone --mu 3 --genus-max 3 --format text", 0, "aa6b70c04ba6e4b3acfdb9819c39cfb4818f1196253783f0c0b64c56257c964c"),
    ("table --kind monotone --mu 3 --genus-max 3 --format json", 0, "e4e9b8e734e3aeb8266cc4613d6aee2e9deb7a526a2b8505feeaab2679017b56"),
    ("table --kind monotone --mu 3 --genus-max 3 --format csv", 0, "6d473efc3cccd8e8908877c1be0ccff6b598913d88a8c90516e97bbf1c4397d0"),
    ("oracle --kind monotone --mu 2,1 --genus 1 --format text", 0, "4874270108ced1c681c005411ae258a9263c55a8f2e85657447ac26c170e3c0b"),
    ("oracle --kind monotone --mu 2,1 --genus 1 --format json", 0, "9a2b3c4b94fe3a784f502b77846ae2f9d0dd6c5e314bbb39bde5c6ec795f282b"),
    ("oracle --kind monotone --mu 2,1 --genus 1 --format csv", 0, "22e2a0dedfa5e4afce06250fc987cf8a4c63a67154e0a5056e2ddb95708c5ff1"),
    ("verify --kind monotone --mu 2,1 --genus-max 1 --format text", 0, "be7a7ce9c4ae1d292f5c4a92ef28ef83261ffd0c74103cb94c71414e1e686440"),
    ("verify --kind monotone --mu 2,1 --genus-max 1 --format json", 0, "43df2141ed4ee6924873e27665565d86edbd66b53c65d92dcc39ce04b7513286"),
    ("verify --kind monotone --mu 2,1 --genus-max 1 --format csv", 0, "dd2b7b6c41b10b46cc9e2b68267f7e5d0336d4e6c209e0041251f66a0418371a"),
    ("checks --kind monotone --d-max 5 --format text", 0, "9381a50b3a4bdf2537f1425b9a42fb011f550a7b8ead3b8de8208a54b9d7890f"),
    ("checks --kind monotone --d-max 5 --format json", 0, "1b6bcf0fa95da7007e615e874c37464ea193b0275bf8826e5ae557f4604bbde5"),
    ("checks --kind monotone --d-max 5 --format csv", 0, "829f5234fa9cbdf158b4285bf959b79463551a572728c2ab17eb438ce15f68dc"),
    ("closed-form --kind simple --mu 3,2,1 --format text", 0, "9d76ef32d168d9fc323e4175a87a9b62bf8f59002e7d2d10169650e34017686a"),
    ("closed-form --kind simple --mu 3,2,1 --format json", 0, "fdf0921bb6fc4e4398c8a3b04666807fff9c5e7f2947fe66a88f541bd9ece8d4"),
    ("closed-form --kind simple --mu 3,2,1 --format csv", 0, "0dad9fe5131061e1f5f16fe73e92ac3ca9f31cb027b6bd1050741dacdf0745c5"),
    ("asymptotics --kind simple --mu 3,2,1 --format text", 0, "0231f00e15d6c7b91d7e1455891208030df8b8071838a1b68bec972726067801"),
    ("asymptotics --kind simple --mu 3,2,1 --format json", 0, "c10e428d1f812268eeef666defed42c6360dd7104811626528b87e05541ae7dc"),
    ("asymptotics --kind simple --mu 3,2,1 --format csv", 0, "948b1442d71340e82dcf67bf954e6dbb3ce8a2bde724bffdd8a446c1016777eb"),
    ("eval --kind simple --mu 3,2,1 --genus 2 --format text", 0, "1d7d34e0a67e4048cb5a11975ba68210e2b6858063cb999620d66a572642a789"),
    ("eval --kind simple --mu 3,2,1 --genus 2 --format json", 0, "16733a4be73bcc31da182dab2029fe53f8db9fd948b23a54d1d689c3edef5aae"),
    ("eval --kind simple --mu 3,2,1 --genus 2 --format csv", 0, "8b5f72c2d220de7976ae1ab2b3c21e1855723b940b66ce8174ce71bf5ae4df3e"),
    ("table --kind simple --mu 3,2,1 --genus-max 3 --format text", 0, "a4ed1f4206c7dea54a95db60f646a0fbb18b1845dde49cc4cf7a38cf56826024"),
    ("table --kind simple --mu 3,2,1 --genus-max 3 --format json", 0, "4bb08c67c4f220149f310d362f399a3d183c807b7a69c5861522681e1e68db22"),
    ("table --kind simple --mu 3,2,1 --genus-max 3 --format csv", 0, "3771b4c6d50d040b4db5b61f4c00d2b1070218c575fe210ebc17634af40217f7"),
    ("closed-form --kind simple --mu 3 --format text", 0, "aca755603bfe842325e1d95f3840f2333603eea40713b011ce5f562c41b3c87b"),
    ("closed-form --kind simple --mu 3 --format json", 0, "bf07c625dd3dd2e80e1f08334c01d5b2e705d7b07ac788033aa55e8be211af4f"),
    ("closed-form --kind simple --mu 3 --format csv", 0, "0d0bd9f82c33407495907483083199288140a233f1b61604fdcc88b0af048c1e"),
    ("asymptotics --kind simple --mu 3 --format text", 0, "537a5eb7fc393ac57d0712e00d2f1acb2e584dfc66570ed551787111a76fd1a7"),
    ("asymptotics --kind simple --mu 3 --format json", 0, "c082b2627161f3c104eab13b63875a12e456bab2f5d7620f7122808e72f29765"),
    ("asymptotics --kind simple --mu 3 --format csv", 0, "85ec34dbf1e14c20ceb7a242c72ae6b3177400dba6d396e885ec2960701b5912"),
    ("eval --kind simple --mu 3 --genus 2 --format text", 0, "ce516e29a2ccfe4bab40e4e6adab7661cd695680482c00b1faa738fc0df62698"),
    ("eval --kind simple --mu 3 --genus 2 --format json", 0, "65e7d32f9ca6720ce6f3fcafd5971280e6f6bc36ea65cc3de5891305c46b1c87"),
    ("eval --kind simple --mu 3 --genus 2 --format csv", 0, "b068ac254b3e6eace3c9a72a9a4e6efe936ce5022fb82b0b3c01bc6768d3eff7"),
    ("table --kind simple --mu 3 --genus-max 3 --format text", 0, "5a4fdc5c918804ff214ecdabada3f0366b007ddd50b8b43f154db85ced3496af"),
    ("table --kind simple --mu 3 --genus-max 3 --format json", 0, "5b023a05f335052a52557165b0ee6f8203a1dad6de36c37c2fa6cb8d73285fd0"),
    ("table --kind simple --mu 3 --genus-max 3 --format csv", 0, "2ed6c9a1faa25653a04c8c4140db15f44126b36dcdf25aed5497785a0b0284af"),
    ("oracle --kind simple --mu 2,1 --genus 1 --format text", 0, "ddf8b19756748f0017f45bba4fd66879a1e745c372eb95ba94c2862bf736a847"),
    ("oracle --kind simple --mu 2,1 --genus 1 --format json", 0, "b3bca0c0abceb7139b82d0fcc43996f3fa78e6231dac67d899b7ff84cb04c5d1"),
    ("oracle --kind simple --mu 2,1 --genus 1 --format csv", 0, "cb83243befbfb937a0bc2ea70bc7619ac55f3b4b674eeff7585b5fe692fce59f"),
    ("verify --kind simple --mu 2,1 --genus-max 1 --format text", 0, "99f2cdd026b5444d890de31232b2ef1c205bc4c3029aefaf0cc253697d9624fd"),
    ("verify --kind simple --mu 2,1 --genus-max 1 --format json", 0, "1c398ce68e8b7043f3ed366c56ef10c7c79d673abc95c13bdb516b7adb4aedca"),
    ("verify --kind simple --mu 2,1 --genus-max 1 --format csv", 0, "efce3d7f2e2aff0dca15f30ed6bc45dad4773e04c1e55d674740985f3be0d991"),
    ("checks --kind simple --d-max 5 --format text", 0, "4a83d9555c6be961b5388bfea277de8cb5fbcb86e57603528d177b86718da4a6"),
    ("checks --kind simple --d-max 5 --format json", 0, "b7c6c3ef76f77e5a83e754b88dc9863a008275d8f136da989e9e2dca35616189"),
    ("checks --kind simple --d-max 5 --format csv", 0, "50a5c837bace21999700020996c20b86f5becd8bba2b5d2a1f369c31144d0e1b"),
    ("oracle --kind simple --mu 9 --genus 0 --format text", 0, "48dfd3d582a5b67c8c0b0fe6afe39f71e2b3f15ac2b23b3dafdbbd6b0589428a"),
    ("oracle --kind simple --mu 14 --genus 0 --format text", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eval --kind simple --mu x --genus 0 --format text", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("closed-form --kind simple --mu 1,1,1,1,1,1,1,1,1,1,1,1,1 --format text", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("closed-form --kind simple --mu 1,1,1,1,1,1,1,1,1,1,1 --format text", 0, "8af17719cbb059511da73e5834d3bc2a53702ce472dd474a72c6ef1c48ac1d89"),
    ("table --kind monotone --mu 3 --genus-max -1 --format text", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # Long tables, where each row's k^b is carried from the row before.
    ("table --kind monotone --mu 3,3,2,1 --genus-max 300 --format text", 0, "873ca2cfe2a265b539b56a46cf26a9c99649943680276adbc96320cb19222d60"),
    ("table --kind monotone --mu 3,3,2,1 --genus-max 300 --format json", 0, "cf8bf735331be3367d7ea608a77485f01a7e49e87a2eb6120debc8cb67d908a4"),
    ("table --kind monotone --mu 3,3,2,1 --genus-max 300 --format csv", 0, "118e99989fd5c799510fa4e88df25f2bb2d49c116e88e20b0e5df0445ea89f20"),
    ("table --kind simple --mu 4,4,4 --genus-max 300 --format text", 0, "a06e261c366c365c8e7ae8e1e8bab40d3915531297adbc8591da737c25d2be9c"),
    ("table --kind simple --mu 4,4,4 --genus-max 300 --format json", 0, "2c820f05e904186c71eea75cc5a651ea4c84f2529306428601ebb830c61c1ef1"),
    ("table --kind simple --mu 4,4,4 --genus-max 300 --format csv", 0, "e5e27198504d742892aa8a8657a8f4fe15d5026b91979084d3f5e4017edc5f51"),
    # The benchmark's seed-0 tabulate requests, at full length.
    ("table --kind monotone --mu 10 --genus-max 1000 --format csv", 0, "c75a7d1b12c011faca7ca245b9b6cf21e0801f751ccc1d0713710d974917387e"),
    ("table --kind simple --mu 5,3 --genus-max 1000 --format json", 0, "af0baf1e84cbd9afe936cbf495a2a1e34524f7253d47b32fc83816c4fcb0fed5"),
    ("table --kind simple --mu 4,4,4 --genus-max 1000", 0, "b676638f8daf009efd5f8f04f6099227dc2fa3339adf7bf826236246af586002"),
    ("table --kind monotone --mu 5,3 --genus-max 2000 --format csv", 0, "a67f70e3f307893af52a6e51c6377191a883ff835af8125731447aa1fdbdb89f"),
    ("eval --kind simple --mu 4,4,4 --genus 2000", 0, "ea56ea71c25854680f5d4596e7c90c0c6fd5a34fae529558e688622fc7ba80d6"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[c[0] for c in GOLDEN])
def test_stdout_bytes_pinned(capsys, argv, code, digest):
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Every request the benchmark can issue, with its pinned exit code and stdout
# sha256; the benchmark counts any other bytes as a failed request.
PINS = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "reference.json").read_text()
)


@pytest.mark.parametrize("request_key", sorted(PINS))
def test_benchmark_pins_replay(capsys, request_key):
    assert main(request_key.split()) == PINS[request_key]["exit"]
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINS[request_key]["sha256"]


def _evaluate_plus_one(real):
    return lambda form, g: real(form, g) + 1


def _gap_broken(real):
    return lambda form: real(form)._replace(gap_all_zero=False)


# Exit-2 documents: one closedform function is replaced by a faulty one, so
# every row mismatches or fails and the foot reads 0/N.
FAULT_GOLDEN = [
    ("verify --kind simple --mu 3 --genus-max 1 --format text", "evaluate", _evaluate_plus_one, "14e33fae550c9af337450569533fa17442b26468f6e88e7fc137a127deae7199"),
    ("verify --kind simple --mu 3 --genus-max 1 --format json", "evaluate", _evaluate_plus_one, "733049978eee3461c82aa166ec37567b943607e3edcc4838e4a032eec7b9cf63"),
    ("verify --kind simple --mu 3 --genus-max 1 --format csv", "evaluate", _evaluate_plus_one, "b21b13f56a6b1a46ccbd3d6c90b30c6d3aa092b0b09054c21ffb489406aefd5f"),
    ("checks --kind simple --d-max 3 --format text", "structure_checks", _gap_broken, "165535822054bee0106e590ad0be3d0511f077510efbdb6a1f39aa25ec07fa80"),
    ("checks --kind simple --d-max 3 --format json", "structure_checks", _gap_broken, "1bf9ad482f7be75291b7005d6f280cdab0ce3a21961100474951b0f393719b58"),
    ("checks --kind simple --d-max 3 --format csv", "structure_checks", _gap_broken, "43c9943c69af6bddca0b13dc3ee6448b3e2724ad8d1934ed76a33b6dbb541f25"),
]


@pytest.mark.parametrize(
    "argv, name, fault, digest", FAULT_GOLDEN, ids=[c[0] for c in FAULT_GOLDEN]
)
def test_fault_stdout_bytes_pinned(capsys, monkeypatch, argv, name, fault, digest):
    monkeypatch.setattr(closedform, name, fault(getattr(closedform, name)))
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
