"""Byte-identity of what the CLI prints.

Each command line below runs through `cli.main` in process; the test keeps
its exit code and one SHA-256 of its stdout, so a failure names the command
whose output moved.  The command lines are `table --max-degree 12` in every
format, `check`, `pbw`, `dual`, `hilbert` and `cohomology --max-degree 12
--representatives` on every file in data/algebras/, and `cohomology` at the
catalog's rational parameter samples, `cohomology --max-degree 300` on
case13, whose exponents pass one byte, and `cohomology --max-degree 65534
--representatives` on case03, the longest run the CLI accepts, on an
exterior dual.  `check`, `pbw` and `cohomology --max-degree 12
--representatives` also run on the two files in tests/data/, whose brackets
are in halves, as the benchmark's generated algebras are: case13 with its
brackets halved, and an algebra that fails Jacobi.

A refactor keeps every digest.  An intended output change (for example a
derived sign convention that moves row 10's series) updates the digests it
moves, and CHANGES.md says which and why.
"""

import hashlib
from pathlib import Path

from colorlie import catalog, cli

DATA = Path(__file__).resolve().parent.parent / "data" / "algebras"
HALVES = Path(__file__).resolve().parent / "data"
COHOMOLOGY = ["--max-degree", "12", "--representatives"]


def command_lines():
    """Every command line, with paths relative to the repository root."""
    lines = [["table", "--max-degree", "12", "--format", fmt]
             for fmt in ("json", "csv", "text")]
    for path in sorted(DATA.glob("*.txt")):
        name = "data/algebras/" + path.name
        lines += [["check", name], ["pbw", name], ["dual", name],
                  ["hilbert", name], ["cohomology", name] + COHOMOLOGY]
    for row in catalog.ALL_IDS:
        for mu in catalog.parameter_samples(row):
            value = catalog.engine_parameter(mu)
            if value is not None:
                lines.append(["cohomology", "data/algebras/case%02d.txt" % row,
                              "--param", str(value)] + COHOMOLOGY)
    lines.append(["cohomology", "data/algebras/case13.txt",
                  "--max-degree", "300"])
    lines.append(["cohomology", "data/algebras/case03.txt",
                  "--max-degree", "65534", "--representatives"])
    for path in sorted(HALVES.glob("*.txt")):
        name = "tests/data/" + path.name
        lines += [["check", name], ["pbw", name],
                  ["cohomology", name] + COHOMOLOGY]
    return lines


def digests(capsys):
    """{command line: (exit code, SHA-256 of stdout)}."""
    root = DATA.parent.parent
    out = {}
    for argv in command_lines():
        code = cli.main([str(root / a)
                         if a.startswith(("data/", "tests/data/")) else a
                         for a in argv])
        text = capsys.readouterr().out
        out[" ".join(argv)] = (
            code, hashlib.sha256(text.encode("utf-8")).hexdigest())
    return out


DIGESTS = {
    'table --max-degree 12 --format json':
        (1, 'f9bd6dd1fe931cc79b818a1018ecb493593f2bfae9c4d05b7b63f5e55261f484'),
    'table --max-degree 12 --format csv':
        (1, 'c9aa59383e9013081e7e0549a3adfab3098f5114e33d536e13586a46462c5a2e'),
    'table --max-degree 12 --format text':
        (1, '1a6e79a9e9a9f2fb630ed0c9eff7a50e18eb91d3b5a8216591460fe20b622b4b'),
    'check data/algebras/abelian_q0_1.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/abelian_q0_1.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/abelian_q0_1.txt':
        (0, '8d19abcb5f15463a3b595c66f879263ee0ae849bba19659f6ff1971e9ae89a44'),
    'hilbert data/algebras/abelian_q0_1.txt':
        (0, 'c99975fe1190e1415a856b87d54df358563b9f50df9cdc4241e04022d1439132'),
    'cohomology data/algebras/abelian_q0_1.txt --max-degree 12 --representatives':
        (0, '0500f68ade27ab75e80c928b6fd10fed8c3f324ea1f3b3ef138ec03007c189d4'),
    'check data/algebras/abelian_q1_2.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/abelian_q1_2.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/abelian_q1_2.txt':
        (0, '5bd8a43f80eb788fe7b6b08306f681dba2d8ac8c351b1991e208a4463d99f770'),
    'hilbert data/algebras/abelian_q1_2.txt':
        (0, '07efb29bc47724122cbd123cf5ba7fc5c545dd032414a26fc21bb808353a76c5'),
    'cohomology data/algebras/abelian_q1_2.txt --max-degree 12 --representatives':
        (0, '1b9cb58f4f52941372dbec62725de3a6cb43138d44c491c0987530e5fcade725'),
    'check data/algebras/abelian_q1_3.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/abelian_q1_3.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/abelian_q1_3.txt':
        (0, '5a6e95453e667992c41025696c57c53e823fd9dc78c4acec2dea3e43034f590a'),
    'hilbert data/algebras/abelian_q1_3.txt':
        (0, '07efb29bc47724122cbd123cf5ba7fc5c545dd032414a26fc21bb808353a76c5'),
    'cohomology data/algebras/abelian_q1_3.txt --max-degree 12 --representatives':
        (0, 'b2e222b844b96738e69506436ab82a911b65b0a3f24fa7923eb3ad92f3b6dff8'),
    'check data/algebras/abelian_q1_4.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/abelian_q1_4.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/abelian_q1_4.txt':
        (0, '08f413c812d4952ba1c020012c7076354afa075ef6e7648c112954da6538a112'),
    'hilbert data/algebras/abelian_q1_4.txt':
        (0, '07efb29bc47724122cbd123cf5ba7fc5c545dd032414a26fc21bb808353a76c5'),
    'cohomology data/algebras/abelian_q1_4.txt --max-degree 12 --representatives':
        (0, 'f2cc0bb6c93b15cfdcd7c212bce399626dd268c3abee89936d6e8889483f6988'),
    'check data/algebras/abelian_q2_5.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/abelian_q2_5.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/abelian_q2_5.txt':
        (0, 'adf36d081e316f56e0a8026072e17dbab2c1664e97fb9c10a8a7f37ed2921849'),
    'hilbert data/algebras/abelian_q2_5.txt':
        (0, '07acc6ec2a12d514c3a70de7c1b7dbd68905bade0a13eb212ec2ba515d8d5587'),
    'cohomology data/algebras/abelian_q2_5.txt --max-degree 12 --representatives':
        (0, '9d4c9ea6713bd7dd97affbd91443af02bef61800dc2aae01608e0ff42a5ffc00'),
    'check data/algebras/abelian_q2_6.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/abelian_q2_6.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/abelian_q2_6.txt':
        (0, '4a1eecdbe8985991228c13c5ed88218fa8b8b3f9e4e9070731342b6d969f3ab2'),
    'hilbert data/algebras/abelian_q2_6.txt':
        (0, '07acc6ec2a12d514c3a70de7c1b7dbd68905bade0a13eb212ec2ba515d8d5587'),
    'cohomology data/algebras/abelian_q2_6.txt --max-degree 12 --representatives':
        (0, '29e1547f897a8de9f609cf66c12f7cfb2410a81fdc65215099c75123e37073f0'),
    'check data/algebras/abelian_q2_7.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/abelian_q2_7.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/abelian_q2_7.txt':
        (0, 'a0e1f974157fc35dba8c8d0d3fbe9d6e79996a69f126a15a41fd0f26ed6e94c5'),
    'hilbert data/algebras/abelian_q2_7.txt':
        (0, '07acc6ec2a12d514c3a70de7c1b7dbd68905bade0a13eb212ec2ba515d8d5587'),
    'cohomology data/algebras/abelian_q2_7.txt --max-degree 12 --representatives':
        (0, 'ca4e8bb0cb5a12e9339c356536cce4af745cf26e677c41c73e07d26d62734881'),
    'check data/algebras/abelian_q3_8.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/abelian_q3_8.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/abelian_q3_8.txt':
        (0, '95473e51f06317b903ceb95a938031f0d84362585b1650c4a1e846d183f4f66a'),
    'hilbert data/algebras/abelian_q3_8.txt':
        (0, 'cf9f50f4cf5d0413e59b7b91b9326d77dfd41b3ae41a02d5d330f35de791af61'),
    'cohomology data/algebras/abelian_q3_8.txt --max-degree 12 --representatives':
        (0, '875a9dfd53a33e0c4e6705a3b9825ca35847d8132eb322cca4bb28b10bb88372'),
    'check data/algebras/case01.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/case01.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/case01.txt':
        (0, 'f7445f24918eb7e4e52bd8eefbf7ec3d8181504ebb8cdf581f7fddee25281678'),
    'hilbert data/algebras/case01.txt':
        (0, 'c99975fe1190e1415a856b87d54df358563b9f50df9cdc4241e04022d1439132'),
    'cohomology data/algebras/case01.txt --max-degree 12 --representatives':
        (0, '637b6eb6bba76389b81e1a80863d0cbf6d5b73e75526d61a095e1667f35a252e'),
    'check data/algebras/case02.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/case02.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/case02.txt':
        (0, 'f7445f24918eb7e4e52bd8eefbf7ec3d8181504ebb8cdf581f7fddee25281678'),
    'hilbert data/algebras/case02.txt':
        (0, 'c99975fe1190e1415a856b87d54df358563b9f50df9cdc4241e04022d1439132'),
    'cohomology data/algebras/case02.txt --max-degree 12 --representatives':
        (0, '00bcd17c27f5728391f85595465269bd36b4158d8a660c9ca1cc001e35964e8d'),
    'check data/algebras/case03.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/case03.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/case03.txt':
        (0, '8d19abcb5f15463a3b595c66f879263ee0ae849bba19659f6ff1971e9ae89a44'),
    'hilbert data/algebras/case03.txt':
        (0, 'c99975fe1190e1415a856b87d54df358563b9f50df9cdc4241e04022d1439132'),
    'cohomology data/algebras/case03.txt --max-degree 12 --representatives':
        (0, 'ea50fbd0c0a8c40b5874e49f389841ff78cec640cafe844c46f5d3e72c9b8a4b'),
    'check data/algebras/case04.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/case04.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/case04.txt':
        (0, '8d19abcb5f15463a3b595c66f879263ee0ae849bba19659f6ff1971e9ae89a44'),
    'hilbert data/algebras/case04.txt':
        (0, 'c99975fe1190e1415a856b87d54df358563b9f50df9cdc4241e04022d1439132'),
    'cohomology data/algebras/case04.txt --max-degree 12 --representatives':
        (0, '0826ef804c96e589a20d234432549f084c7b42b730b4cc6131596759c76ec6c1'),
    'check data/algebras/case05.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/case05.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/case05.txt':
        (0, '8d19abcb5f15463a3b595c66f879263ee0ae849bba19659f6ff1971e9ae89a44'),
    'hilbert data/algebras/case05.txt':
        (0, 'c99975fe1190e1415a856b87d54df358563b9f50df9cdc4241e04022d1439132'),
    'cohomology data/algebras/case05.txt --max-degree 12 --representatives':
        (0, 'a751b51e6cec7e53df9d95fc03134ce8ed9acd5e599cbb21965297cf7b6f42a7'),
    'check data/algebras/case06.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/case06.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/case06.txt':
        (0, '5bd8a43f80eb788fe7b6b08306f681dba2d8ac8c351b1991e208a4463d99f770'),
    'hilbert data/algebras/case06.txt':
        (0, '07efb29bc47724122cbd123cf5ba7fc5c545dd032414a26fc21bb808353a76c5'),
    'cohomology data/algebras/case06.txt --max-degree 12 --representatives':
        (0, '637b6eb6bba76389b81e1a80863d0cbf6d5b73e75526d61a095e1667f35a252e'),
    'check data/algebras/case07.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/case07.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/case07.txt':
        (0, '5bd8a43f80eb788fe7b6b08306f681dba2d8ac8c351b1991e208a4463d99f770'),
    'hilbert data/algebras/case07.txt':
        (0, '07efb29bc47724122cbd123cf5ba7fc5c545dd032414a26fc21bb808353a76c5'),
    'cohomology data/algebras/case07.txt --max-degree 12 --representatives':
        (0, '37fefeeb48ff65c7f99f5dffa33f18302d51c72f85d2e57c8f9b7e795801ef61'),
    'check data/algebras/case08.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/case08.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/case08.txt':
        (0, '5bd8a43f80eb788fe7b6b08306f681dba2d8ac8c351b1991e208a4463d99f770'),
    'hilbert data/algebras/case08.txt':
        (0, '07efb29bc47724122cbd123cf5ba7fc5c545dd032414a26fc21bb808353a76c5'),
    'cohomology data/algebras/case08.txt --max-degree 12 --representatives':
        (0, '3252cc4febc940c48f34000d43cb8319b38459a623af08e729c8bcdc5116028f'),
    'check data/algebras/case09.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/case09.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/case09.txt':
        (0, '5bd8a43f80eb788fe7b6b08306f681dba2d8ac8c351b1991e208a4463d99f770'),
    'hilbert data/algebras/case09.txt':
        (0, '07efb29bc47724122cbd123cf5ba7fc5c545dd032414a26fc21bb808353a76c5'),
    'cohomology data/algebras/case09.txt --max-degree 12 --representatives':
        (0, '552e393778b095fab62e210806b4d52751cec3cd70736604567f53780cf9e735'),
    'check data/algebras/case10.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/case10.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/case10.txt':
        (0, 'adf36d081e316f56e0a8026072e17dbab2c1664e97fb9c10a8a7f37ed2921849'),
    'hilbert data/algebras/case10.txt':
        (0, '07acc6ec2a12d514c3a70de7c1b7dbd68905bade0a13eb212ec2ba515d8d5587'),
    'cohomology data/algebras/case10.txt --max-degree 12 --representatives':
        (0, '637b6eb6bba76389b81e1a80863d0cbf6d5b73e75526d61a095e1667f35a252e'),
    'check data/algebras/case11.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/case11.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/case11.txt':
        (0, 'adf36d081e316f56e0a8026072e17dbab2c1664e97fb9c10a8a7f37ed2921849'),
    'hilbert data/algebras/case11.txt':
        (0, '07acc6ec2a12d514c3a70de7c1b7dbd68905bade0a13eb212ec2ba515d8d5587'),
    'cohomology data/algebras/case11.txt --max-degree 12 --representatives':
        (0, 'f080e6db79df5de720cb567f5575c26e3fae7e899c5c2566b823e662f3ad3caf'),
    'check data/algebras/case12.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/case12.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/case12.txt':
        (0, 'adf36d081e316f56e0a8026072e17dbab2c1664e97fb9c10a8a7f37ed2921849'),
    'hilbert data/algebras/case12.txt':
        (0, '07acc6ec2a12d514c3a70de7c1b7dbd68905bade0a13eb212ec2ba515d8d5587'),
    'cohomology data/algebras/case12.txt --max-degree 12 --representatives':
        (0, '3252cc4febc940c48f34000d43cb8319b38459a623af08e729c8bcdc5116028f'),
    'check data/algebras/case13.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/case13.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/case13.txt':
        (0, '004838beff1e6c69944ca9934b6122a7732e509346180a3e17124a8e71625b40'),
    'hilbert data/algebras/case13.txt':
        (0, '07acc6ec2a12d514c3a70de7c1b7dbd68905bade0a13eb212ec2ba515d8d5587'),
    'cohomology data/algebras/case13.txt --max-degree 12 --representatives':
        (0, '45cf8a2b2ce1bf816c11a228d99855f210c2398f0411a2a6aa661225ebab0f34'),
    'check data/algebras/case14.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/case14.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/case14.txt':
        (0, '004838beff1e6c69944ca9934b6122a7732e509346180a3e17124a8e71625b40'),
    'hilbert data/algebras/case14.txt':
        (0, '07acc6ec2a12d514c3a70de7c1b7dbd68905bade0a13eb212ec2ba515d8d5587'),
    'cohomology data/algebras/case14.txt --max-degree 12 --representatives':
        (0, '28fc7a17d696b7a96d8e0404089617b848f1e56f4d748590f5c9c2addb4b9269'),
    'check data/algebras/case15.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw data/algebras/case15.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'dual data/algebras/case15.txt':
        (0, '004838beff1e6c69944ca9934b6122a7732e509346180a3e17124a8e71625b40'),
    'hilbert data/algebras/case15.txt':
        (0, '07acc6ec2a12d514c3a70de7c1b7dbd68905bade0a13eb212ec2ba515d8d5587'),
    'cohomology data/algebras/case15.txt --max-degree 12 --representatives':
        (0, 'f8fe3e6c98474b4237fa953b4e2b67fe49f2c6e6ed128771f4d540cfd620df35'),
    'cohomology data/algebras/case01.txt --param -1 --max-degree 12 --representatives':
        (0, '1be7be89bb7264ca377878f1dd1c0cee54cff2955648fcde4817bfee6cdfafa0'),
    'cohomology data/algebras/case01.txt --param 1/2 --max-degree 12 --representatives':
        (0, 'c043e32a65dd1d0a834608c5dfdfd10fae9c26b8fce0d5c579a06b2934553f9b'),
    'cohomology data/algebras/case06.txt --param -1 --max-degree 12 --representatives':
        (0, '1be7be89bb7264ca377878f1dd1c0cee54cff2955648fcde4817bfee6cdfafa0'),
    'cohomology data/algebras/case06.txt --param -2 --max-degree 12 --representatives':
        (0, 'c9557f85b617b5ad69e358136d38be7fa86f681091a5da9766be34a1b513d77e'),
    'cohomology data/algebras/case06.txt --param -3 --max-degree 12 --representatives':
        (0, '8ef222c63e9642fcc7177b8aa178daf3c69a46561253a427b27ab83c65ac9865'),
    'cohomology data/algebras/case10.txt --param 1/2 --max-degree 12 --representatives':
        (0, 'c043e32a65dd1d0a834608c5dfdfd10fae9c26b8fce0d5c579a06b2934553f9b'),
    'cohomology data/algebras/case10.txt --param -1/2 --max-degree 12 --representatives':
        (0, 'f1effda5a2df6165fe4a87bee1148921abbb6a1c48b30e4384918b9282031183'),
    'cohomology data/algebras/case10.txt --param 1/3 --max-degree 12 --representatives':
        (0, '5c19310e58e8bf750ab19c656dd34ca8fdfc5dfe0a826307dafc08d87cbff668'),
    'cohomology data/algebras/case10.txt --param -1/3 --max-degree 12 --representatives':
        (0, '098f6efc4033dab5879d20d186ba5959d1053f50445340339385e3af7c4080e1'),
    'cohomology data/algebras/case10.txt --param 2 --max-degree 12 --representatives':
        (0, '3233795743ffca305dee834088c96194dffb9c06b0448f247ec758fbb6f451e0'),
    'cohomology data/algebras/case13.txt --max-degree 300':
        (0, 'e613be661072e4a9f3938a5b38a4063a12faa39bc6ea6c48c18958ea669390d8'),
    'cohomology data/algebras/case03.txt --max-degree 65534 --representatives':
        (0, '79a84fd73886cde34973fb90b932ef5dc6d503be31b82359aa40da0e8ace5393'),
    'check tests/data/case13_halved.txt':
        (0, '7b1a119859e31d8c45cdc31f55c29eec0ca848ba137b759c6f1ee20022d00438'),
    'pbw tests/data/case13_halved.txt':
        (0, 'c9056625a0b84a35dd10c29515f4b3c82da2338a84cc1b743299eb1a605eb2e4'),
    'cohomology tests/data/case13_halved.txt --max-degree 12 --representatives':
        (0, '45cf8a2b2ce1bf816c11a228d99855f210c2398f0411a2a6aa661225ebab0f34'),
    'check tests/data/jacobi_fails_halves.txt':
        (1, 'a9e806b198439466faeee8940b8475f6864247a926e82b47584f4eb55efb94d1'),
    'pbw tests/data/jacobi_fails_halves.txt':
        (1, '60424ccb1c50fde750ecd5b5f550a770018dc113bf0392a9987b23e7a24ede4a'),
    'cohomology tests/data/jacobi_fails_halves.txt --max-degree 12 --representatives':
        (1, '056627ebdba78fae4ec3a1091cee165bd0e3f886984c5f436c36e32ea4ebb757'),
}


def test_cli_output_is_byte_identical(capsys):
    assert digests(capsys) == DIGESTS
