"""Byte-identity of filtered verification reports.

``tests/test_golden.py`` pins the unfiltered quick and full reports; this
file pins the report of every combination of ``--algebra``, ``--max-weight``
and ``--quick`` over the supported types and the caps 0, 1 and 2, together
with the suites that warn as having run no case.  The digests are the SHA-256
of the ``verify --format json`` output as written by ``cli.main``.
"""

import hashlib

import pytest

from qgroups import verify
from qgroups.cli import EXIT_OK, EXIT_USAGE, main

# (algebra, max_weight, quick) -> (report digest, suites that warn as empty)
SWEEP = {
    (None, None, False): (
        "80d3675f96c3011d460e4c30faec17d8f5976779c35aa80586b743a717ee8f0b",
        []),
    (None, None, True): (
        "3f6ed72ac71d3aa78949e67d71cee2a3e378946ccfcfdf95c74889b945f4be8e",
        []),
    (None, 0, False): (
        "e8afc8f2241748e7dd82318eb36d242a104e6a72bb560a57be394ebadd09f69b",
        []),
    (None, 0, True): (
        "1610ff6ea08e1a818015a49ca8793be7f4ee18446c4ee67042ae7c8411defdb4",
        []),
    (None, 1, False): (
        "91d30378a7972ffdf7be046f354fffe63c2ae3ea384e249a11736fc69779619a",
        []),
    (None, 1, True): (
        "314af4a47ff22115d4461e7f567df84acd71202c11319361f1f34f1b55a434d4",
        []),
    (None, 2, False): (
        "5fe161cfc1efe22a38b643bedd6687317a3debe11f34a8afd1e321fba3a26a9b",
        []),
    (None, 2, True): (
        "1a7ab8924aa51faf3a5e5f51cfa426ab01c0a57871522f3386c6702580efc1ab",
        []),
    ('A1', None, False): (
        "abab22079fbc62b647f0f2d27737bfdb7400cbe539a003128de5d55da2aa6683",
        []),
    ('A1', None, True): (
        "1d884caec04d57257d9783132b01cec1af48bb542b67718558b1794a2246124a",
        []),
    ('A1', 0, False): (
        "d83aa868386b0d9ce80e634e3063d8bd1b143179c2bb66000ce9985319ccd454",
        []),
    ('A1', 0, True): (
        "09b8e842900961d39d1fb82c322f6386d5c2d0ab1fe2844ffcff13976f209404",
        []),
    ('A1', 1, False): (
        "6d8ef0d84d3d9ca104b058481e873b421cd465835cf46713570134d96087f98b",
        []),
    ('A1', 1, True): (
        "6f81c22cd3e671a61476573d822f79e811109879cab08fd1db67bbdcf872759b",
        []),
    ('A1', 2, False): (
        "6328a384fd33abbc7a9e9d7711e2e2329cce06a39caf8216b7f8634150377119",
        []),
    ('A1', 2, True): (
        "21362cf78dcc9030fc5900854fe15baf827f120b6dd0aac77745ab90303bc824",
        []),
    ('A2', None, False): (
        "c51d4941ff72eb75acc5bf83d987081ca649409a2d62def5acb8cfa1b6dd00b2",
        []),
    ('A2', None, True): (
        "c8876be5271cf7d426c457e1841082722489a4790692a28d2d0663306c7f8d2c",
        ['borel_weil', 'frobenius', 'projectivity']),
    ('A2', 0, False): (
        "b6b718f3ab405617c65995c789e81897bfd4409e9512fbc031dda56c6d9c149b",
        []),
    ('A2', 0, True): (
        "17f214b7b6e0de0f739cec874c710fffc11b38b28bdfff1c094e4019e4c979f6",
        ['borel_weil', 'frobenius', 'projectivity']),
    ('A2', 1, False): (
        "d4e2b520c2a2f616f290014e1df96bbc669a0cc8a296af7669274c8cb7f90fe2",
        []),
    ('A2', 1, True): (
        "60a448e0b3c05a024e628bd06eb3d1e9d0393d8823e52494185c98bd30992fd5",
        ['borel_weil', 'frobenius', 'projectivity']),
    ('A2', 2, False): (
        "842b5b16e2b5757bc348d5b92a165f4dd947f53b04c602394151d03718c6dbed",
        []),
    ('A2', 2, True): (
        "a95cd16fb353d179d9a7f721ba747ce191f040a45326ecb7169410872b859d0b",
        ['borel_weil', 'frobenius', 'projectivity']),
    ('A3', None, False): (
        "0ae6ce22de4a6774e88045de81325354184a389a01e10de766db11b1eb6ef822",
        ['borel_weil', 'frobenius', 'hom_criterion', 'projectivity']),
    ('A3', None, True): (
        "4922bef4e90d405ad5c4ba113db6c77bcf88a696eb3a2fa3ed2b0d602acb6eb4",
        ['borel_weil', 'frobenius', 'haar_positivity', 'hom_criterion', 'hopf', 'invariants', 'projectivity']),
    ('A3', 0, False): (
        "d0441a09fc44641db3741fa4bd784fcb9eff9570ba2aa437f8240a7098ebb8d3",
        ['borel_weil', 'dimensions', 'frobenius', 'hom_criterion', 'hopf', 'projectivity', 'relations', 'schur']),
    ('A3', 0, True): (
        "c6e5e8fd6bdd9db3f43af6e2059732c92fb85143a50dd7f43d29c182d494e559",
        ['borel_weil', 'dimensions', 'frobenius', 'haar_positivity', 'hom_criterion', 'hopf', 'invariants', 'projectivity', 'relations', 'schur']),
    ('A3', 1, False): (
        "7423a216f8108e2b999e2161ceefe95fd4649ae16a55f4b0524980433bfa75c8",
        ['borel_weil', 'frobenius', 'hom_criterion', 'projectivity']),
    ('A3', 1, True): (
        "08f107c06b50d85d0f3ef85c2d52e88f67bb7ad68a661cdcfe690f2259c3e719",
        ['borel_weil', 'frobenius', 'haar_positivity', 'hom_criterion', 'hopf', 'invariants', 'projectivity']),
    ('A3', 2, False): (
        "292424a153d31b1fdc8512dfaa7963cb78be027062928008c2cb21e8ceda0079",
        ['borel_weil', 'frobenius', 'hom_criterion', 'projectivity']),
    ('A3', 2, True): (
        "753c52ba28ba6f972e1e3da6329a4216324ab4beffda517a6c03a8b573d053dc",
        ['borel_weil', 'frobenius', 'haar_positivity', 'hom_criterion', 'hopf', 'invariants', 'projectivity']),
    ('B2', None, False): (
        "0d242bdf97761f2f3361dcbd8d675f648ae06273a4d262c846eb37ab53f9de3b",
        ['borel_weil', 'frobenius', 'hom_criterion', 'projectivity']),
    ('B2', None, True): (
        "6138db9f1b4daf7b181b26ba0d2a9bb4229d9ac7dd3df6c76b75fad70789ac8d",
        ['borel_weil', 'frobenius', 'haar_positivity', 'hom_criterion', 'hopf', 'invariants', 'projectivity']),
    ('B2', 0, False): (
        "a1e1a66279c1ffc4cde2f3dea3315227b7be65dcbfe86778d4092ac98e2be13a",
        ['borel_weil', 'frobenius', 'hom_criterion', 'hopf', 'projectivity']),
    ('B2', 0, True): (
        "50874379422b6c0e720b274dac734254945d7efa7894c4743510fccba8b31f62",
        ['borel_weil', 'frobenius', 'haar_positivity', 'hom_criterion', 'hopf', 'invariants', 'projectivity']),
    ('B2', 1, False): (
        "36b27ebadfa5b2ca813a9880750bf3bde121131a364a539461e48edca10bc2d5",
        ['borel_weil', 'frobenius', 'hom_criterion', 'projectivity']),
    ('B2', 1, True): (
        "1fd00df12a8bedb9e5c26ef60d848758bc6ad5ce45abf5c837dc16a3a1f14a19",
        ['borel_weil', 'frobenius', 'haar_positivity', 'hom_criterion', 'hopf', 'invariants', 'projectivity']),
    ('B2', 2, False): (
        "776185d5c8b9a5a05d6d890efd550163fc58836a4ece0f78c8961b807850ad55",
        ['borel_weil', 'frobenius', 'hom_criterion', 'projectivity']),
    ('B2', 2, True): (
        "cd3f334068ff4369ef527e0e8c921cb0494898c4b93731f6782d1f7ee436ab03",
        ['borel_weil', 'frobenius', 'haar_positivity', 'hom_criterion', 'hopf', 'invariants', 'projectivity']),
}


@pytest.mark.parametrize("algebra, max_weight, quick", sorted(SWEEP, key=repr))
def test_filtered_report_digest_and_empty_suites(algebra, max_weight, quick, capsys):
    argv = ["verify", "--format", "json"] + ["--quick"] * quick
    if algebra is not None:
        argv += ["--algebra", algebra]
    if max_weight is not None:
        argv += ["--max-weight", str(max_weight)]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    digest, empty = SWEEP[algebra, max_weight, quick]
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest
    filters = " ".join(argv[3:])
    assert captured.err.splitlines() == [
        f"warning: {name} ran no case under {filters}" for name in empty]


def test_empty_explicit_check_fails_before_any_suite_runs(monkeypatch, capsys):
    def must_not_run(**_):
        raise AssertionError("relations ran before the empty check was rejected")

    monkeypatch.setitem(verify.ALL_CHECKS, "relations", must_not_run)
    argv = ["verify", "--quick", "--check", "relations", "--check", "hopf",
            "--algebra", "B2", "--max-weight", "0"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --check hopf ran no case under "
                            "--quick --algebra B2 --max-weight 0\n")
