"""Pinned reports: the sha256 of the JSON report for a fixed argv set.

A moved digest means a report changed byte for byte.  Such a change
must be deliberate: declare it in CHANGES.md with its reason, then
update the digest here.
"""

import hashlib

import pytest

from xpv.cli import run

PINNED = {
    "verify --check pnt-lower --from 59 --to 100000":
        "16fdf4adbccfae61e0a46bdf46081beb063f04b62847f4cefa9111ed03d7cb50",
    "verify --check pnt-upper --from 59 --to 100000":
        "8f5b9b378d76a7a8853c147cb9f0cc3b52cdd6a52044f6dfde461d7d04759011",
    # worst point x = 2 < e: one-ulp move from the li rounding seed
    # |gamma| + |log y| (was 6dfb8f25...)
    "verify --check li-lower --from 2 --to 100000":
        "7647b48985e82ca3a61d0600470c69d5d21f00c64642b9c29346b5cad6e71380",
    # li-upper and pi-li-*: the li half-width gained the rounding of
    # y = log x, which moves worst_margin in its last digits (li-upper
    # was f088633d..., pi-li-1/2/3 to 1e5 2475c10f.../47bff6f6.../
    # 51ac4fb3..., to 1e6 f4a36273.../432289db.../c26b6771..., and
    # pi-li-1 with 3 partitions f8e08c60...)
    "verify --check li-upper --from 1865 --to 1000000":
        "12be1e0ac489b1f7daaa0f62f25c564b61678d69bc83b4c35b7f9aed52df1a46",
    "verify --check pi-li-1 --from 2 --to 100000":
        "e9553a48fd2029cccca3ba8e27c3be72d066250c4dff3f0e4bab4267a5f99b36",
    "verify --check pi-li-2 --from 2 --to 100000":
        "fbfb81b270eecdd932ad716f0fa9335a004d9e7990315808b7b6059bc6819266",
    "verify --check pi-li-3 --from 2 --to 100000":
        "d715930eb9cb9ee9f9db993de1acc04f2f0689ebced3c6a2e7fd1f58d52544b2",
    "verify --check mertens-remainder --from 2 --to 100000":
        "7b5bacb82521ddb149d528cd98db5cd02b61b254172db5a1006bdea7bf07818d",
    "verify --check mertens-bracket --from 2 --to 100000":
        "f94523f9bcbe0fd24ed8702d67918022a2b6de7286b5673fcb1052f090370991",
    "verify --check mertens-mprime-coarse --from 2 --to 100000":
        "4082fb02abd47c35b62554da25a8798cd0b9e7c4a70bca73a05af043b41742ad",
    "verify --check log2p-plain --from 2 --to 100000":
        "4621029dd35028425e5d29122647d58a6c0652c76bfe3b698e93d26f2d66e18f",
    "verify --check tail-power --from 0.001 --to 1":
        "8c8b6d475ddc06f563d3088259838e3894d2f0cf81ea2648b1bb947943233d5f",
    # 78498 primes: the li series runs over several of its blocks
    "verify --check pi-li-1 --from 2 --to 1000000":
        "a84640c4b016be20e0bfd85fb95ee6daf3cef54d3bf7d838baadc9799274a6f6",
    "verify --check pi-li-2 --from 2 --to 1000000":
        "fdcac1de56c18a3c30fb1016d3f8d6a87246cb2f5d364c6501c3116502abb84f",
    "verify --check pi-li-3 --from 2 --to 1000000":
        "eb2866692ad8d01782a40aff4cbebe6d82eee61886530aea7eaeb3116b67490a",
    # --partitions is echoed in the config and splits nothing: the
    # results equal the unpartitioned run's byte for byte (was 127ab11d...
    # when each of three sub-sweeps kept its own li term count)
    "verify --check pi-li-1 --from 2 --to 1000000 --partitions 3":
        "42ee7801b258082495220421daa1a20c42382404cb9285e0b05f3405aeada8d2",
    # 78498 primes: the prime-sum prefixes run far past small-x effects
    "verify --check mertens-remainder --from 2 --to 1000000":
        "ad2688d0f2cf6d41a9bec31e9e5c4ab5a9d0568f128b4c8fc7f894ea7f8de222",
    "verify --check mertens-bracket --from 2 --to 1000000":
        "bbc522a1020c66d17f268658cc385c3f3f1cf7dee3462a84a88b76f3aab23856",
    "verify --check mertens-mprime-coarse --from 2 --to 1000000":
        "2173ff3be820463dee3213c7d8324c396da62b928c08eed6e3a06bf5bd68d286",
    # the last x inside the stated validity of log2p-plain
    "verify --check log2p-plain --from 2 --to 355990":
        "af72a27a4472c976a04dc0d4814f3d0411eb5520aab5704ef2edc120b267c582",
    # as above; the four merged sub-sweeps counted 19191 states, 6 more
    # than the range has (was bef4fcd2...)
    "verify --check mertens-remainder --from 2 --to 100000 --partitions 4":
        "9cafb72a9a61c4d494c5dc43bcb3d5fda04d21c99429c2056cfd88392c5f43b5",
    # the buchstab exponent check gained the negative-margin note from
    # the shared sweep reducer (was 6ab4e8eb...); then the table's
    # landmarks, max_err and largest_exponent moved when the series
    # replaced the march (was 26881e6f...)
    "dickman --xmax 10 --exponent-check 1,10,1.15,table "
    "--exponent-check 6,10,1.0,buchstab":
        "b3f826ba86e2e96895c09b77d9c375066defde7de4229b9bd356a2a2f6385307",
    "charsum --q 7":
        "3c426b674cecc16437b225dde0434f32c57e1a9823abf2457644634aa437ca7a",
    # runs the tail-sum tau search; c_iii_tau reads 1 since case iii is
    # taken at its proven worst point tau = 1 (was 8937088c..., with the
    # golden section's 1.0000000000000002); the failed K-near-published
    # entry's kind became check-not-passed and its key check became
    # check_id (was 1e71365a...); nu2 summed prime by prime with a
    # Rosser-Schoenfeld tail moved nu2, C, a and final in their last
    # digits (was 4af81c89...)
    "constants --optimize":
        "e90cc7aab263e4f5aeae6db23f4015b13092d791931570cbb2f40bd03f96e470",
    # column-power-law is judged on every row, leaving out the pairs that
    # touch the outlier cell: its worst deviation went from 0.011307 to
    # 0.015620 in the detail text (was 44e54d84...)
    "table --delta-paper":
        "5eb43b9808decff71feb95dddbc6a0a0ff5e828147f5c55f455c3cc24b5d5ea7",
    # the tighter nu2 moved the mean-decay bound (was d4630828...)
    "mfunc --kind liouville --x 1000,100000":
        "e207c129fa01df703910ee65276d53ad14b7c3d0fbb3ecac8a48410502dee5c0",
    # every log_rho and err of the grid moved with the series (was
    # 990f836b...)
    "dickman --xmax 10 --format csv":
        "6b129c789a37cd8a69adf59a55002fcf7e5abbe6041cd608dad9cb6ddfbff169",
    "table --c1 1,2 --c 0.99,0.5 --delta-paper --format csv":
        "f6aed3e808bf6ca62728697a5525b7c102d9f1e6f73a75d2bcd84a905eea36c6",
    "mfunc --kind qchar:7 --x 1000,100000 --format csv":
        "09a4df72453442371b89406164afad8b70f6d28dbbdce10997ec2186a4ecfa7a",
    "charsum --q 7,11,13 --pv-ratio --format csv":
        "8e1a1625211c9482409b4823e882c86ebe16242fb15203bfaf85eedefd4091ac",
    # hashed signs, non-integer custom values with a zero prime at a
    # non-integer x, and a composite modulus; every mean-decay bound moved
    # with nu2, and the signs with the SplitMix64 rule (were 5f3dc333...,
    # 66fb0685... and 09a95b14...)
    "mfunc --kind random:777 --x 1000,100000":
        "68b10b83738121bf31782885d72337a94d287c6b1cd6b923dc89a462e049fe84",
    "mfunc --kind custom:2=0.5,3=-0.25,7=0 --x 1000,100000.5":
        "c764a1e060b3304594994c8f456c297ee8cfa0f8be8d64b5d4adfaa233b80967",
    "mfunc --kind qchar:15 --x 1000,100000":
        "5444fe34b7aa5b9a8a6ad260c5f1ded4c4f91d7ba4b79be74d99d34a8517a138",
    # the constant chain without the optimizer, at the published and at
    # another C0; c_iii_tau moved to 1 as above (were 33f9650d... and
    # c1f3caf8...), then the failure entry moved as above (were
    # 603871b0... and 3b8ca489...), then nu2 as above (were 2b42d13c...
    # and 46e3dbb3...)
    "constants":
        "39c3c48073fe189cc4d8cf9f5c2d95234fb2e176dae88bfe5485d9cf5a026b63",
    "constants --c0 8":
        "14994d5a7e23a8968fd550c7a9eecab1635cf3bf977dc4cee2db96decd18674c",
    # nu2 and nu3 on a table sieved past the ledger's prime limit; nu2
    # and the signs as above (were f76e6258... and e0fe3a11...)
    "mfunc --kind liouville --x 1000000,1500000":
        "611f69afd2b8dc731ae6ecda2619088f16175cff62d562d0f46a7aa5ea64b35d",
    "mfunc --kind random:5 --x 1000000,1500000":
        "b1c21b0f291278994323f61bf12ebd1f9e653cbc6847c36a5826a2f5caca1684",
}


@pytest.mark.parametrize("argv", sorted(PINNED))
def test_report_digest_is_pinned(argv, capsys):
    run(argv.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED[argv], f"report of `xpv {argv}` changed"
