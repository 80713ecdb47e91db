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
    # digits (was 4af81c89...); nu3 with a stated rounding pad moved nu3,
    # a and final (was e90cc7aa...)
    "constants --optimize":
        "fa3a25eb5520dbddd4d016c9f7564cc9f4e626f4f70731b6a51557773f8b2678",
    # column-power-law is judged on every row, leaving out the pairs that
    # touch the outlier cell: its worst deviation went from 0.011307 to
    # 0.015620 in the detail text (was 44e54d84...)
    "table --delta-paper":
        "5eb43b9808decff71feb95dddbc6a0a0ff5e828147f5c55f455c3cc24b5d5ea7",
    # the tighter nu2 moved the mean-decay bound (was d4630828...), then
    # the nu3 pad moved it again (was e207c129...)
    "mfunc --kind liouville --x 1000,100000":
        "4acfe7584ab851c8bc667925d1d24de2ca5eb2dec1c765ce7cb94ffed0776c2c",
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
    # composite moduli, one not squarefree: the period is the product of
    # Legendre periods over the prime powers of q
    "charsum --q 999999":
        "465c25107979a8fd2b605c75988202e8ccf3ec4c88a947907a6ef55e3a823f0b",
    "charsum --q 255255 --format csv":
        "7fc983eee8ef34d22a174652718012856d7b11963c0e53a3d60f05cee401a6fe",
    # hashed signs, non-integer custom values with a zero prime at a
    # non-integer x, and a composite modulus; every mean-decay bound moved
    # with nu2, and the signs with the SplitMix64 rule (were 5f3dc333...,
    # 66fb0685... and 09a95b14...), then every mean-decay bound with the
    # nu3 pad (were 68b10b83..., c764a1e0... and 5444fe34...)
    "mfunc --kind random:777 --x 1000,100000":
        "6e5ef57c7c0c0fe05786c4f927952decf4691ec68808e38ce4447a02a4c2d0e8",
    "mfunc --kind custom:2=0.5,3=-0.25,7=0 --x 1000,100000.5":
        "2fd5d86eeccf3d0c97531e785367343bbdd9d3f43178826c3504d7a29620d1dc",
    "mfunc --kind qchar:15 --x 1000,100000":
        "834b3b1cacc8b1dcb0d3e26b1c68ac02950b57248dbf58f7b74f3ab4d12fcc43",
    # the constant chain without the optimizer, at the published and at
    # another C0; c_iii_tau moved to 1 as above (were 33f9650d... and
    # c1f3caf8...), then the failure entry moved as above (were
    # 603871b0... and 3b8ca489...), then nu2 as above (were 2b42d13c...
    # and 46e3dbb3...), then nu3 as above (were 39c3c480... and 14994d5a...)
    "constants":
        "6efd3ce04bebed0ae66bfc479256d6f6dd6908c3d83e9d9bbef4f15f5af533a0",
    "constants --c0 8":
        "8a7d620ae73affd559a1e5f80767b1a284fd8a3f3fc94348164b4116501b3a8f",
    # nu2 and nu3 on a table sieved past the ledger's prime limit; nu2
    # and the signs as above (were f76e6258... and e0fe3a11...), then nu3
    # as above (were 611f69af... and b1c21b0f...)
    "mfunc --kind liouville --x 1000000,1500000":
        "0eb6a38679a2a2cc56eb3fa5682f0951760145b6b4800800864938fc75b57cc5",
    "mfunc --kind random:5 --x 1000000,1500000":
        "d402039b34a5033854900b0cf2402263781b504cd625f8a9b4f6faa10a44021b",
}


@pytest.mark.parametrize("argv", sorted(PINNED))
def test_report_digest_is_pinned(argv, capsys):
    run(argv.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED[argv], f"report of `xpv {argv}` changed"
