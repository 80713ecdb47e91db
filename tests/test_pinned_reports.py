"""Pinned reports: the sha256 of the JSON report for a fixed argv set.

A moved digest means a report changed byte for byte.  Such a change
must be deliberate: declare it in CHANGES.md with its reason, then
update the digest here.
"""

import hashlib

import pytest

from xpv.cli import run

PINNED = {
    # every ledger-derived digest moved once when nu3 came to be enclosed
    # over K's enclosure with an Euler-Maclaurin tail past T = 2000: nu3,
    # a and final, and each mfunc mean-decay bound and slack, moved in
    # their later digits; each "(ledger nu3 was ...)" gives the digest
    # before that
    # every JSON digest moved once when the config came to echo only the
    # options its subcommand takes: no seed, partitions or sieve_cap, and
    # sieve_limit, now 1e9 by default, on verify alone; each "(config was
    # ...)" gives the digest before that.  The CSV digests hold
    # (config was 16fdf4ad...)
    "verify --check pnt-lower --from 59 --to 100000":
        "99e99018c3533795dde0b41f15fdc10a91d9658e8e70a449757f1c0445155e0c",
    # (config was 8f5b9b37...)
    "verify --check pnt-upper --from 59 --to 100000":
        "65038b4b464818911d59c7c3e9185b5245e375cfeac30177c8523b44d3ae761c",
    # worst point x = 2 < e: one-ulp move from the li rounding seed
    # |gamma| + |log y| (was 6dfb8f25...)
    # (config was 7647b489...)
    "verify --check li-lower --from 2 --to 100000":
        "a369b31abd4df72799e5eac8792dfd5723f59f780733e97f84f4e4d393f8f38d",
    # li-upper and pi-li-*: the li half-width gained the rounding of
    # y = log x, which moves worst_margin in its last digits (li-upper
    # was f088633d..., pi-li-1/2/3 to 1e5 2475c10f.../47bff6f6.../
    # 51ac4fb3..., to 1e6 f4a36273.../432289db.../c26b6771..., and
    # pi-li-1 with 3 partitions f8e08c60...)
    # (config was 12be1e0a...)
    "verify --check li-upper --from 1865 --to 1000000":
        "84c7cd93819439b4dcb1a93b8de192a01c56688833ad8f7b9afa92b4e12c8d94",
    # (config was e9553a48...)
    "verify --check pi-li-1 --from 2 --to 100000":
        "857326fe90948c6c28b8efa827a5397bddf75d558a91f9da4956951172e6cb3e",
    # (config was fbfb81b2...)
    "verify --check pi-li-2 --from 2 --to 100000":
        "5766541855b6c455b6a787c4e683cca7a89744ae579083fd2aa43c6d4ce9bf79",
    # (config was d715930e...)
    "verify --check pi-li-3 --from 2 --to 100000":
        "451c3494bfd1783f16be1e4ea94a2362df2027bca134663f94db19a159024b27",
    # (config was 7b5bacb8...)
    "verify --check mertens-remainder --from 2 --to 100000":
        "b4a57b84af3393b34c7c74fa4525e829e753f02cce95b639254f73d47d46ebda",
    # (config was f94523f9...)
    "verify --check mertens-bracket --from 2 --to 100000":
        "1bce547821c146c662eeb1db751c7b3a887c46d35e73bde07286573f0236973d",
    # (config was 4082fb02...)
    "verify --check mertens-mprime-coarse --from 2 --to 100000":
        "b9827c75a2adfce6e4add4810f2e6ef569dcf14bc4106611a73c660eb5f3aadf",
    # (config was 4621029d...)
    "verify --check log2p-plain --from 2 --to 100000":
        "9da62c9aaca8df2c8e859d84cf26e0a8cf660d1f75f3d8e5c8e9b90cd3fa84e8",
    # (config was 8c8b6d47...)
    "verify --check tail-power --from 0.001 --to 1":
        "6018ee567ba4d1745e51060e20438f034b0755f062c9f56c9691bcdbf24fa632",
    # 78498 primes: the li series runs over several of its blocks
    # (config was a84640c4...)
    "verify --check pi-li-1 --from 2 --to 1000000":
        "10ecdecd2b1fcd632ffd09c058af7d5d6506b6a8f92e307aa8a800836891c4b1",
    # (config was fdcac1de...)
    "verify --check pi-li-2 --from 2 --to 1000000":
        "1ba9094d8a3e75d033664549a64a62dd04552cea935f04e732e24c9dc5d27b78",
    # (config was eb286669...)
    "verify --check pi-li-3 --from 2 --to 1000000":
        "378f79a530da48d0076d785e4ce885096f54ba9d6ba5ba925d0fde7d45955d25",
    # 78498 primes: the prime-sum prefixes run far past small-x effects
    # (config was ad2688d0...)
    "verify --check mertens-remainder --from 2 --to 1000000":
        "e9349bd8c027c4a7f9df378e383ee57716baddbe9ab8d56502cf46aaed1f78af",
    # (config was bbc522a1...)
    "verify --check mertens-bracket --from 2 --to 1000000":
        "a1b5af1d8aa5be3b313617929c79a6dea7100e4d8e2338f3418217798a2ab781",
    # (config was 2173ff3b...)
    "verify --check mertens-mprime-coarse --from 2 --to 1000000":
        "00849b789a6c2c090e7a919c6ec4055a3bd1b0ac262ab5c4f37854b1fcd74ced",
    # the last x inside the stated validity of log2p-plain
    # (config was af72a27a...)
    "verify --check log2p-plain --from 2 --to 355990":
        "b2206e82ccd1ecda12af6e4c9e80542c7667a15503b6b7431c43db1d6ee686b9",
    # the buchstab exponent check gained the negative-margin note from
    # the shared sweep reducer (was 6ab4e8eb...); then the table's
    # landmarks, max_err and largest_exponent moved when the series
    # replaced the march (was 26881e6f...)
    # (config was b3f826ba...)
    "dickman --xmax 10 --exponent-check 1,10,1.15,table "
    "--exponent-check 6,10,1.0,buchstab":
        "f4e122f5637545c764adaf4d4f0520d817a27ee39b0950e43fd64ac59cf2c411",
    # (config was 3c426b67...)
    "charsum --q 7":
        "2236d3e092be1b2bfe439ea116a3a4eb3a0811516b4d518d6c1a2db54455f8ea",
    # runs the tail-sum tau search; c_iii_tau reads 1 since case iii is
    # taken at its proven worst point tau = 1 (was 8937088c..., with the
    # golden section's 1.0000000000000002); the failed K-near-published
    # entry's kind became check-not-passed and its key check became
    # check_id (was 1e71365a...); nu2 summed prime by prime with a
    # Rosser-Schoenfeld tail moved nu2, C, a and final in their last
    # digits (was 4af81c89...); nu3 with a stated rounding pad moved nu3,
    # a and final (was e90cc7aa...)
    # (config was fa3a25eb...)
    # (ledger nu3 was 80b88eb0...)
    "constants --optimize":
        "aa809f31055ea51ecc011b6b9df862a93021ea073248af2a572b587f785e4d64",
    # column-power-law is judged on every row, leaving out the pairs that
    # touch the outlier cell: its worst deviation went from 0.011307 to
    # 0.015620 in the detail text (was 44e54d84...)
    # (config was 5eb43b98...)
    "table --delta-paper":
        "cb95d4fda22190b98d6ec09c69e30d932e89521f8b25624da4950e15d84b16e7",
    # the tighter nu2 moved the mean-decay bound (was d4630828...), then
    # the nu3 pad moved it again (was e207c129...)
    # (config was 4acfe758...)
    # (ledger nu3 was 57c30242...)
    "mfunc --kind liouville --x 1000,100000":
        "d31ba7e4325178dd8bbc313ea7d0d17392db3881050450c9c6f7e45027a4402d",
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
    # (config was 465c2510...)
    "charsum --q 999999":
        "65ace407ca8486500761a20f94c04e7535114d434523d2cd15494ed0589e3cef",
    "charsum --q 255255 --format csv":
        "7fc983eee8ef34d22a174652718012856d7b11963c0e53a3d60f05cee401a6fe",
    # hashed signs, non-integer custom values with a zero prime at a
    # non-integer x, and a composite modulus; every mean-decay bound moved
    # with nu2, and the signs with the SplitMix64 rule (were 5f3dc333...,
    # 66fb0685... and 09a95b14...), then every mean-decay bound with the
    # nu3 pad (were 68b10b83..., c764a1e0... and 5444fe34...)
    # (config was 6e5ef57c...)
    # (ledger nu3 was 277d77df...)
    "mfunc --kind random:777 --x 1000,100000":
        "d9fae99207bbee29a0e0bb22eaa2d09e332ad8129e24e9b8520a69d6b2f93a55",
    # (config was 2fd5d86e...)
    # (ledger nu3 was ddfaedff...)
    "mfunc --kind custom:2=0.5,3=-0.25,7=0 --x 1000,100000.5":
        "84a6af9483eadc0f321aa6d89b2239c52b375d3b776ff5151a5b8fbf2185df48",
    # (config was 834b3b1c...)
    # (ledger nu3 was 89d29187...)
    "mfunc --kind qchar:15 --x 1000,100000":
        "24d598bfb30b911f2ced82593218c765e90ad0a489ecb43feb20b318c0d41f41",
    # the constant chain without the optimizer, at the published and at
    # another C0; c_iii_tau moved to 1 as above (were 33f9650d... and
    # c1f3caf8...), then the failure entry moved as above (were
    # 603871b0... and 3b8ca489...), then nu2 as above (were 2b42d13c...
    # and 46e3dbb3...), then nu3 as above (were 39c3c480... and 14994d5a...)
    # (config was 6efd3ce0...)
    # (ledger nu3 was f08d12fe...)
    "constants":
        "fd1735a659b4e7e46dc5e8bb7cf99356c110eff4c437d26b10017a580b17111d",
    # (config was 8a7d620a...)
    # (ledger nu3 was 8251204e...)
    "constants --c0 8":
        "c64fbd97438185884fbc4c5f0994e603172e1cbdce3e8aff9ac8de4d634cd4bb",
    # nu2 and nu3 on a table sieved past the ledger's prime limit; nu2
    # and the signs as above (were f76e6258... and e0fe3a11...), then nu3
    # as above (were 611f69af... and b1c21b0f...)
    # (config was 0eb6a386...)
    # (ledger nu3 was f0c6fd71...)
    "mfunc --kind liouville --x 1000000,1500000":
        "1fece261a19b0d0eebb1ca84c191bfc58dca4435c2197e8ead99775f0a59528f",
    # (config was d402039b...)
    # (ledger nu3 was 8182a4e2...)
    "mfunc --kind random:5 --x 1000000,1500000":
        "aa7f6e244f7ca2ce372e8bcb3528d4e02186353ef674d91a4fe6e42bf97793d0",
}


@pytest.mark.parametrize("argv", sorted(PINNED))
def test_report_digest_is_pinned(argv, capsys):
    run(argv.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED[argv], f"report of `xpv {argv}` changed"
