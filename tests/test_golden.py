"""Golden CLI output: the sha256 of stdout for small invocations.

The digests were recorded from the package before the derived series were
memoized on the law and Phi was rebuilt as one divided difference; any
refactor of the series layer must leave these bytes unchanged.  The three
benchmark-size cases after them were recorded from the package before the
formal inverse became one composition through the logarithm and Newton
reversion got a doubling working order.  The last case is a usage error,
which prints nothing on stdout and exits 2.  The benchmark-size in-A
suites over all five integral betas and the remaining index formats were
recorded from the package before the closed-form cross-check became
g(f(u, v)) = g(u) + g(v) and the lattice basis lost its back-reduction.
The last two, the benchmark's universal exact suite and a miscenko table
with many generators and high weights, were recorded from the package
before coefficient monomials were packed into integers and series
products summed each output coefficient in one kernel call.  The last
nine, every identity group of a multiplicative law at order 1 and the whole
universal suite at order 3, are the cases that first show a law built too
shallow for its suite; they were recorded from the package before the suite
dispatch became one registry with one construction margin.  The last
three, the benchmark's localization recursion, the recursion at its cap and
the largest Grassmannian at the chi grass cap, were recorded from the
package before Schubert cells were enumerated as k-subsets instead of
partitions in a box.  The last four, the universal exact suite and a
first-row-only two_series_hom run at orders past the benchmark's, the
axioms of a multiplicative law at order 14 and a whole integral suite at
order 16, were recorded from the package before a product by a unit
monomial became an exponent shift, associativity reused commutativity,
and [f]_2 became f a(f).  The last three, in-A suites of a law whose
lattice keeps every relation row (mult:4), of one whose lattice drops the
Koszul-redundant rows (mult:3), and the additive suite at the benchmark's
order, were recorded from the package before the quotient ring stopped
handing the lattice the relation rows that the 2-series syzygies make
redundant; the benchmark-size mult:-2 case above covers the same change.
The last three, an in-A suite whose c' is odd at an odd order (mult:-1),
one whose c' = 4 is even so every relation row is kept (mult:8), and the
smallest ring whose Koszul exponent cap is active (mult:2 at order 2), were
recorded from the package before the quotient ring read its relation rows
off one column list generated in elimination order.
"""

import hashlib

import pytest

from cobcalc.cli import main

GOLDEN = [
    ("verify exact --law miscenko --order 8", 0,
     "4731d824a20dc3a9bb2f1eb164837e220d3d8e8c7f8586e940c6d2c367cbcb3c"),
    ("verify all --law miscenko --order 5 --format json", 0,
     "ed14f5bf650ba3fdef2def3afd551e9b48bc74c5f867630193e544afddb88026"),
    ("verify all --law mult:1 --order 8", 0,
     "ff4db0f32639ee3630a3702205aef94a42c477403c32986410dcf0e82124b323"),
    ("verify all --law mult:-2 --order 6 --format json", 0,
     "7b0327dcff688ceee98362f87fd430e2bec7a636a4de89fc1d7df66549d6908b"),
    ("verify all --law additive --order 8", 0,
     "9841527c672f934365b8be0a6289ff11dc290248b92782deb49884f72a6563f3"),
    ("verify exact --law mult:1/2 --order 6", 0,
     "790de101b502962f6c6a4c9bb69daa77845c9b8bcbd7468dd822711ab98f768f"),
    ("beta --law miscenko --order 7", 0,
     "8a577e736b6db074edd0409124308e1ec66f607eb920cafe56f4460250e72861"),
    ("beta --law mult:-2 --order 6 --format json", 0,
     "f624856723382308f1d6f865484e3fdbaa63d083959d091a2a421210c43defc3"),
    ("expand --law miscenko --order 7", 0,
     "f66552321c5fd49f8007699a874750fb15e9a68da39edb2ae714393a5853948a"),
    ("chi recursion --max 8", 0,
     "6ddd24a1219d5cd616cf48bc622649ea311c16c66aa03d6f059f375e51b54bb6"),
    ("index klein", 0,
     "64cae42c1976e49828399bcb53516074e96e8b64c103de1e8e0d8497470b4efd"),
    ("index rp2 --format json", 0,
     "63cac8cf93317e1c53368cf88f175932324bfa084addbf7435c624f438efaefe"),
    ("beta --law miscenko --order 12 --format json", 0,
     "8a1b36c246693e83cb600d83dd7fe08d7eb47c07aa809156f07c856d66cfe8ef"),
    ("expand --law miscenko --order 11", 0,
     "abac892349e9b533050f87304dbc6dae53e8bd52b5f01ffd9612f1ee0c8d980b"),
    ("verify all --law mult:2 --order 14", 0,
     "ed98465370b58953f7008bbb83237fc11346e727f5b0f4bb02600aa30380975b"),
    ("verify lemma6.2 --law mult:1/2 --order 6", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify all --law mult:1 --order 20 --format json", 0,
     "c5b9c31ec72f3b9029df6977e5a40710c102bbb3834c3b58c407423806d09ccd"),
    ("verify all --law mult:-1 --order 20 --format json", 0,
     "b70b01a8c449baefa74df9c0a92bfacf372703eb42a0f36b6c2e443311173d3a"),
    ("verify all --law mult:2 --order 20 --format json", 0,
     "9073f3f396e09247195eedee57bfe0b01404618ee849ea145585c639ced1dabd"),
    ("verify all --law mult:-2 --order 20 --format json", 0,
     "75020f25cbceebf9683560fbc8d30d83bf9b53e8f6fe4167cbc9b06328c4c12c"),
    ("verify all --law mult:3 --order 20 --format json", 0,
     "74c5e759d4c021cb26222e3febf5a7c8412b3208ec0a54a0d76d384e8d4dc0ce"),
    ("index klein --format json", 0,
     "c221a032773879ec0581beca5f713d7d6ff32bc42d984f30523a214f9dd06409"),
    ("index rp2", 0,
     "3c45c0dbc82fe675c0e34981864ecf19152eb13b57dda34c340b43c18745b831"),
    ("verify exact --law miscenko --order 9 --format json", 0,
     "c3cff95f6cbe105f7950c747b2a040b08c8d065f39235d388b3d81b3d74d884d"),
    ("expand --law miscenko --order 14", 0,
     "8ee71b83a6e0a1325ad7b53ba1b1ad40bc0c561eed1d22d28b2f8a68896be8a9"),
    ("verify axioms --law mult:1 --order 1 --format json", 0,
     "093d23f1e94181c9262edbf76b33387ff7463c4b32d8f68c112eb7d9ceb8ac7f"),
    ("verify lemma6.1 --law mult:1 --order 1 --format json", 0,
     "c1c1665409e0a7c9ffaa83a776882d76e6816045304defb3300bcd1a7438ab9f"),
    ("verify phi-factorization --law mult:1 --order 1 --format json", 0,
     "940e28a68356e6897a36f46167b8e8645a32697b5d200b716737058fd11dab62"),
    ("verify two-series-hom --law mult:1 --order 1 --format json", 0,
     "5cfa8bdf336a06a7156fd11e18a7bf58705c01a74d4fd7d077e793b486816c42"),
    ("verify lemma6.2 --law mult:1 --order 1 --format json", 0,
     "4d20b3946bca212e1239b2152a6e72bee406837102a1e507f3051085e8e6ccf7"),
    ("verify u-equals-ubar-in-A --law mult:1 --order 1 --format json", 0,
     "3b2accfa81db551cae65434a5c8102ac9fcd083cedd44394aef03479c198a925"),
    ("verify thm6.6-in-A --law mult:1 --order 1 --format json", 0,
     "3ca62a466df53ccefaa0078e8c66996efd4927975269b92ccfdef33bd2296e21"),
    ("verify assoc-in-A --law mult:1 --order 1 --format json", 0,
     "af305d6520d59f9387bae8f4f19e3e6e790e3ba1eca3450b5778c6586b968418"),
    ("verify all --law miscenko --order 3 --format json", 0,
     "add7ebec257ab9cf0eab61b0f2fc9f1707e3232158ff71a36992c0a2493eb911"),
    ("chi recursion --max 17 --format json", 0,
     "236b8ab18893776d91de9da82088fc67398896d402ff02c7a539155958a2a714"),
    ("chi recursion --max 20 --format json", 0,
     "eff1e9c91d34b291d053f92cb2801854151de9f41bc6529faee14aa5d5e191b2"),
    ("chi grass --n 24 --k 12 --format json", 0,
     "7aff375f62379a8403ff36ca9f3e9f1af31151393a2716b8e52b4c8001240f36"),
    ("verify exact --law miscenko --order 12 --format json", 0,
     "dfa3043b197ed3b533694a9de8b5a08a0ef283aa38b611191a78cbb66dc3778b"),
    ("verify axioms --law mult:-2 --order 14 --format json", 0,
     "aca8cfa3a9f2323586537ff9c8226fc63fc123e1256b4dbd6a2a15d615f672cb"),
    ("verify two_series_hom --law miscenko --order 10 --format json", 0,
     "3373beb8ae9946ef90dce485677d52ba3abf69a23fbf6354053c6477bead37e8"),
    ("verify all --law mult:3 --order 16 --format json", 0,
     "dc2c024cdf5f9aa0d90f99aca7c90f2b0529588801ce46a5de945bcdab08bde0"),
    ("verify in_A --law mult:3 --order 16 --format json", 0,
     "379151292392f24faa60f7d5850d6ddc1328595ed811d4369d70b50a7f578960"),
    ("verify assoc_in_A --law mult:4 --order 12 --format json", 0,
     "4dacad9b0188738b40b83a5c7dc9f87a294530842607095de2f8d7f05c05d038"),
    ("verify all --law additive --order 20 --format json", 0,
     "8b160e2515faa24088e44b308b0f3c259dcd7b21cb481b952cebae75d72bebf5"),
    ("verify in_A --law mult:-1 --order 11 --format json", 0,
     "c8e8e06587100e418a63fbe98a15c7488dc585f0cc63c241f79da7ca320437d1"),
    ("verify in_A --law mult:8 --order 9 --format json", 0,
     "cda09a1437b6e0438b6b3f54a94503ff0d68832d1a22c24e00bcae826d84b73b"),
    ("verify all --law mult:2 --order 2 --format json", 0,
     "102a384bad478e6d099a9d7e2a4535cfd0a0e07614adf2e619a68338dda3189b"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN,
                         ids=[c for c, _, _ in GOLDEN])
def test_stdout_matches_golden_digest(capsys, command, code, digest):
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
