#!/usr/bin/env python3
"""Run the mutation table: each entry breaks the package in one known way,
and the tests it names must catch it.

An entry names a file of src/superverma, an exact text that occurs there
once, its replacement, and the pytest node ids that must fail.  First the
script copies src/, tests/, scripts/, pyproject.toml and README.md to a
temporary directory and runs every distinct node of the table there once,
unmutated, in one pytest call; if that run fails, so that a node could
count a kill that no mutation made, the script exits with 1 before any
entry.  Then, for each entry, it makes a fresh copy, makes the replacement
in it, and runs each of the entry's nodes there with -x, one pytest run per
node.  The entry is killed when every run exits with 1 (tests failed), so
each node it names catches it alone.  A text that does not occur exactly
once is an error, so a refactor that rewrites a mutated line has to re-home
its entry; an entry that survives a node (pytest exits with anything but 1)
is an error too.  The exit status is 1 if the control run or any entry
fails, else 0.

Usage:
    python3 scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "pyproject.toml", "README.md")


class Mutant(NamedTuple):
    name: str
    file: str
    text: str
    replacement: str
    nodes: Tuple[str, ...]


ORBIT_GOLDEN = "tests/test_golden.py::test_output_matches_golden[orbit_chains_seed0.ndjson]"
LIFTED_IMAGES = "tests/test_orbit.py::test_lifted_images_are_the_image_checks_images_with_f_kappa_appended"
CHAIN_CONFIGS = "tests/test_orbit.py::test_chain_configs_reach_target"
LEVEL_GRID = "tests/test_cli.py::test_every_level_of_a_grid_is_checked_before_set_up"
MULTIPLY = "tests/test_pbw.py::test_multiply_matches_one_power_at_a_time"
JOIN = "tests/test_pbw.py::test_join_matches_right_multiplication"
LEFT_RULE = "tests/test_pbw.py::test_left_rule_matches_right_multiplication"
TAIL_CHECK = "tests/test_singular.py::test_engines_of_a_case_share_the_table_and_make_each_order_once"

MUTANTS = (
    Mutant(
        "weight-exponent-dropped",
        "pbw.py",
        "point[i] += e * c",
        "point[i] += c",
        ("tests/test_lattice.py::test_weights_stay_exact_for_large_exponents",),
    ),
    Mutant(
        "weight-f-rows-sign",
        "superalgebra.py",
        "tuple(tuple((i, -c) for i, c in row) for row in pos_rows)",
        "tuple(tuple((i, c) for i, c in row) for row in pos_rows)",
        ("tests/test_pbw.py::test_lattice_weights_match_fraction_sums",),
    ),
    Mutant(
        "walk-odd-sign",
        "pbw.py",
        "                if g_odd:\n                    c = -c\n",
        "",
        ("tests/test_pbw.py::test_commutator_matches_its_definition",),
    ),
    Mutant(
        "insert-b1-bracket-sign",
        "pbw.py",
        "if b > 1 else (bracket,)",
        "if b > 1 else ({z: -c for z, c in bracket.items()},)",
        ("tests/test_pbw.py::test_insert_matches_prepending_the_product",),
    ),
    Mutant(
        "insert-odd-square-half",
        "pbw.py",
        "Fraction(c, 2)",
        "Fraction(c, 1)",
        ("tests/test_pbw.py::test_odd_square_rewrites_through_bracket",),
    ),
    Mutant(
        "merge-zero-guard",
        "superalgebra.py",
        "        if new:\n            into[k] = _exact(new)",
        "        if True:\n            into[k] = _exact(new)",
        ("tests/test_superalgebra.py::test_merge_and_scale_keep_canonical_form",),
    ),
    Mutant(
        "right-divide-unchecked",
        "pbw.py",
        "            self.check_lowering(mono)\n",
        "",
        ("tests/test_pbw.py::test_right_division_refuses_an_out_of_order_monomial",),
    ),
    Mutant(
        "rightmost-even-parity-unchecked",
        "pbw.py",
        "if f != self.rightmost_negative or self.table.odd[f]:",
        "if f != self.rightmost_negative:",
        ("tests/test_pbw.py::test_right_division_raises",),
    ),
    Mutant(
        "lift-binomial",
        "pbw.py",
        "ck = comb(L, k)",
        "ck = comb(L + 1, k)",
        ("tests/test_pbw.py::test_lift_matches_power_times", ORBIT_GOLDEN),
    ),
    Mutant(
        "lift-unchecked",
        "pbw.py",
        "        for m in theta:\n            self.check_lowering(m)\n",
        "",
        ("tests/test_pbw.py::test_lift_refuses_the_wrong_generator_or_element",),
    ),
    Mutant(
        "cartan-zero-stored",
        "superalgebra.py",
        "            if c:\n                set_entry(h_id(j), x, {x: c})",
        "            set_entry(h_id(j), x, {x: c})",
        ("tests/test_superalgebra.py::test_table_is_complete",),
    ),
    Mutant(
        "derived-bracket-dropped",
        "superalgebra.py",
        "                set_entry(X(mu), X(nu), {X(s): _quotient(c, tc) for c in rhs.values()})",
        "                if X is f_id or alg.heights[s] < max(alg.heights):\n"
        "                    set_entry(X(mu), X(nu), {X(s): _quotient(c, tc) for c in rhs.values()})",
        ("tests/test_superalgebra.py::test_table_is_complete",),
    ),
    Mutant(
        "mixed-sweep-drops-diagonal",
        "superalgebra.py",
        "        ensure_mixed(a, a)\n",
        "",
        ("tests/test_superalgebra.py::test_ef_pairs_are_cartan_with_proportional_dual",
         "tests/test_golden.py::test_output_matches_golden[structure_constants.txt]"),
    ),
    Mutant(
        "rho-check-against-rho-not-two-rho",
        "rootdata.py",
        "if signed_sum != wscale(2, alg.rho):",
        "if signed_sum != alg.rho:",
        ("tests/test_rootdata.py::test_selftest_rho_check_is_the_set_up_check",),
    ),
    Mutant(
        "join-rank-reversed",
        "pbw.py",
        "if self.rank[g] < self.rank[h] else None",
        "if self.rank[g] > self.rank[h] else None",
        (JOIN + "[B-I:m=2,n=1]", LEFT_RULE + "[G3]"),
    ),
    Mutant(
        "join-odd-seam-raised",
        "pbw.py",
        "return None if self.table.odd[g] else left[:-1]",
        "return left[:-1]",
        (JOIN + "[F31]", LEFT_RULE + "[B-I:m=1,n=1]"),
    ),
    Mutant(
        "join-raise-drops-right-exponent",
        "pbw.py",
        "powers[g, a + b]",
        "powers[g, a]",
        (JOIN + "[D-II:m=1,n=2]", LEFT_RULE + "[D-I:m=1,n=2]"),
    ),
    Mutant(
        "pair-site-bypasses-store",
        "pbw.py",
        "(table.powers[w, 1],)",
        "((w, 1),)",
        ("tests/test_orbit.py::test_every_pair_of_a_candidate_and_of_each_theta_prime_is_its_tables",),
    ),
    Mutant(
        "is-normal-repeated-generator",
        "pbw.py",
        "if r <= last or",
        "if r < last or",
        ("tests/test_pbw.py::test_lift_refuses_the_wrong_generator_or_element",
         "tests/test_verma.py::test_module_action_needs_a_normal_form_body",
         MULTIPLY + "[G3]"),
    ),
    Mutant(
        "words-exponent-dropped",
        "verma.py",
        "self.apply(g, e, images[mono[j + 1 :]])",
        "self.apply(g, 1, images[mono[j + 1 :]])",
        ("tests/test_verma.py::test_module_action_matches_straightening[B-I:m=1,n=1]",
         "tests/test_verma.py::test_module_action_matches_straightening[G3]"),
    ),
    Mutant(
        "odd-power-scalar",
        "pbw.py",
        "half ** k",
        "half ** (k + 1)",
        ("tests/test_pbw.py::test_odd_powers_match_one_unit_per_pass",),
    ),
    Mutant(
        "tail-range-check",
        "pbw.py",
        "if not 0 <= g < P:",
        "if False:",
        (TAIL_CHECK,),
    ),
    Mutant(
        "tail-bound-admits-the-first-cartan",
        "pbw.py",
        "0 <= g < P",
        "0 <= g <= P",
        (TAIL_CHECK,),
    ),
    Mutant(
        "embedding-power-off-by-one",
        "singular.py",
        "{(table.powers[fk, p],): 1}",
        "{(table.powers[fk, p + 1],): 1}",
        (ORBIT_GOLDEN, LIFTED_IMAGES),
    ),
    Mutant(
        "walk-trailing-power-binomial",
        "pbw.py",
        "ck = sign * comb(a, k)",
        "ck = sign * comb(a if rest else a - 1, k)",
        (ORBIT_GOLDEN, LIFTED_IMAGES),
    ),
    Mutant(
        "chain-kappa-direction",
        "singular.py",
        "alg.root_of(x[here[s] - 1] - x[here[s]])",
        "alg.root_of(x[here[s]] - x[here[s] - 1])",
        (ORBIT_GOLDEN, CHAIN_CONFIGS),
    ),
    Mutant(
        "final-beta-next-place",
        "singular.py",
        "block[t - 1]",
        "block[t]",
        (ORBIT_GOLDEN, CHAIN_CONFIGS),
    ),
    Mutant(
        "level-parity-unchecked",
        "singular.py",
        "if case.odd_gamma and level % 2 == 0:",
        "if False:",
        (LEVEL_GRID + "[verify-B-I-N=1,2]", "tests/test_singular.py::test_level_parity_is_enforced"),
    ),
    Mutant(
        "level-grid-largest-only",
        "cli.py",
        "for N in levels:\n        check_level(",
        "for N in levels[-1:]:\n        check_level(",
        (LEVEL_GRID + "[verify-B-I-N=2,3]", LEVEL_GRID + "[verify-D-I-N=0,1]"),
    ),
    Mutant(
        "root-lookup-usage-error",
        "rootdata.py",
        'raise RootDataError(f"no positive root has lattice key {key}")',
        'raise InvalidParams(f"no positive root has lattice key {key}")',
        ("tests/test_cli.py::test_a_failed_root_lookup_is_an_internal_error",),
    ),
    Mutant(
        "reference-cartan-half-dropped",
        "superalgebra.py",
        "_row_sum(((half, rows[dm.index]),))",
        "_row_sum(((1, rows[dm.index]),))",
        ("tests/test_superalgebra.py::test_reference_scaling",),
    ),
    Mutant(
        "case-id-equal-by-family",
        "rootdata.py",
        "return (self.family, self.m, self.n) == (other.family, other.m, other.n)",
        "return self.family == other.family",
        ("tests/test_package.py::test_case_id_is_a_checked_immutable_value",),
    ),
    Mutant(
        "rho-isotropic-row-unread",
        "rootdata.py",
        "if pairing(alg.coroot_rows[s.index], alg.rho) != 0:",
        "if False:",
        ("tests/test_rootdata.py::test_selftest_rho_check_reads_the_simple_rows[isotropic]",),
    ),
    Mutant(
        "scaling-blame-cartan-source-dropped",
        "superalgebra.py",
        "                fixed_by[unknown[0]] = k\n",
        "",
        ("tests/test_superalgebra.py::test_reference_scaling_detects_damage",
         "tests/test_cli.py::test_selftest_names_each_failed_check[scaling-failures2]"),
    ),
    Mutant(
        "signflip-tail-test-dropped",
        "singular.py",
        "        if image:\n",
        "        if False:\n",
        ("tests/test_cli.py::test_failed_signflip_exits_one",),
    ),
    Mutant(
        "signflip-overlap-test-skipped",
        "singular.py",
        "    if shared is not None:\n",
        "    if False:\n",
        ("tests/test_cli.py::test_a_factor_in_two_clashing_pairs_is_the_counterexample",),
    ),
    Mutant(
        "witness-tail-scalar-dropped",
        "singular.py",
        "_exact(s * first)",
        "_exact(first)",
        ("tests/test_witnesses.py::test_candidate_coefficient_matches_a_build_on_the_candidates_own_tail",
         "tests/test_golden.py::test_output_matches_golden[grid_seed0.ndjson]"),
    ),
    Mutant(
        "witness-ladder-power-off-by-a-stride",
        "singular.py",
        "N + stride * (k - 1) - 1",
        "N + stride * k - 1",
        ("tests/test_cli.py::test_a_two_pivot_witness_ladder_holds",),
    ),
    Mutant(
        "signflip-clash-test-inverted",
        "singular.py",
        "if table.bracket(ids[i], ids[j])]",
        "if not table.bracket(ids[i], ids[j])]",
        ("tests/test_singular.py::test_signflip_certificate_builds_no_candidate_and_draws_nothing",),
    ),
)


def _copy(tmp: str) -> None:
    for part in COPIED:
        source, target = ROOT / part, Path(tmp) / part
        if source.is_dir():
            shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, target)


def _pytest(tmp: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
        cwd=tmp, env=env, capture_output=True, text=True,
    )


def control() -> Optional[str]:
    """None when every node of the table passes on an unmutated copy, else
    pytest's summary."""
    nodes = sorted({node for mutant in MUTANTS for node in mutant.nodes})
    with tempfile.TemporaryDirectory(prefix="superverma-control-") as tmp:
        _copy(tmp)
        proc = _pytest(tmp, *nodes)
    if proc.returncode != 0:
        tail = "\n".join(proc.stdout.splitlines()[-10:])
        return f"pytest exited with {proc.returncode} on the unmutated copy\n{tail}"
    return None


def run(mutant: Mutant) -> Optional[str]:
    """None when the mutant is killed, else what went wrong."""
    with tempfile.TemporaryDirectory(prefix="superverma-mutant-") as tmp:
        _copy(tmp)
        path = Path(tmp) / "src" / "superverma" / mutant.file
        text = path.read_text()
        count = text.count(mutant.text)
        if count != 1:
            return f"its text occurs {count} times in {mutant.file}, not once"
        path.write_text(text.replace(mutant.text, mutant.replacement))
        for node in mutant.nodes:
            proc = _pytest(tmp, "-x", node)
            if proc.returncode != 1:
                tail = "\n".join(proc.stdout.splitlines()[-5:])
                return f"not killed by {node}: pytest exited with {proc.returncode}, not 1\n{tail}"
    return None


def main() -> int:
    t0 = time.monotonic()
    problem = control()
    print(f"control (unmutated): {'passed' if problem is None else f'ERROR: {problem}'}"
          f" [{time.monotonic() - t0:.1f}s]", flush=True)
    if problem is not None:
        return 1
    failed = 0
    for mutant in MUTANTS:
        t0 = time.monotonic()
        problem = run(mutant)
        status = "killed" if problem is None else f"ERROR: {problem}"
        print(f"{mutant.name}: {status} [{time.monotonic() - t0:.1f}s]", flush=True)
        failed += problem is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
