#!/usr/bin/env python3
"""Self-tests for scripts/analyze/.

Two tiers:

  * IR/solver unit tests — build the analyzer's IR by hand and drive
    the taint/lock/switch/determinism checks directly. These run
    everywhere (no libclang) and are the tier-1 coverage for the
    dataflow core.
  * End-to-end fixture tests — run the full CLI over
    fixtures/analyze/*.cpp through libclang. Skipped (with a visible
    skip reason) when libclang is absent; the CI `analyze` job always
    installs it, so they always run there.

Runs under plain unittest (ctest entry `analyze_selftest`) and pytest.
"""

import os
import subprocess
import sys
import unittest

SCRIPTS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, SCRIPTS_DIR)

from analyze import baseline, suppressions  # noqa: E402
from analyze.checks import (  # noqa: E402
    check_determinism,
    check_lock_discipline,
    check_switch_exhaustive,
    check_verify_before_use,
)
from analyze.config import Config  # noqa: E402
from analyze.frontend import probe_libclang  # noqa: E402
from analyze.ir import (  # noqa: E402
    Arg,
    CallRef,
    Cond,
    CondAtom,
    Function,
    Loc,
    Program,
    SAssign,
    SDecl,
    SExit,
    SExpr,
    SIf,
    SLoop,
    SRangeFor,
    SSwitch,
)

RUNNER = os.path.join(SCRIPTS_DIR, "analyze", "run_analyzer.py")
FIXTURES = os.path.join(SCRIPTS_DIR, "tests", "fixtures", "analyze")

L = Loc("src/bftbc/fixture.cpp", 1)


def call(name, qual="", base=None, args=(), loc=L):
    return CallRef(name, qual, base, list(args), loc)


def arg(*paths, calls=()):
    return Arg(list(paths), list(calls))


def decode_call(argpaths=()):
    return call(
        "decode",
        qual="bftbc::PrepareRequest::decode",
        args=[arg(*argpaths)] if argpaths else [],
    )


def verify_call(*args_):
    return call(
        "verify_cached",
        qual="bftbc::crypto::Keystore::verify_cached",
        base=("this", "keystore_"),
        args=list(args_),
    )


def sink_call(*argpaths):
    return call(
        "apply_write",
        qual="bftbc::ObjectState::apply_write",
        base=("state",),
        args=[arg(p) for p in argpaths],
    )


def has_value_guard(path, then):
    """if (!path.has_value()) { then }"""
    return SIf(
        Cond("single", [CondAtom(True, [], [call("has_value", base=path)])]),
        then,
        [],
        L,
    )


def handler(body, params=(("env", "const rpc::Envelope&"),), qual="H::h"):
    return Function(
        qual=qual,
        name=qual.rsplit("::", 1)[-1],
        cls=None,
        params=list(params),
        return_type="void",
        body=body,
        loc=L,
    )


def run_taint(*fns, cfg=None):
    program = Program()
    for fn in fns:
        program.add(fn)
    return check_verify_before_use(program, cfg or Config(scope_all=True))


class VerifyBeforeUseTest(unittest.TestCase):
    def decl_req(self):
        return SDecl(
            "req",
            "std::optional<bftbc::PrepareRequest>",
            [("env", "body")],
            [decode_call([("env", "body")])],
            L,
        )

    def test_wellformed_alone_does_not_reach_verified_sink(self):
        fn = handler(
            [
                self.decl_req(),
                has_value_guard(("req",), [SExit("return", [], [], L)]),
                SExpr([], [sink_call(("req", "value"))], L),
            ]
        )
        found = run_taint(fn)
        self.assertEqual([f.rule for f in found], ["unverified-sink"])

    def test_verifier_guard_dominates_sink(self):
        guard = SIf(
            Cond(
                "single",
                [
                    CondAtom(
                        True,
                        [],
                        [
                            verify_call(
                                arg(("req", "client")),
                                arg(
                                    calls=[
                                        call(
                                            "signing_payload",
                                            base=("req",),
                                        )
                                    ]
                                ),
                                arg(("req", "sig")),
                            )
                        ],
                    )
                ],
            ),
            [SExit("return", [], [], L)],
            [],
            L,
        )
        fn = handler(
            [
                self.decl_req(),
                has_value_guard(("req",), [SExit("return", [], [], L)]),
                guard,
                SExpr([], [sink_call(("req", "value"))], L),
            ]
        )
        self.assertEqual(run_taint(fn), [])

    def test_member_use_before_wellformed_check_flagged(self):
        fn = handler(
            [
                self.decl_req(),
                SExpr([("req", "object")], [], L),
            ]
        )
        self.assertIn(
            "unverified-decode-use", [f.rule for f in run_taint(fn)]
        )

    def test_then_branch_verify_is_branch_local(self):
        validate = call(
            "validate",
            qual="bftbc::quorum::PrepareCertificate::validate",
            base=("req", "cert"),
        )
        fn = handler(
            [
                self.decl_req(),
                has_value_guard(("req",), [SExit("return", [], [], L)]),
                SIf(
                    Cond("single", [CondAtom(False, [], [validate])]),
                    [SExpr([], [sink_call(("req", "cert"))], L)],
                    [],
                    L,
                ),
                SExpr([], [sink_call(("req", "cert"))], L),
            ]
        )
        found = run_taint(fn)
        # Only the sink AFTER the join fires; the one inside the
        # verified then-branch is clean.
        self.assertEqual(len(found), 1)
        self.assertEqual(found[0].rule, "unverified-sink")

    def test_or_join_early_return_marks_fallthrough(self):
        validate = call(
            "validate",
            qual="bftbc::quorum::PrepareCertificate::validate",
            base=("req", "cert"),
        )
        guard = SIf(
            Cond(
                "or",
                [
                    CondAtom(True, [("req",)], []),
                    CondAtom(True, [], [validate]),
                ],
            ),
            [SExit("return", [], [], L)],
            [],
            L,
        )
        fn = handler(
            [
                self.decl_req(),
                guard,
                SExpr([], [sink_call(("req", "cert"))], L),
            ]
        )
        self.assertEqual(run_taint(fn), [])

    def test_and_join_guard_protects_then_branch(self):
        validate = call(
            "validate",
            qual="bftbc::quorum::WriteCertificate::validate",
            base=("req", "wcert"),
        )
        fn = handler(
            [
                self.decl_req(),
                has_value_guard(("req",), [SExit("return", [], [], L)]),
                SIf(
                    Cond(
                        "and",
                        [
                            CondAtom(
                                False,
                                [],
                                [call("has_value", base=("req", "wcert"))],
                            ),
                            CondAtom(False, [], [validate]),
                        ],
                    ),
                    [SExpr([], [sink_call(("req", "wcert"))], L)],
                    [],
                    L,
                ),
            ]
        )
        self.assertEqual(run_taint(fn), [])

    def test_verify_only_covers_named_paths(self):
        # Verifying req->sig alone must NOT bless req->value.
        guard = SIf(
            Cond(
                "single",
                [CondAtom(True, [], [verify_call(arg(("req", "sig")))])],
            ),
            [SExit("return", [], [], L)],
            [],
            L,
        )
        fn = handler(
            [
                self.decl_req(),
                has_value_guard(("req",), [SExit("return", [], [], L)]),
                guard,
                SExpr([], [sink_call(("req", "value"))], L),
            ]
        )
        self.assertEqual([f.rule for f in run_taint(fn)],
                         ["unverified-sink"])

    def test_recvfrom_origin_links_buffer_to_peer_address(self):
        recv = call(
            "recvfrom",
            qual="::recvfrom",
            args=[
                arg(("fd",)),
                arg(("buf",)),
                arg(),
                arg(),
                arg(("srcaddr",)),
            ],
        )
        decode_env = SDecl(
            "envm",
            "std::optional<bftbc::rpc::Envelope>",
            [("buf",)],
            [call("decode", qual="bftbc::rpc::Envelope::decode",
                  args=[arg(("buf",))])],
            L,
        )
        learn = SAssign(("this", "learned_"), [("srcaddr",)], [], L)
        good = handler(
            [
                SLoop(
                    None,
                    [
                        SExpr([], [recv], L),
                        decode_env,
                        has_value_guard(
                            ("envm",), [SExit("continue", [], [], L)]
                        ),
                        learn,
                    ],
                    L,
                )
            ],
            params=(),
        )
        self.assertEqual(run_taint(good), [])

    def test_learned_address_update_before_decode_verdict_flagged(self):
        # The udp_transport bug shape: learning the reply route from the
        # forgeable header before Envelope::decode has been consulted.
        recv = call(
            "recvfrom",
            qual="::recvfrom",
            args=[arg(("fd",)), arg(("buf",)), arg(), arg(),
                  arg(("srcaddr",))],
        )
        bad = handler(
            [
                SLoop(
                    None,
                    [
                        SExpr([], [recv], L),
                        SAssign(("this", "learned_"), [("srcaddr",)], [],
                                L),
                    ],
                    L,
                )
            ],
            params=(),
        )
        found = run_taint(bad)
        self.assertEqual([f.rule for f in found], ["unverified-sink"])
        self.assertIn("learned_", found[0].message)

    def test_interprocedural_verifier_wrapper(self):
        wrapper = Function(
            qual="bftbc::Replica::verify_client_sig",
            name="verify_client_sig",
            cls="bftbc::Replica",
            params=[("client", "PrincipalId"), ("payload", "Bytes"),
                    ("sig", "Bytes")],
            return_type="bool",
            body=[
                SExit(
                    "return",
                    [],
                    [verify_call(arg(("client",)), arg(("payload",)),
                                 arg(("sig",)))],
                    L,
                )
            ],
            loc=L,
        )
        guard = SIf(
            Cond(
                "single",
                [
                    CondAtom(
                        True,
                        [],
                        [
                            call(
                                "verify_client_sig",
                                qual="bftbc::Replica::verify_client_sig",
                                args=[
                                    arg(("req", "client")),
                                    arg(
                                        calls=[
                                            call(
                                                "signing_payload",
                                                base=("req",),
                                            )
                                        ]
                                    ),
                                    arg(("req", "sig")),
                                ],
                            )
                        ],
                    )
                ],
            ),
            [SExit("return", [], [], L)],
            [],
            L,
        )
        caller = handler(
            [
                self.decl_req(),
                has_value_guard(("req",), [SExit("return", [], [], L)]),
                guard,
                SExpr([], [sink_call(("req", "value"))], L),
            ]
        )
        self.assertEqual(run_taint(caller, wrapper), [])

    def test_interprocedural_sink_forwarder(self):
        forwarder = Function(
            qual="bftbc::do_apply",
            name="do_apply",
            cls=None,
            params=[("state", "ObjectState&"), ("req", "PrepareRequest&")],
            return_type="void",
            body=[SExpr([], [sink_call(("req", "value"))], L)],
            loc=L,
        )
        caller = handler(
            [
                self.decl_req(),
                has_value_guard(("req",), [SExit("return", [], [], L)]),
                SExpr(
                    [],
                    [
                        call(
                            "do_apply",
                            qual="bftbc::do_apply",
                            args=[arg(("state",)), arg(("req",))],
                        )
                    ],
                    L,
                ),
            ]
        )
        found = run_taint(caller, forwarder)
        self.assertEqual([f.rule for f in found], ["unverified-sink"])

    def test_returns_taint_propagates_through_helpers(self):
        helper = Function(
            qual="bftbc::get_cert",
            name="get_cert",
            cls=None,
            params=[("r", "Reader&")],
            return_type="std::optional<Cert>",
            body=[
                SExit(
                    "return",
                    [],
                    [call("decode", qual="bftbc::Cert::decode",
                          args=[arg(("r",))])],
                    L,
                )
            ],
            loc=L,
        )
        caller = handler(
            [
                SDecl(
                    "cert",
                    "auto",
                    [],
                    [call("get_cert", qual="bftbc::get_cert",
                          args=[arg(("r",))])],
                    L,
                ),
                SExpr([("cert", "ts")], [], L),
            ],
            params=(("r", "bftbc::Reader&"),),
        )
        found = run_taint(caller, helper)
        self.assertIn("unverified-decode-use", [f.rule for f in found])

    def test_baselines_dir_out_of_scope(self):
        fn = handler(
            [
                self.decl_req(),
                SExpr([], [sink_call(("req", "value"))], L),
            ]
        )
        fn.loc = Loc("src/baselines/bqs.cpp", 1)
        self.assertEqual(run_taint(fn, cfg=Config()), [])


class SwitchExhaustiveTest(unittest.TestCase):
    def switch_fn(self, covered, has_default, justified,
                  enum="bftbc::rpc::MsgType"):
        st = SSwitch(
            [("t",)],
            enum,
            frozenset({"kA", "kB", "kC"}),
            frozenset(covered),
            has_default,
            justified,
            [],
            L,
        )
        return handler([st], params=())

    def run_check(self, fn):
        p = Program()
        p.add(fn)
        return check_switch_exhaustive(p, Config(scope_all=True))

    def test_bare_default_hiding_enumerators_flagged(self):
        found = self.run_check(self.switch_fn({"kA"}, True, False))
        self.assertEqual([f.rule for f in found], ["unjustified-default"])

    def test_justified_default_ok(self):
        self.assertEqual(
            self.run_check(self.switch_fn({"kA"}, True, True)), []
        )

    def test_missing_enumerators_without_default_flagged(self):
        found = self.run_check(self.switch_fn({"kA", "kB"}, False, False))
        self.assertEqual([f.rule for f in found], ["missing-enumerators"])

    def test_full_coverage_ok(self):
        self.assertEqual(
            self.run_check(
                self.switch_fn({"kA", "kB", "kC"}, False, False)
            ),
            [],
        )

    def test_non_protocol_enum_ignored(self):
        self.assertEqual(
            self.run_check(
                self.switch_fn({"kA"}, True, False, enum="std::byte")
            ),
            [],
        )


class LockDisciplineTest(unittest.TestCase):
    FIELDS = {"mu_": "std::mutex", "counters_": "Counters"}

    def method(self, name, body, attrs=(), kind="function"):
        return Function(
            qual=f"bftbc::Keystore::{name}",
            name=name,
            cls="bftbc::Keystore",
            params=[],
            return_type="void",
            body=body,
            loc=L,
            kind=kind,
            attrs=set(attrs),
            fields=dict(self.FIELDS),
        )

    def lock_stmt(self):
        return SDecl(
            "lk", "std::lock_guard<std::mutex>", [("this", "mu_")], [], L
        )

    def run_check(self, *fns):
        p = Program()
        for f in fns:
            p.add(f)
        return check_lock_discipline(p, Config(scope_all=True))

    def test_mixed_guard_flagged(self):
        locked = self.method(
            "bump",
            [self.lock_stmt(),
             SAssign(("this", "counters_"), [], [], L, compound=True)],
        )
        unlocked = self.method(
            "peek", [SExpr([("this", "counters_")], [], L)]
        )
        found = self.run_check(locked, unlocked)
        self.assertEqual([f.rule for f in found], ["mixed-guard"])

    def test_all_locked_ok(self):
        a = self.method(
            "bump",
            [self.lock_stmt(),
             SAssign(("this", "counters_"), [], [], L, compound=True)],
        )
        b = self.method(
            "read",
            [self.lock_stmt(), SExpr([("this", "counters_")], [], L)],
        )
        self.assertEqual(self.run_check(a, b), [])

    def test_no_tsa_annotation_respected(self):
        locked = self.method(
            "bump",
            [self.lock_stmt(),
             SAssign(("this", "counters_"), [], [], L, compound=True)],
        )
        accessor = self.method(
            "counters",
            [SExpr([("this", "counters_")], [], L)],
            attrs=("no_tsa",),
        )
        self.assertEqual(self.run_check(locked, accessor), [])

    def test_lock_param_counts_as_held(self):
        locked = self.method(
            "bump",
            [self.lock_stmt(),
             SAssign(("this", "counters_"), [], [], L, compound=True)],
        )
        drain = self.method(
            "drain",
            [SAssign(("this", "counters_"), [], [], L, compound=True)],
            attrs=("lock_param",),
        )
        self.assertEqual(self.run_check(locked, drain), [])

    def test_ctor_skipped(self):
        locked = self.method(
            "bump",
            [self.lock_stmt(),
             SAssign(("this", "counters_"), [], [], L, compound=True)],
        )
        ctor = self.method(
            "Keystore",
            [SAssign(("this", "counters_"), [], [], L)],
            kind="ctor",
        )
        self.assertEqual(self.run_check(locked, ctor), [])

    def test_lock_scope_ends_with_block(self):
        # { lock; write; }  write;   -> second write is unlocked.
        from analyze.ir import SBlock

        fn = self.method(
            "flush",
            [
                SBlock(
                    [self.lock_stmt(),
                     SAssign(("this", "counters_"), [], [], L,
                             compound=True)],
                    L,
                ),
                SAssign(("this", "counters_"), [], [], L, compound=True),
            ],
        )
        found = self.run_check(fn)
        self.assertEqual([f.rule for f in found], ["mixed-guard"])


class DeterminismTest(unittest.TestCase):
    def run_check(self, fn, cfg=None):
        p = Program()
        p.add(fn)
        return check_determinism(p, cfg or Config())

    def test_wall_clock_call_flagged_in_scope(self):
        fn = handler([SExpr([], [call("time", qual="time")], L)],
                     params=())
        found = self.run_check(fn)
        self.assertEqual([f.rule for f in found], ["banned-call"])

    def test_sim_virtual_time_not_flagged(self):
        fn = handler(
            [SExpr([], [call("time", qual="bftbc::sim::Clock::time")], L)],
            params=(),
        )
        self.assertEqual(self.run_check(fn), [])

    def test_out_of_scope_file_ignored(self):
        fn = handler([SExpr([], [call("time", qual="time")], L)],
                     params=())
        fn.loc = Loc("src/net/clock.cpp", 1)
        fn.body[0].loc = fn.loc
        self.assertEqual(self.run_check(fn), [])

    def test_unordered_iteration_flagged(self):
        fn = handler(
            [
                SRangeFor(
                    "kv",
                    [("this", "peers_")],
                    "std::unordered_map<int, Peer>",
                    [],
                    L,
                )
            ],
            params=(),
        )
        found = self.run_check(fn)
        self.assertEqual([f.rule for f in found], ["unordered-iteration"])

    def test_random_device_decl_flagged(self):
        fn = handler(
            [SDecl("rd", "std::random_device", [], [], L)], params=()
        )
        found = self.run_check(fn)
        self.assertEqual([f.rule for f in found], ["banned-call"])

    def test_config_bans_every_call_the_regex_lint_caught(self):
        # libclang-free pin of the coverage that retired the regex
        # `nondeterminism` lint rule: every libc randomness / wall-clock
        # call it flagged is banned by name, random_device by type.
        cfg = Config()
        for name in ("rand", "std::srand", "::time", "std::time",
                     "std::chrono::system_clock::now"):
            self.assertTrue(cfg.is_banned_call(name), name)
        self.assertIn("random_device", Config.BANNED_DECL_TYPES)
        # The simulator's own virtual clock stays legal.
        self.assertFalse(cfg.is_banned_call("bftbc::sim::Clock::time"))


class BaselineTest(unittest.TestCase):
    def test_diff_partitions_new_old_stale(self):
        from analyze.ir import Finding

        f1 = Finding("c", "r1", "a.cpp", 3, "m", func="f", detail="x")
        f2 = Finding("c", "r2", "b.cpp", 9, "m", func="g", detail="y")
        keys = {f1.key(), "r9|gone.cpp|h|z"}
        new, old, stale = baseline.diff([f1, f2], keys)
        self.assertEqual([f.rule for f in new], ["r2"])
        self.assertEqual([f.rule for f in old], ["r1"])
        self.assertEqual(stale, ["r9|gone.cpp|h|z"])

    def test_key_is_line_free(self):
        from analyze.ir import Finding

        a = Finding("c", "r", "a.cpp", 3, "m", func="f", detail="x")
        b = Finding("c", "r", "a.cpp", 300, "m", func="f", detail="x")
        self.assertEqual(a.key(), b.key())


class SuppressionTest(unittest.TestCase):
    def test_justified_suppression_applies(self):
        supps = suppressions.scan_lines(
            ["int x;  // bftbc-lint: allow(raw-verify) -- fixture needs it"]
        )
        self.assertTrue(suppressions.is_suppressed(supps, 1, "raw-verify"))
        self.assertEqual(suppressions.unjustified(supps), [])

    def test_bare_suppression_does_not_apply_and_is_flagged(self):
        supps = suppressions.scan_lines(
            ["int x;  // bftbc-lint: allow(raw-verify)"]
        )
        self.assertFalse(
            suppressions.is_suppressed(supps, 1, "raw-verify")
        )
        self.assertEqual(len(suppressions.unjustified(supps)), 1)

    def test_multi_rule_and_other_rule(self):
        supps = suppressions.scan_lines(
            ["y();  // bftbc-lint: allow(a-rule, b-rule) -- both fine here"]
        )
        self.assertTrue(suppressions.is_suppressed(supps, 1, "a-rule"))
        self.assertTrue(suppressions.is_suppressed(supps, 1, "b-rule"))
        self.assertFalse(suppressions.is_suppressed(supps, 1, "c-rule"))


_CINDEX, _SKIP_REASON = probe_libclang()


@unittest.skipIf(
    _CINDEX is None, f"libclang unavailable: {_SKIP_REASON}"
)
class FixtureEndToEndTest(unittest.TestCase):
    """Full-pipeline fixture tests; always exercised by the CI analyze
    job, skipped locally when libclang is missing."""

    maxDiff = None

    def run_analyzer(self, fixture, checks):
        path = os.path.join(FIXTURES, fixture)
        proc = subprocess.run(
            [
                sys.executable,
                RUNNER,
                "--fixture-mode",
                "--require",
                "--checks",
                checks,
                path,
            ],
            capture_output=True,
            text=True,
            check=False,
        )
        return proc.returncode, proc.stdout + proc.stderr

    CASES = [
        ("verify_pass.cpp", "verify-before-use", None),
        ("verify_fail.cpp", "verify-before-use", "unverified-sink"),
        ("switch_pass.cpp", "switch-exhaustive", None),
        ("switch_fail.cpp", "switch-exhaustive", "unjustified-default"),
        ("lock_pass.cpp", "lock-discipline", None),
        ("lock_fail.cpp", "lock-discipline", "mixed-guard"),
        ("det_pass.cpp", "determinism", None),
        ("det_fail.cpp", "determinism", "banned-call"),
    ]

    def test_fixtures(self):
        for fixture, check, rule in self.CASES:
            with self.subTest(fixture=fixture):
                rc, out = self.run_analyzer(fixture, check)
                if rule is None:
                    self.assertEqual(
                        rc, 0, f"{fixture} must pass cleanly:\n{out}"
                    )
                else:
                    self.assertEqual(
                        rc, 1, f"{fixture} must be flagged:\n{out}"
                    )
                    self.assertIn(f"[{rule}]", out)

    def test_decode_use_fixture_rule(self):
        rc, out = self.run_analyzer(
            "verify_fail.cpp", "verify-before-use"
        )
        self.assertEqual(rc, 1)
        # The fail fixture also dereferences a decode result before
        # checking it.
        self.assertIn("[unverified-decode-use]", out)

    def test_det_fail_catches_unordered_iteration_too(self):
        rc, out = self.run_analyzer("det_fail.cpp", "determinism")
        self.assertEqual(rc, 1)
        self.assertIn("[unordered-iteration]", out)


if __name__ == "__main__":
    unittest.main(verbosity=2)
