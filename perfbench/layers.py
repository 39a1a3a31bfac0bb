"""Which braidcover functions the traced run wraps, and the per-layer
metrics it derives from their spans.

Times are reference seconds (see hostspeed.py), inclusive of nested calls (identities.certify_s excepted, which
leaves out the seeding it triggers).  A metric whose spans occur inside
the timed operations is reported per round; a layer that works only in
set-up (the certificate building of recheck-certs) reports its set-up
total.
"""

from __future__ import annotations

from braidcover import atlas, covering, enumeration, identities, oracles, rewriting

from tracing import SETUP, Tracer

DECIDED = ("permutation", "action", "exponent_class", "certificate", "other")

# Every workload reports every metric (and run.py adds host.ref_ms and
# trace.overhead_s); a layer the workload does not touch reads 0.
METRICS = (
    ["identities.seed_s.n3", "identities.seed_s.n4", "identities.seed_s.n5",
     "identities.seed_s.n6", "identities.lemmas", "identities.lemma_steps",
     "identities.certify_s"]
    + [f"atlas.verify_suite_s.n{n}" for n in (2, 3, 4, 5)]
    + ["rewriting.search_s", "rewriting.search_calls", "rewriting.cert_steps",
       "rewriting.replay_s", "rewriting.replay_steps", "rewriting.parse_s",
       "rewriting.serialize_s", "rewriting.cert_kb"]
    + ["oracles.sphere_wp_s", "oracles.sphere_wp_calls"]
    + [f"oracles.decided.{k}" for k in DECIDED]
    + ["oracles.undecided", "oracles.sphere_action_s", "oracles.disc_action_s",
       "oracles.annulus_s"]
    + ["covering.psi_s", "covering.image_letters", "covering.motion_s", "covering.lift_s",
       "covering.extract_s", "covering.spotcheck_s", "covering.spotcheck_words"]
    + ["enumeration.coset_enumerate_s", "enumeration.group_table_s",
       "enumeration.isomorphic_s", "enumeration.abelianization_s"]
)

# unpatched, so that sizing the kept certificates adds no span
_TO_JSON = rewriting.Derivation.to_json

# metric name -> span name, for metrics that are a span's inclusive seconds
SPAN_SECONDS = {
    "rewriting.search_s": "rewriting.find_equality",
    "rewriting.replay_s": "rewriting.verify_derivation",
    "rewriting.parse_s": "rewriting.from_json",
    "rewriting.serialize_s": "rewriting.to_json",
    "oracles.sphere_wp_s": "oracles.sphere_word_problem",
    "oracles.sphere_action_s": "oracles.sphere_action",
    "oracles.disc_action_s": "oracles.disc_action",
    "oracles.annulus_s": "oracles.annulus_oracle",
    "covering.psi_s": "covering.psi",
    "covering.motion_s": "covering.word_motion",
    "covering.lift_s": "covering.lift_motion",
    "covering.extract_s": "covering.extract_word",
    "covering.spotcheck_s": "covering.injectivity_spotcheck_annulus",
    "enumeration.coset_enumerate_s": "enumeration.coset_enumerate",
    "enumeration.group_table_s": "enumeration.group_table",
    "enumeration.isomorphic_s": "enumeration.isomorphic",
    "enumeration.abelianization_s": "enumeration.abelianization",
}
SPAN_CALLS = {
    "rewriting.search_calls": "rewriting.find_equality",
    "oracles.sphere_wp_calls": "oracles.sphere_word_problem",
}


def _evidence_class(verdict) -> str:
    if verdict.verdict == "TrivialOrFullTwist":
        return "oracles.undecided"
    evidence = verdict.evidence
    if evidence in ("permutation", "action", "certificate"):
        return f"oracles.decided.{evidence}"
    if "exponent class" in evidence:
        return "oracles.decided.exponent_class"
    return "oracles.decided.other"


def install(tracer: Tracer) -> tuple[dict[int, tuple[int, int]], list]:
    """Wrap the traced functions.  Returns the live map n -> (lemmas,
    stored lemma steps) of the certificate engines seen so far, and the
    certificates the program returned, as (phase, Derivation): claim
    certificates from certify, and those in sphere verdicts.  They are
    kept, not serialised, so that sizing them after the run adds no time
    to the operations."""
    banks: dict[int, tuple[int, int]] = {}
    kept: list = []

    def keep(t, certificate):
        if certificate is not None:
            kept.append((SETUP if t.op == SETUP else "ops", certificate))

    def lemma_bank(_tracer, args, _result):
        engine = args[0]
        lemmas = getattr(engine, "lemmas", {}).values()
        steps = sum(len(getattr(lem, "build", ())) + len(getattr(lem, "build_inverse", ()))
                    for lem in lemmas)
        banks[engine.n] = (len(lemmas), steps)

    def replayed(t, args, _result):
        t.count("rewriting.replay_steps", len(args[1].steps))

    def verdict(t, _args, result):
        if result is not None:
            t.count(_evidence_class(result))
            keep(t, result.certificate)

    def image(t, _args, result):
        if result is not None:
            t.count("covering.image_letters", len(result))

    def spotchecked(t, _args, result):
        if result is not None:
            t.count("covering.spotcheck_words", result.checked)

    tracer.patch_function(atlas.verify_suite, lambda a: f"atlas.verify_suite.n{a[0]}")
    engine = identities.CertificateEngine
    tracer.patch_method(engine, "seed_all", lambda a: f"identities.seed_all.n{a[0].n}", lemma_bank)
    tracer.patch_method(engine, "certify", "identities.certify",
                        lambda t, _args, result: keep(t, result))
    tracer.patch_function(rewriting.find_equality, "rewriting.find_equality")
    tracer.patch_function(rewriting.verify_derivation, "rewriting.verify_derivation", replayed)
    tracer.patch_method(rewriting.Derivation, "from_json", "rewriting.from_json")
    tracer.patch_method(rewriting.Derivation, "to_json", "rewriting.to_json")
    tracer.patch_function(oracles.sphere_word_problem, "oracles.sphere_word_problem", verdict)
    tracer.patch_function(oracles.sphere_action, "oracles.sphere_action")
    tracer.patch_function(oracles.disc_action, "oracles.disc_action")
    tracer.patch_function(oracles.annulus_oracle, "oracles.annulus_oracle")
    tracer.patch_function(covering.psi, "covering.psi", image)
    for name in ("word_motion", "lift_motion", "extract_word"):
        tracer.patch_function(getattr(covering, name), f"covering.{name}")
    tracer.patch_function(covering.injectivity_spotcheck_annulus,
                          "covering.injectivity_spotcheck_annulus", spotchecked)
    for name in ("coset_enumerate", "group_table", "isomorphic", "abelianization"):
        tracer.patch_function(getattr(enumeration, name), f"enumeration.{name}")
    return banks, kept


def metrics(tracer: Tracer, banks, kept, rounds: int,
            extra: dict[str, float], duration) -> dict[str, float]:
    """Every per-layer metric except host.ref_ms and trace.overhead_s,
    which the caller measures.  duration(start, end) converts a span's
    clock readings to seconds."""
    summary = tracer.summary(duration)
    for phase, certificate in kept:
        tracer.counts[("rewriting.cert_kb", phase)] += len(_TO_JSON(certificate).encode()) / 1000

    def per_round(ops_value, setup_value):
        return ops_value / rounds if ops_value else setup_value

    def seconds(span):
        return per_round(summary["ops"].get(span, {}).get("total_s", 0.0),
                         summary[SETUP].get(span, {}).get("total_s", 0.0))

    def calls(span):
        return per_round(summary["ops"].get(span, {}).get("calls", 0),
                         summary[SETUP].get(span, {}).get("calls", 0))

    def counted(name):
        return per_round(tracer.counts.get((name, "ops"), 0), tracer.counts.get((name, SETUP), 0))

    out: dict[str, float] = {}
    for name in METRICS:
        if name in SPAN_SECONDS:
            out[name] = seconds(SPAN_SECONDS[name])
        elif name in SPAN_CALLS:
            out[name] = calls(SPAN_CALLS[name])
        elif name.startswith("identities.seed_s.n"):
            out[name] = seconds(f"identities.seed_all.n{name.rsplit('.n', 1)[1]}")
        elif name.startswith("atlas.verify_suite_s.n"):
            out[name] = seconds(f"atlas.verify_suite.n{name.rsplit('.n', 1)[1]}")
        elif name == "identities.certify_s":
            ops = (summary["ops"].get("identities.certify", {}).get("total_s", 0.0)
                   - tracer.child_time("identities.certify", "identities.seed_all", "ops",
                                       duration))
            setup = (summary[SETUP].get("identities.certify", {}).get("total_s", 0.0)
                     - tracer.child_time("identities.certify", "identities.seed_all", SETUP,
                                         duration))
            out[name] = per_round(ops, setup)
        elif name == "identities.lemmas":
            out[name] = sum(count for count, _steps in banks.values())
        elif name == "identities.lemma_steps":
            out[name] = sum(steps for _count, steps in banks.values())
        elif name in extra:
            out[name] = extra[name]
        else:
            out[name] = counted(name)
    return out
