(** Evaluator sessions: the handle-based analysis API of the design-space
    exploration (DESIGN.md §11).

    A session [create arch apps] precomputes what its analyses share —
    the application hyperperiod and the analysis horizon — and memoises
    in two LRU tiers:

    - results: full evaluations keyed by the canonical plan fingerprint
      (crossover/mutation duplicates, GA re-elites and warm [serve]
      repeats are near-free), guarded by structural plan equality
      against collisions;
    - components: Algorithm 1 analyses decomposed by processor-connected
      components and keyed by the restricted job structure, so a
      mutation only re-solves the components whose job multisets
      changed. Each component entry also memoises its trigger scenarios
      (internal triggers, and remote ones summarised by their
      (min_start, max_finish) pair) keyed by the fingerprint of the
      scenario's per-job execution-bound vector, so triggers that bound
      the component's jobs identically share one fixed-point run.

    A fresh evaluation is [Evaluate.evaluate_with] — the reference
    pipeline — with the component-memoised scheduler in place of
    [Wcrt.analyze]. Every cached path reproduces [Evaluate.evaluate]
    {e exactly} — field for field, bit for bit on floats — which the
    [evaluator-agreement] check oracle enforces; determinism of
    {!eval_population} for any domain count follows.

    When {!Mcmap_obs.Obs} is enabled the session reports its cache
    decisions as labelled counters —
    [evaluator.result~{hit,miss,evict,collision}],
    [evaluator.component~{memo,resolve,evict}] and
    [evaluator.scenario~{hit,miss}] (a miss is one scenario fixed point
    solved) — plus the spans [evaluator.eval] and
    [evaluator.eval_population]. *)

type t

type engine = Mcmap_analysis.Wcrt.engine = Reference | Flat
(** Which Algorithm 1 fixed-point implementation the session runs: the
    engine of {!Mcmap_analysis.Wcrt.fixpoint}, whose documentation
    covers both. The choice affects speed only; [Flat] is the default,
    [Reference] the differential baseline. *)

val create :
  ?cache_capacity:int ->
  ?domains:int ->
  ?engine:engine ->
  ?check_rescue:bool ->
  ?max_iterations:int ->
  Mcmap_model.Arch.t ->
  Mcmap_model.Appset.t ->
  t
(** [cache_capacity] (default 4096) bounds the result tier; 0 disables
    result caching (every call analyses afresh — useful for measuring). The
    component tier holds a fixed 64 entries, since each holds a job set
    and its analysis context. [domains] (default 1) parallelises
    {!eval_population}. [engine] (default {!Flat}) selects the
    fixed-point implementation. [check_rescue] and [max_iterations] are
    the analysis options of [Evaluate.evaluate]; [max_iterations]
    defaults to {!Mcmap_sched.Bounds.default_max_iterations}.
    @raise Invalid_argument if [domains < 1] or [cache_capacity < 0]. *)

val arch : t -> Mcmap_model.Arch.t

val apps : t -> Mcmap_model.Appset.t

val eval : t -> Mcmap_hardening.Plan.t -> Evaluate.t
(** Evaluate one plan through the session caches. Exactly equal to
    [Evaluate.evaluate ~check_rescue ~max_iterations arch apps plan]
    (with the session's option values), except the returned [plan] field
    is the argument itself.

    Domain safety: safe to call concurrently from any number of
    domains. Every cache tier is guarded by one session lock, cached
    values are immutable once published, and the shared analysis
    contexts are either read-only ([Reference]) or keep their scratch
    in per-domain arenas ([Flat]); racing domains can at worst duplicate
    work, never diverge (audited in [evaluator.ml], exercised by the
    concurrent-access test). Not safe from multiple systhreads that
    share one domain while Obs/Flight recording is enabled — the
    recorders' per-domain buffers assume one mutator per domain. *)

val eval_population :
  t -> Mcmap_hardening.Plan.t array -> Evaluate.t array
(** Evaluate a population: canonical duplicates are folded onto one
    representative, cached results are served, and the remaining fresh
    evaluations fan out over the session's domains. The result array is
    index-aligned and byte-identical for any domain count.

    Concurrent calls on one session are serialised (each call owns the
    session's single population fan-out at a time); [mcmap serve]
    relies on exactly this discipline when several workers share a
    pooled session. *)

val fingerprint : Mcmap_hardening.Plan.t -> Mcmap_util.Fingerprint.t
(** The canonical plan fingerprint: an order-independent hash over
    bind/technique/drop genes. Coordinates that cannot influence any
    result — a voter binding under a voterless technique — are excluded,
    so such plans share cache entries. *)

val canonical_equal : Mcmap_hardening.Plan.t -> Mcmap_hardening.Plan.t -> bool
(** Structural equality modulo canonically-ignored coordinates: the
    equivalence whose classes {!fingerprint} keys, used as the collision
    guard on every result-cache hit. *)
