(** Candidate evaluation: objectives and constraints (paper §2.3, §4).

    Objectives (both as minimisation entries of [objectives]):
    + provisioned power consumption
      [sum_p (stat_p + dyn_p * u_p)] over used processors, with [u_p]
      the certified critical-state utilisation (Eq. (1) WCETs, dropped
      graphs excluded) — the demand the design must provision for, so
      task dropping saves real capacity and power;
    + negated quality of service [- sum_{t not in T_d} sv_t].

    Constraints: reliability (per {!Mcmap_reliability.Analysis}) and
    schedulability under Algorithm 1 ({!Mcmap_analysis.Wcrt}). Violations
    are aggregated into a magnitude used for constraint-domination. *)

type t = {
  plan : Mcmap_hardening.Plan.t;
  power : float;
  service : float;
  schedulable : bool;
  reliable : bool;
  violation : float;  (** 0 when feasible; larger = worse *)
  rescued : bool;
      (** feasible as decoded but infeasible when dropping is disabled —
          the solutions counted by the paper's §5.2 ratio *)
  objectives : float array;  (** [| power; -. service |] *)
}

val feasible : t -> bool

val power_of_happ : Mcmap_model.Arch.t -> Mcmap_hardening.Happ.t -> float
(** The power objective of an already-hardened application set — what
    {!power_of_plan} and {!evaluate} compute it with, for callers that
    have built the [Happ.t] anyway. *)

val power_of_plan :
  Mcmap_model.Arch.t ->
  Mcmap_model.Appset.t ->
  Mcmap_hardening.Plan.t ->
  float
(** The power objective alone (no scheduling analysis): {!power_of_happ}
    of [Happ.build arch apps plan]. *)

val service_of_plan :
  Mcmap_model.Appset.t -> Mcmap_hardening.Plan.t -> float
(** Quality of service delivered by the plan: summed [sv_t] of droppable
    graphs kept out of the dropped set. *)

val evaluate_with :
  check_rescue:bool ->
  sched:(Mcmap_sched.Jobset.t -> Mcmap_analysis.Wcrt.report) ->
  Mcmap_model.Arch.t ->
  Mcmap_model.Appset.t ->
  Mcmap_hardening.Plan.t ->
  t
(** The evaluation pipeline with its Algorithm 1 step supplied by the
    caller: harden the plan ([Happ.build]), expand its job set, run
    [sched] on it, check reliability, and aggregate objectives and
    violation; with [check_rescue], [sched] also runs on the same plan
    with an empty dropped set. {!evaluate} is the instance whose [sched]
    analyses from scratch; an [Evaluator] session passes its memoised
    scheduler, so the two agree exactly whenever the schedulers do.
    @raise Invalid_argument if the plan has placement errors (the
    [Happ.build] message) or its job set is past the
    {!Mcmap_sched.Jobset.build} analysis budget. *)

val evaluate :
  ?check_rescue:bool ->
  ?max_iterations:int ->
  Mcmap_model.Arch.t ->
  Mcmap_model.Appset.t ->
  Mcmap_hardening.Plan.t ->
  t
(** Full evaluation. [check_rescue] (default true) additionally analyses
    the same plan with an empty dropped set to detect dropping-rescued
    candidates; pass [false] to halve analysis cost when the statistic is
    not needed. It is {!evaluate_with} with
    [~sched:(fun js -> Wcrt.analyze ?max_iterations (Bounds.make js))].

    Deprecated as an optimisation-loop entry point: every call starts
    from nothing. Inside loops, create an [Evaluator] session once and
    call [Evaluator.eval] — same result (exactly, field for field), with
    memoisation across near-identical candidates. This free function
    remains as the reference implementation (the [evaluator-agreement]
    check oracle holds the session to it) and for one-shot callers. *)
