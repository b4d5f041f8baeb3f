(** Algorithm 1 of the paper: safe WCRT analysis of fault-tolerant
    mixed-criticality systems with run-time task dropping.

    The analysis first derives normal-state bounds (no fault: passive
    spares silent, re-executables at their nominal cost), then enumerates
    every job [v] that can trigger the transition to the critical state
    (re-executable or passive spare) and re-analyses the system with
    per-job execution bounds adjusted by chronology (Fig. 3):

    - jobs that certainly complete before [v] can first start
      ([maxFinish_w < minStart_v]) keep their normal-state bounds;
    - jobs of dropped-set graphs that certainly start after [v]'s
      worst-case completion are certainly dropped — [[0, 0]];
    - jobs of dropped-set graphs overlapping the transition may either
      run or be dropped — [[0, wcet]];
    - remaining (non-dropped) jobs use their critical-state worst case:
      Eq. (1) for re-executables, possible invocation for passive
      spares.

    The per-graph result is the maximum over the normal state and all
    trigger scenarios. *)

type report = {
  wcrt : Verdict.t array;
      (** per source graph: WCRT over normal state and all trigger
          scenarios — the value Table 2 reports *)
  normal_wcrt : Verdict.t array;
      (** per source graph: normal-state-only WCRT *)
  required_wcrt : Verdict.t array;
      (** the bound that must meet the deadline: graphs in the dropped
          set [T_d] only owe their deadline in the normal state (once
          dropped they provide no service), all other graphs owe it in
          every scenario *)
  scenarios : int;  (** number of trigger scenarios analysed *)
}

val analyze : ?max_iterations:int -> Mcmap_sched.Bounds.ctx -> report
(** Run Algorithm 1 on a prepared bounds context: the reference engine's
    normal state and one scenario per {!Mcmap_sched.Jobset.triggers}
    job, folded by {!assemble}. [max_iterations]
    defaults to {!Mcmap_sched.Bounds.default_max_iterations}, the one
    shared fixed-point cap of the analysis stack — callers forwarding the
    option (evaluator sessions, the GA) inherit the same default and must
    not restate it. *)

(** {1 The shared parts of Algorithm 1}

    {!analyze} is one composition of the functions below; the evaluator
    session ([Mcmap_dse.Evaluator]) is another, over processor
    components and memoised fixpoints. Both reach their verdicts through
    {!verdicts} and {!assemble}, so the divergence and dropped-set rules
    are written once, here. *)

type engine =
  | Reference  (** {!Mcmap_sched.Bounds} — the record-based oracle *)
  | Flat  (** {!Mcmap_sched.Flat} — the zero-allocation flat kernel *)
(** Which fixed-point implementation runs. Both return equal results on
    every input — the [flat-agreement] check oracle enforces exact
    agreement — so the choice affects speed only. *)

val fixpoint :
  ?max_iterations:int ->
  ?horizon:int ->
  engine ->
  Mcmap_sched.Jobset.t ->
  exec:(Mcmap_sched.Job.t -> int * int) ->
  Mcmap_sched.Bounds.result
(** [fixpoint engine js] builds the engine's context for [js] once (with
    [?horizon] as in {!Mcmap_sched.Bounds.make}) and returns the
    scenario function: [~exec] runs one fixed point under those per-job
    execution bounds. Partially apply it to reuse the context across the
    normal state and every scenario. *)

val response_jobs :
  Mcmap_sched.Jobset.t -> int array -> Mcmap_sched.Job.t array array
(** [response_jobs js graphs]: per listed source graph, its
    response-defining jobs ({!Mcmap_sched.Jobset.response_jobs}). Static
    per jobset, so it is computed once and shared by every {!verdicts}
    call on that jobset's results. *)

val verdicts :
  Mcmap_sched.Job.t array array ->
  Mcmap_sched.Bounds.result ->
  Verdict.t array option
(** [verdicts response result]: each graph's worst response over its
    [response] jobs, aligned with [response] — the same value as
    {!Mcmap_sched.Bounds.graph_wcrt}. [None] when the fixed point
    diverged. *)

val assemble :
  Mcmap_hardening.Happ.t ->
  normal:Verdict.t array option ->
  scenarios:Verdict.t array option Seq.t ->
  report
(** Fold the normal state and the trigger scenarios into a report, with
    every array indexed by source graph of [happ]:
    - [wcrt] is the maximum over the normal state and all scenarios;
    - [required_wcrt] takes scenarios into account only for graphs
      outside the dropped set;
    - a diverged scenario ([None]) makes every graph [Unbounded] in both;
    - a diverged normal state ([normal = None]) makes all three arrays
      [Unbounded] and [scenarios = 0];
    - [scenarios] counts the elements of [scenarios].

    The sequence is forced, once and in full, only when [normal] is
    [Some]: a caller may compute each scenario on demand, and no
    scenario runs after a diverged normal state. [normal] becomes the
    report's [normal_wcrt] and must not be mutated afterwards. *)

val scenario_exec :
  base:int ->
  Mcmap_sched.Bounds.job_bounds array ->
  Mcmap_sched.Job.t ->
  Mcmap_sched.Job.t ->
  int * int
(** [scenario_exec ~base nb v w]: the per-job execution bounds of the
    trigger scenario of job [v], given normal-state bounds [nb] and the
    application hyperperiod [base] (Algorithm 1 lines 12-29 — the
    chronology cases documented above). Exposed for the evaluator
    session, which replays single-component scenarios incrementally. *)

val external_exec :
  base:int ->
  min_start:int ->
  max_finish:int ->
  Mcmap_sched.Bounds.job_bounds array ->
  Mcmap_sched.Job.t ->
  int * int
(** {!scenario_exec} for a trigger that lies outside the analysed jobset:
    every chronology case of a non-triggering job depends on the trigger
    only through its normal-state [min_start]/[max_finish], so a remote
    trigger is fully summarised by that pair. For a trigger [v] inside
    the jobset, [scenario_exec ~base nb v] and
    [external_exec ~base ~min_start:nb.(v.id).min_start
    ~max_finish:nb.(v.id).max_finish nb] agree on every other job. The
    evaluator session analyses each processor component under the
    bounds of {!scenario_exec} for its own triggers and of
    [external_exec] for every other trigger, and memoises both kinds
    alike by the resulting execution-bound vector. *)

val schedulable : Mcmap_sched.Jobset.t -> report -> bool
(** Every graph's [required_wcrt] meets its relative deadline. *)

val pp_report : Mcmap_sched.Jobset.t -> Format.formatter -> report -> unit
