module Bounds = Mcmap_sched.Bounds
module Jobset = Mcmap_sched.Jobset
module Job = Mcmap_sched.Job
module Flat = Mcmap_sched.Flat
module Happ = Mcmap_hardening.Happ
module Obs = Mcmap_obs.Obs

type report = {
  wcrt : Verdict.t array;
  normal_wcrt : Verdict.t array;
  required_wcrt : Verdict.t array;
  scenarios : int;
}

(* The per-job execution bounds of one trigger scenario (Algorithm 1,
   lines 12-29), at job granularity. [nb] are the normal-state bounds;
   [base] is the application hyperperiod — the critical state ends (and
   dropped applications are restored) at its next multiple after the
   fault, so over multi-hyperperiod horizons a job is only *certainly*
   dropped when it is also released inside the earliest possible
   critical window of the trigger. *)
(* A non-triggering job only sees the trigger through two scalars: the
   earliest time the fault can occur ([min_start] of the trigger) and the
   latest time it can surface ([max_finish]). The evaluator session
   exploits this: a trigger in another processor component acts there
   only through these bounds, so that component's scenario is computed
   from the pair alone (and memoised by the execution-bound vector it
   yields, like every scenario). *)
let external_exec ~base ~min_start ~max_finish
    (nb : Bounds.job_bounds array) (w : Job.t) =
  if nb.(w.Job.id).Bounds.max_finish < min_start then
    (* Certainly completed before the first fault: normal state. *)
    Bounds.nominal_exec w
  else if w.Job.in_dropped_set then begin
    let earliest_restore = ((min_start / base) + 1) * base in
    if nb.(w.Job.id).Bounds.min_start > max_finish
       && w.Job.release < earliest_restore then
      (0, 0) (* certainly dropped: never released *)
    else (0, w.Job.wcet) (* transition: either executed or dropped *)
  end
  else if w.Job.passive then (0, w.Job.wcet) (* may be invoked *)
  else (w.Job.bcet, w.Job.critical_wcet)

let scenario_exec ~base (nb : Bounds.job_bounds array) (v : Job.t)
    (w : Job.t) =
  if w.Job.id = v.Job.id then begin
    (* The triggering job experiences the fault: a passive spare is
       actually invoked, a re-executable job re-runs per Eq. (1). *)
    if w.Job.passive then (0, w.Job.wcet)
    else (w.Job.bcet, w.Job.critical_wcet)
  end
  else
    external_exec ~base ~min_start:nb.(v.Job.id).Bounds.min_start
      ~max_finish:nb.(v.Job.id).Bounds.max_finish nb w

type engine = Reference | Flat

let fixpoint ?max_iterations ?horizon engine js =
  match engine with
  | Reference ->
    let ctx = Bounds.make ?horizon js in
    fun ~exec -> Bounds.analyze ?max_iterations ctx ~exec
  | Flat ->
    let ctx = Flat.make ?horizon js in
    fun ~exec -> Flat.analyze ?max_iterations ctx ~exec

let response_jobs js graphs =
  Array.map
    (fun graph -> Array.of_list (Jobset.response_jobs js ~graph))
    graphs

let verdicts response (result : Bounds.result) =
  if not result.Bounds.converged then None
  else
    Some
      (Array.map
         (fun jobs ->
           Verdict.Finite
             (Array.fold_left
                (fun worst (j : Job.t) ->
                  let finish =
                    result.Bounds.bounds.(j.Job.id).Bounds.max_finish in
                  max worst (Job.response j ~finish))
                0 jobs))
         response)

let assemble happ ~normal ~scenarios =
  let n_graphs = Happ.n_graphs happ in
  match normal with
  | None ->
    (* The normal state diverged: every graph is unbounded and no trigger
       scenario is examined. *)
    let unbounded () = Array.make n_graphs Verdict.Unbounded in
    { wcrt = unbounded (); normal_wcrt = unbounded ();
      required_wcrt = unbounded (); scenarios = 0 }
  | Some normal_wcrt ->
    let wcrt = Array.copy normal_wcrt in
    let required_wcrt = Array.copy normal_wcrt in
    let scenarios =
      Seq.fold_left
        (fun count scenario ->
          for g = 0 to n_graphs - 1 do
            (* A diverged scenario poisons every graph. *)
            let v =
              match scenario with
              | Some scenario_wcrt -> scenario_wcrt.(g)
              | None -> Verdict.Unbounded in
            wcrt.(g) <- Verdict.max wcrt.(g) v;
            (* Dropped-set graphs owe their deadline only while alive,
               i.e. in the normal state; all others owe it in every
               scenario. *)
            if not (Happ.graph_in_dropped_set happ g) then
              required_wcrt.(g) <- Verdict.max required_wcrt.(g) v
          done;
          count + 1)
        0 scenarios in
    { wcrt; normal_wcrt; required_wcrt; scenarios }

let analyze_spanned ?max_iterations ctx =
  let js = Bounds.jobset ctx in
  let happ = js.Jobset.happ in
  let run exec = Bounds.analyze ?max_iterations ctx ~exec in
  let response = response_jobs js (Array.init (Happ.n_graphs happ) Fun.id) in
  let normal = run Bounds.nominal_exec in
  let base = js.Jobset.base_hyperperiod in
  let scenarios =
    Seq.map
      (fun v ->
        verdicts response (run (scenario_exec ~base normal.Bounds.bounds v)))
      (List.to_seq (Jobset.triggers js)) in
  let report = assemble happ ~normal:(verdicts response normal) ~scenarios in
  if Obs.enabled () then begin
    Obs.incr "wcrt.analyses";
    Obs.observe "wcrt.scenarios" report.scenarios;
    Array.iter
      (function
        | Verdict.Finite _ -> Obs.incr "wcrt.verdict.finite"
        | Verdict.Unbounded -> Obs.incr "wcrt.verdict.unbounded")
      report.wcrt
  end;
  report

let analyze ?max_iterations ctx =
  Obs.with_span "wcrt.analyze" (fun () -> analyze_spanned ?max_iterations ctx)

let schedulable js report =
  let happ = js.Jobset.happ in
  let ok = ref true in
  Array.iteri
    (fun g verdict ->
      let deadline = Happ.deadline (Happ.graph happ g) in
      if not (Verdict.within verdict deadline) then ok := false)
    report.required_wcrt;
  !ok

let pp_report js ppf report =
  let happ = js.Jobset.happ in
  Format.fprintf ppf "@[<v>WCRT report (%d trigger scenarios):@,"
    report.scenarios;
  Array.iteri
    (fun g verdict ->
      let hg = Happ.graph happ g in
      Format.fprintf ppf "  %s: wcrt=%a normal=%a required=%a deadline=%d@,"
        hg.Happ.source.Mcmap_model.Graph.name Verdict.pp verdict Verdict.pp
        report.normal_wcrt.(g) Verdict.pp report.required_wcrt.(g)
        (Happ.deadline hg))
    report.wcrt;
  Format.fprintf ppf "@]"
