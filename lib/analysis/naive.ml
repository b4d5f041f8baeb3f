module Bounds = Mcmap_sched.Bounds
module Jobset = Mcmap_sched.Jobset
module Job = Mcmap_sched.Job
module Happ = Mcmap_hardening.Happ

let exec (w : Job.t) =
  (* The paper's Naive zeroes the bcet of every droppable task (whether
     or not it ends up in the dropped set) and keeps the full Eq. (1)
     worst case everywhere. *)
  let lower = if w.Job.droppable || w.Job.passive then 0 else w.Job.bcet in
  let upper = w.Job.critical_wcet in
  (lower, upper)

(* One state, no scenarios: [Wcrt.assemble] of the normal state alone
   yields its verdicts, or every graph [Unbounded] on divergence. *)
let analyze ?max_iterations ctx =
  let js = Bounds.jobset ctx in
  let happ = js.Jobset.happ in
  let response =
    Wcrt.response_jobs js (Array.init (Happ.n_graphs happ) Fun.id) in
  let normal =
    Wcrt.verdicts response (Bounds.analyze ?max_iterations ctx ~exec) in
  (Wcrt.assemble happ ~normal ~scenarios:Seq.empty).Wcrt.wcrt
