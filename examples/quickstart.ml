(* Quickstart: model a tiny fault-tolerant mixed-criticality system,
   harden it, and ask Algorithm 1 whether it is schedulable.

   Run with: dune exec examples/quickstart.exe *)

open Mcmap

let () =
  (* 1. Architecture: two processors on a shared bus. *)
  let arch =
    Model.Arch.make
      ~interconnect:(Model.Interconnect.Bus { bandwidth = 2; latency = 1 })
      [| Model.Proc.make ~id:0 ~name:"cpu0" ~fault_rate:1e-5 ();
         Model.Proc.make ~id:1 ~name:"cpu1" ~fault_rate:1e-5 () |] in

  (* 2. Applications: a critical sense->control->actuate pipeline and a
     droppable logging application. *)
  let control =
    Model.Graph.make ~name:"control" ~period:100 ~deadline:90
      ~criticality:(Model.Criticality.critical 1e-4)
      ~tasks:
        [| Model.Task.make ~id:0 ~name:"sense" ~wcet:10 ~bcet:6
             ~detection_overhead:1 ();
           Model.Task.make ~id:1 ~name:"control" ~wcet:15 ~bcet:9
             ~detection_overhead:2 ();
           Model.Task.make ~id:2 ~name:"actuate" ~wcet:8 ~bcet:5
             ~detection_overhead:1 () |]
      ~channels:
        [| Model.Channel.make ~src:0 ~dst:1 ~size:4 ();
           Model.Channel.make ~src:1 ~dst:2 ~size:4 () |]
      () in
  let logging =
    Model.Graph.make ~name:"logging" ~period:100
      ~criticality:(Model.Criticality.droppable 1.0)
      ~tasks:
        [| Model.Task.make ~id:0 ~name:"collect" ~wcet:12 ~bcet:8 ();
           Model.Task.make ~id:1 ~name:"store" ~wcet:10 ~bcet:6 () |]
      ~channels:[| Model.Channel.make ~src:0 ~dst:1 ~size:8 () |]
      () in
  let apps = Model.Appset.make [| control; logging |] in

  (* 3. A plan: harden the control tasks by single re-execution, keep
     logging unhardened, and allow it to be dropped in the critical
     state. *)
  let decision technique proc =
    { Hardening.Plan.technique; primary_proc = proc; replica_procs = [||];
      voter_proc = proc } in
  let re = Hardening.Technique.re_execution 1 in
  let plan =
    Hardening.Plan.make apps
      ~decisions:
        [| [| decision re 0; decision re 0; decision re 1 |];
           [| decision Hardening.Technique.No_hardening 1;
              decision Hardening.Technique.No_hardening 1 |] |]
      ~dropped:[| false; true |] in

  (* 4. Analysis: Algorithm 1. *)
  let _happ, js, report = analyze_plan arch apps plan in
  Format.printf "%a@." (Analysis.Wcrt.pp_report js) report;
  Format.printf "schedulable: %b@." (Analysis.Wcrt.schedulable js report);

  (* 5. Reliability: is the control application's failure bound met? *)
  (match Reliability.Analysis.violations arch apps plan with
   | [] -> Format.printf "reliability: constraints met@."
   | violations ->
     List.iter
       (fun v ->
         Format.printf "reliability: %a@." Reliability.Analysis.pp_violation
           v)
       violations);

  (* 6. Cross-check with the fault-injecting simulator: the worst
     response observed over 500 random failure profiles never exceeds
     Algorithm 1's bound. *)
  let mc = Sim.Monte_carlo.run ~profiles:500 js in
  Array.iteri
    (fun g wcrt ->
      Format.printf "graph %d: wc-sim %s, analysis %a@." g
        (match wcrt with Some x -> string_of_int x | None -> "-")
        Analysis.Verdict.pp report.Analysis.Wcrt.wcrt.(g))
    mc.Sim.Monte_carlo.graph_wcrt
