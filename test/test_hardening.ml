(* Unit tests for mcmap.hardening: techniques, plans, and the graph
   transform. *)

module Proc = Mcmap_model.Proc
module Arch = Mcmap_model.Arch
module Criticality = Mcmap_model.Criticality
module Task = Mcmap_model.Task
module Channel = Mcmap_model.Channel
module Graph = Mcmap_model.Graph
module Appset = Mcmap_model.Appset
module Technique = Mcmap_hardening.Technique
module Plan = Mcmap_hardening.Plan
module Happ = Mcmap_hardening.Happ

let check = Alcotest.check

let arch ?(n = 4) () =
  Arch.make
    ~interconnect:(Mcmap_model.Interconnect.Bus { bandwidth = 2; latency = 1 })
    (Array.init n (fun id ->
         Proc.make ~id ~name:(Format.asprintf "p%d" id) ()))

(* producer -> consumer, with detection and voting overheads *)
let two_task_apps () =
  Appset.make
    [| Graph.make ~name:"g"
         ~tasks:
           [| Task.make ~id:0 ~name:"prod" ~wcet:20 ~bcet:10
                ~detection_overhead:2 ~voting_overhead:1 ();
              Task.make ~id:1 ~name:"cons" ~wcet:30 ~bcet:15
                ~detection_overhead:3 ~voting_overhead:2 () |]
         ~channels:[| Channel.make ~src:0 ~dst:1 ~size:4 () |]
         ~period:200 ~criticality:(Criticality.critical 1e-3) () |]

let decision ?(technique = Technique.No_hardening) ?(replicas = [||])
    ?(voter = 0) primary =
  { Plan.technique; primary_proc = primary; replica_procs = replicas;
    voter_proc = voter }

(* ------------------------------------------------------------------ *)
(* Technique *)

let test_checkpointing_formula () =
  check Alcotest.int "n=2 k=1" 36
    (Technique.wcet_after_checkpointing ~wcet:20 ~detection:2 ~segments:2
       ~k:1);
  check Alcotest.int "n=1 k=1 equals Eq. (1)" 44
    (Technique.wcet_after_checkpointing ~wcet:20 ~detection:2 ~segments:1
       ~k:1);
  Alcotest.check_raises "segments 0"
    (Invalid_argument "Technique.checkpointing: segments must be >= 1")
    (fun () -> ignore (Technique.checkpointing ~segments:0 ~k:1))

let test_eq1 () =
  check Alcotest.int "Eq.(1) k=1" 44
    (Technique.wcet_after_re_execution ~wcet:20 ~detection:2 ~k:1);
  check Alcotest.int "Eq.(1) k=0" 22
    (Technique.wcet_after_re_execution ~wcet:20 ~detection:2 ~k:0);
  check Alcotest.int "Eq.(1) k=2" 66
    (Technique.wcet_after_re_execution ~wcet:20 ~detection:2 ~k:2)

let test_technique_constructors () =
  Alcotest.check_raises "reexec k=0"
    (Invalid_argument "Technique.re_execution: k must be >= 1") (fun () ->
      ignore (Technique.re_execution 0));
  Alcotest.check_raises "active n=1"
    (Invalid_argument "Technique.active_replication: n must be >= 2")
    (fun () -> ignore (Technique.active_replication 1));
  Alcotest.check_raises "passive m=0"
    (Invalid_argument "Technique.passive_replication: m must be >= 1")
    (fun () -> ignore (Technique.passive_replication 0))

let test_replica_count () =
  check Alcotest.int "none" 1 (Technique.replica_count Technique.No_hardening);
  check Alcotest.int "reexec" 1
    (Technique.replica_count (Technique.re_execution 2));
  check Alcotest.int "active 3" 3
    (Technique.replica_count (Technique.active_replication 3));
  check Alcotest.int "passive 1" 3
    (Technique.replica_count (Technique.passive_replication 1))

let test_needs_voter () =
  check Alcotest.bool "none" false (Technique.needs_voter Technique.No_hardening);
  check Alcotest.bool "reexec" false
    (Technique.needs_voter (Technique.re_execution 1));
  check Alcotest.bool "active" true
    (Technique.needs_voter (Technique.active_replication 3));
  check Alcotest.bool "passive" true
    (Technique.needs_voter (Technique.passive_replication 1))

let test_technique_equal () =
  check Alcotest.bool "same" true
    (Technique.equal (Technique.re_execution 2) (Technique.re_execution 2));
  check Alcotest.bool "diff k" false
    (Technique.equal (Technique.re_execution 2) (Technique.re_execution 1));
  check Alcotest.bool "diff kind" false
    (Technique.equal (Technique.re_execution 2)
       (Technique.active_replication 2))

(* ------------------------------------------------------------------ *)
(* Plan *)

let test_plan_structural_validation () =
  let apps = two_task_apps () in
  Alcotest.check_raises "wrong replica count"
    (Invalid_argument "Plan: replica count does not match the technique")
    (fun () ->
      ignore
        (Plan.make apps
           ~decisions:
             [| [| decision ~technique:(Technique.active_replication 3) 0;
                   decision 0 |] |]
           ~dropped:[| false |]));
  Alcotest.check_raises "dropping a critical graph"
    (Invalid_argument "Plan: a non-droppable graph is marked dropped")
    (fun () ->
      ignore
        (Plan.make apps
           ~decisions:[| [| decision 0; decision 0 |] |]
           ~dropped:[| true |]))

let test_plan_errors () =
  let apps = two_task_apps () in
  let a = arch () in
  let ok =
    Plan.make apps
      ~decisions:
        [| [| decision ~technique:(Technique.active_replication 3)
                ~replicas:[| 1; 2 |] ~voter:3 0;
              decision 1 |] |]
      ~dropped:[| false |] in
  check (Alcotest.list Alcotest.string) "clean plan" []
    (Plan.errors a apps ok);
  let colliding =
    Plan.make apps
      ~decisions:
        [| [| decision ~technique:(Technique.active_replication 3)
                ~replicas:[| 0; 2 |] ~voter:3 0;
              decision 1 |] |]
      ~dropped:[| false |] in
  check Alcotest.bool "collision detected" true
    (Plan.errors a apps colliding <> []);
  let out_of_range =
    Plan.make apps
      ~decisions:[| [| decision 9; decision 1 |] |]
      ~dropped:[| false |] in
  check Alcotest.bool "range detected" true
    (Plan.errors a apps out_of_range <> [])

let test_plan_updates () =
  let apps = two_task_apps () in
  let p = Plan.unhardened apps in
  check Alcotest.int "default proc" 0
    (Plan.decision p ~graph:0 ~task:0).Plan.primary_proc;
  let p2 = Plan.with_decision p ~graph:0 ~task:1 (decision 2) in
  check Alcotest.int "updated" 2
    (Plan.decision p2 ~graph:0 ~task:1).Plan.primary_proc;
  check Alcotest.int "original untouched" 0
    (Plan.decision p ~graph:0 ~task:1).Plan.primary_proc;
  check (Alcotest.list Alcotest.int) "nothing dropped" []
    (Plan.dropped_graphs p)

let test_plan_histogram () =
  let apps = two_task_apps () in
  let p =
    Plan.make apps
      ~decisions:
        [| [| decision ~technique:(Technique.re_execution 1) 0;
              decision ~technique:(Technique.re_execution 1) 1 |] |]
      ~dropped:[| false |] in
  check Alcotest.int "one bucket" 1 (List.length (Plan.technique_histogram p));
  check (Alcotest.float 1e-9) "all reexec" 100.
    (Plan.hardened_share_re_execution p);
  let unhardened = Plan.unhardened apps in
  check (Alcotest.float 1e-9) "nothing hardened" 0.
    (Plan.hardened_share_re_execution unhardened)

(* ------------------------------------------------------------------ *)
(* Happ transform *)

let build plan_decisions =
  let apps = two_task_apps () in
  let a = arch () in
  let plan =
    Plan.make apps ~decisions:plan_decisions ~dropped:[| false |] in
  Happ.build a apps plan

let test_happ_unhardened () =
  let happ = build [| [| decision 0; decision 1 |] |] in
  let hg = Happ.graph happ 0 in
  check Alcotest.int "same task count" 2 (Array.length hg.Happ.tasks);
  check Alcotest.int "same channels" 1 (Array.length hg.Happ.channels);
  let prod = hg.Happ.tasks.(0) in
  check Alcotest.int "wcet unchanged" 20 prod.Happ.wcet;
  check Alcotest.int "bcet unchanged" 10 prod.Happ.bcet;
  check Alcotest.int "critical = wcet" 20 prod.Happ.critical_wcet;
  check Alcotest.bool "no trigger" false (Happ.is_trigger prod)

let test_happ_re_execution () =
  let happ =
    build
      [| [| decision ~technique:(Technique.re_execution 2) 0; decision 1 |] |]
  in
  let hg = Happ.graph happ 0 in
  let prod = hg.Happ.tasks.(0) in
  (* nominal includes detection overhead, Eq. (1) for the critical case *)
  check Alcotest.int "nominal wcet = wcet + dt" 22 prod.Happ.wcet;
  check Alcotest.int "nominal bcet = bcet + dt" 12 prod.Happ.bcet;
  check Alcotest.int "critical wcet per Eq. (1)" 66 prod.Happ.critical_wcet;
  check Alcotest.int "k recorded" 2 prod.Happ.reexec_k;
  check Alcotest.bool "is trigger" true (Happ.is_trigger prod);
  check Alcotest.int "topology unchanged" 2 (Array.length hg.Happ.tasks)

let test_happ_checkpointing () =
  let happ =
    build
      [| [| decision ~technique:(Technique.checkpointing ~segments:2 ~k:1)
              0;
            decision 1 |] |] in
  let hg = Happ.graph happ 0 in
  let prod = hg.Happ.tasks.(0) in
  (* wcet 20, dt 2, 2 segments: nominal = 20 + 2*2 = 24;
     recovery = ceil(20/2) + 2 = 12; critical = 24 + 1*12 = 36 *)
  check Alcotest.int "nominal includes checkpoints" 24 prod.Happ.wcet;
  check Alcotest.int "recovery is one segment" 12 prod.Happ.recovery;
  check Alcotest.int "critical adds k recoveries" 36
    prod.Happ.critical_wcet;
  check Alcotest.int "k recorded" 1 prod.Happ.reexec_k;
  check Alcotest.bool "is a trigger" true (Happ.is_trigger prod);
  check Alcotest.bool "cheaper than re-execution" true
    (prod.Happ.critical_wcet
     < Technique.wcet_after_re_execution ~wcet:20 ~detection:2 ~k:1)

let test_happ_active_replication () =
  let happ =
    build
      [| [| decision ~technique:(Technique.active_replication 3)
              ~replicas:[| 1; 2 |] ~voter:3 0;
            decision 1 |] |] in
  let hg = Happ.graph happ 0 in
  (* 3 replicas + 1 voter + 1 consumer *)
  check Alcotest.int "node count" 5 (Array.length hg.Happ.tasks);
  let voters =
    Array.to_list hg.Happ.tasks
    |> List.filter (fun t -> t.Happ.role = Happ.Voter) in
  check Alcotest.int "one voter" 1 (List.length voters);
  let voter = List.hd voters in
  check Alcotest.int "voter on requested proc" 3 voter.Happ.proc;
  check Alcotest.int "voter cost = ve" 1 voter.Happ.wcet;
  (* replicas feed the voter; the voter feeds the consumer *)
  check Alcotest.int "voter preds = replicas" 3
    (Array.length hg.Happ.preds.(voter.Happ.id));
  let consumer =
    Array.to_list hg.Happ.tasks
    |> List.find (fun t -> t.Happ.origin = 1) in
  check Alcotest.int "consumer has one pred" 1
    (Array.length hg.Happ.preds.(consumer.Happ.id));
  check Alcotest.int "consumer pred is the voter" voter.Happ.id
    (fst hg.Happ.preds.(consumer.Happ.id).(0));
  check Alcotest.bool "replicas are not triggers" true
    (List.for_all
       (fun t -> not (Happ.is_trigger t))
       (Array.to_list hg.Happ.tasks))

let test_happ_passive_replication () =
  let happ =
    build
      [| [| decision ~technique:(Technique.passive_replication 1)
              ~replicas:[| 1; 2 |] ~voter:3 0;
            decision 1 |] |] in
  let hg = Happ.graph happ 0 in
  (* 2 actives + 1 spare + 1 voter + 1 consumer *)
  check Alcotest.int "node count" 5 (Array.length hg.Happ.tasks);
  let spares =
    Array.to_list hg.Happ.tasks |> List.filter (fun t -> t.Happ.passive) in
  check Alcotest.int "one spare" 1 (List.length spares);
  let spare = List.hd spares in
  check Alcotest.bool "spare is a trigger" true (Happ.is_trigger spare);
  (* the spare depends on both active replicas (self-activation) *)
  let active_preds =
    Array.to_list hg.Happ.preds.(spare.Happ.id)
    |> List.filter (fun (p, _) ->
           let t = hg.Happ.tasks.(p) in
           t.Happ.origin = 0 && not t.Happ.passive) in
  check Alcotest.int "spare depends on the 2 actives" 2
    (List.length active_preds)

let test_happ_speed_scaling () =
  let apps = two_task_apps () in
  let slow_arch =
    Arch.make
      [| Proc.make ~id:0 ~name:"slow" ~speed:2.0 ();
         Proc.make ~id:1 ~name:"fast" ~speed:1.0 () |] in
  let plan =
    Plan.make apps
      ~decisions:[| [| decision 0; decision 1 |] |]
      ~dropped:[| false |] in
  let happ = Happ.build slow_arch apps plan in
  let hg = Happ.graph happ 0 in
  check Alcotest.int "scaled wcet" 40 hg.Happ.tasks.(0).Happ.wcet;
  check Alcotest.int "unscaled wcet" 30 hg.Happ.tasks.(1).Happ.wcet

let test_happ_placement_error () =
  let apps = two_task_apps () in
  let plan =
    Plan.make apps
      ~decisions:[| [| decision 9; decision 0 |] |]
      ~dropped:[| false |] in
  check Alcotest.bool "build rejects bad placement" true
    (try
       ignore (Happ.build (arch ()) apps plan);
       false
     with Invalid_argument _ -> true)

let test_happ_sink_response_tasks () =
  let happ =
    build
      [| [| decision 0;
            decision ~technique:(Technique.active_replication 3)
              ~replicas:[| 2; 3 |] ~voter:3 1 |] |] in
  let hg = Happ.graph happ 0 in
  (match Happ.sink_response_tasks hg with
   | [ sink ] ->
     check Alcotest.bool "sink image is the voter" true
       (hg.Happ.tasks.(sink).Happ.role = Happ.Voter)
   | _ -> Alcotest.fail "expected a single response task")

let test_happ_utilization_modes () =
  let apps = two_task_apps () in
  let a = arch () in
  let plan =
    Plan.make apps
      ~decisions:
        [| [| decision ~technique:(Technique.re_execution 1) 0; decision 0 |] |]
      ~dropped:[| false |] in
  let happ = Happ.build a apps plan in
  let nominal = Happ.utilization ~mode:Happ.Nominal happ in
  let critical = Happ.utilization ~mode:Happ.Critical happ in
  (* nominal: (20+2)/200 + 30/200; critical: 44/200 + 30/200 *)
  check (Alcotest.float 1e-9) "nominal" ((22. +. 30.) /. 200.) nominal.(0);
  check (Alcotest.float 1e-9) "critical" ((44. +. 30.) /. 200.)
    critical.(0);
  check (Alcotest.float 1e-9) "other procs idle" 0. nominal.(1)

let test_happ_dropped_critical_utilization () =
  let apps =
    Appset.make
      [| Graph.make ~name:"d"
           ~tasks:[| Task.make ~id:0 ~name:"t" ~wcet:50 () |]
           ~channels:[||] ~period:100
           ~criticality:(Criticality.droppable 1.) () |] in
  let a = arch () in
  let plan =
    Plan.make apps ~decisions:[| [| decision 0 |] |] ~dropped:[| true |] in
  let happ = Happ.build a apps plan in
  check (Alcotest.float 1e-9) "dropped graph absent from critical util" 0.
    (Happ.utilization ~mode:Happ.Critical happ).(0);
  check (Alcotest.float 1e-9) "but present nominally" 0.5
    (Happ.utilization ~mode:Happ.Nominal happ).(0)

let suite =
  [ Alcotest.test_case "technique: Eq. (1)" `Quick test_eq1;
    Alcotest.test_case "technique: constructors" `Quick
      test_technique_constructors;
    Alcotest.test_case "technique: replica count" `Quick
      test_replica_count;
    Alcotest.test_case "technique: voter" `Quick test_needs_voter;
    Alcotest.test_case "technique: equal" `Quick test_technique_equal;
    Alcotest.test_case "plan: structural validation" `Quick
      test_plan_structural_validation;
    Alcotest.test_case "plan: placement errors" `Quick test_plan_errors;
    Alcotest.test_case "plan: functional updates" `Quick test_plan_updates;
    Alcotest.test_case "plan: histogram" `Quick test_plan_histogram;
    Alcotest.test_case "happ: unhardened" `Quick test_happ_unhardened;
    Alcotest.test_case "happ: re-execution" `Quick test_happ_re_execution;
    Alcotest.test_case "happ: checkpointing" `Quick
      test_happ_checkpointing;
    Alcotest.test_case "technique: checkpointing formula" `Quick
      test_checkpointing_formula;
    Alcotest.test_case "happ: active replication" `Quick
      test_happ_active_replication;
    Alcotest.test_case "happ: passive replication" `Quick
      test_happ_passive_replication;
    Alcotest.test_case "happ: speed scaling" `Quick test_happ_speed_scaling;
    Alcotest.test_case "happ: placement rejection" `Quick
      test_happ_placement_error;
    Alcotest.test_case "happ: sink response tasks" `Quick
      test_happ_sink_response_tasks;
    Alcotest.test_case "happ: utilization modes" `Quick
      test_happ_utilization_modes;
    Alcotest.test_case "happ: dropped critical utilization" `Quick
      test_happ_dropped_critical_utilization ]
