module Test_gen = Mcmap_gen.Gen

(* Unit and property tests for mcmap.sim — including the end-to-end
   safety property: no simulated execution ever exceeds Algorithm 1's
   bound. *)

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
module Job = Mcmap_sched.Job
module Jobset = Mcmap_sched.Jobset
module Bounds = Mcmap_sched.Bounds
module Verdict = Mcmap_analysis.Verdict
module Wcrt = Mcmap_analysis.Wcrt
module Engine = Mcmap_sim.Engine
module Fault_profile = Mcmap_sim.Fault_profile
module Monte_carlo = Mcmap_sim.Monte_carlo
module Adhoc = Mcmap_sim.Adhoc

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let arch ?(n = 2) ?(policy = Proc.Preemptive_fp) () =
  Arch.make
    ~interconnect:(Mcmap_model.Interconnect.Bus { bandwidth = 2; latency = 1 })
    (Array.init n (fun id ->
         Proc.make ~id ~name:(Format.asprintf "p%d" id) ~policy ()))

let graph ?deadline ?(criticality = Criticality.critical 1e-2) ~name
    ~period tasks edges =
  Graph.make ?deadline ~name
    ~tasks:
      (Array.of_list
         (List.mapi
            (fun id (tname, wcet, bcet) ->
              Task.make ~id ~name:tname ~wcet ~bcet ~detection_overhead:2
                ~voting_overhead:1 ())
            tasks))
    ~channels:
      (Array.of_list
         (List.map
            (fun (src, dst, size) -> Channel.make ~src ~dst ~size ())
            edges))
    ~period ~criticality ()

let decision ?(technique = Technique.No_hardening) ?(replicas = [||])
    ?(voter = 0) primary =
  { Plan.technique; primary_proc = primary; replica_procs = replicas;
    voter_proc = voter }

let build ?(a = arch ()) ?dropped graphs decisions =
  let apps = Appset.make (Array.of_list graphs) in
  let dropped =
    match dropped with
    | Some d -> Array.of_list d
    | None -> Array.make (List.length graphs) false in
  let plan =
    Plan.make apps
      ~decisions:(Array.of_list (List.map Array.of_list decisions))
      ~dropped in
  let happ = Happ.build a apps plan in
  Jobset.build happ

(* ------------------------------------------------------------------ *)
(* Basic timing *)

let test_engine_chain_timing () =
  let g =
    graph ~name:"g" ~period:100
      [ ("a", 10, 6); ("b", 20, 12) ]
      [ (0, 1, 4) ] in
  let js = build [ g ] [ [ decision 0; decision 0 ] ] in
  let o = Engine.run js ~profile:Fault_profile.none in
  let a = Jobset.find js ~graph:0 ~task:0 ~instance:0 in
  let b = Jobset.find js ~graph:0 ~task:1 ~instance:0 in
  check (Alcotest.option Alcotest.int) "a finishes at wcet" (Some 10)
    o.Engine.finish.(a.Job.id);
  check (Alcotest.option Alcotest.int) "b after a (local, no delay)"
    (Some 30) o.Engine.finish.(b.Job.id);
  check (Alcotest.option Alcotest.int) "graph response" (Some 30)
    o.Engine.graph_response.(0);
  check Alcotest.bool "complete" true o.Engine.graph_complete.(0);
  check (Alcotest.option Alcotest.int) "stayed normal" None
    o.Engine.critical_at

(* A cross-mesh edge: the receiver's start is pushed out by the XY
   route's delay, visible in the simulated finish time. *)
let test_engine_noc_route_delay () =
  let noc_arch =
    Arch.make
      ~interconnect:
        (Mcmap_model.Interconnect.Noc
           { cols = 2; rows = 2; link_bandwidth = 2; hop_latency = 1;
             router_latency = 1 })
      (Array.init 4 (fun id ->
           Proc.make ~id ~name:(Format.asprintf "p%d" id) ())) in
  let g =
    graph ~name:"g" ~period:100
      [ ("a", 10, 6); ("b", 20, 12) ]
      [ (0, 1, 4) ] in
  (* procs 0 and 3 sit on opposite corners: two hops, so the edge pays
     router 1 + 2 * hop 1 + ceil 4/2 = 5 time units. *)
  let js = build ~a:noc_arch [ g ] [ [ decision 0; decision 3 ] ] in
  let o = Engine.run js ~profile:Fault_profile.none in
  let b = Jobset.find js ~graph:0 ~task:1 ~instance:0 in
  check (Alcotest.option Alcotest.int) "b waits out the mesh route"
    (Some (10 + 5 + 20)) o.Engine.finish.(b.Job.id);
  check (Alcotest.option Alcotest.int) "graph response includes route"
    (Some 35) o.Engine.graph_response.(0)

let test_engine_best_case_mode () =
  let g = graph ~name:"g" ~period:100 [ ("a", 10, 6) ] [] in
  let js = build [ g ] [ [ decision 0 ] ] in
  let o = Engine.run ~mode:Engine.Best_case js ~profile:Fault_profile.none in
  check (Alcotest.option Alcotest.int) "bcet execution" (Some 6)
    o.Engine.graph_response.(0)

let test_engine_random_durations_bounded () =
  let g = graph ~name:"g" ~period:100 [ ("a", 20, 5) ] [] in
  let js = build [ g ] [ [ decision 0 ] ] in
  for seed = 0 to 20 do
    let o =
      Engine.run ~mode:(Engine.Random_durations seed) js
        ~profile:Fault_profile.none in
    match o.Engine.graph_response.(0) with
    | Some r -> check Alcotest.bool "within [bcet,wcet]" true (5 <= r && r <= 20)
    | None -> Alcotest.fail "graph must complete"
  done

let test_engine_preemption () =
  (* lower-priority long task releases first; higher-priority task
     preempts it on a preemptive processor *)
  let hp = graph ~name:"hp" ~period:50 [ ("h", 10, 10) ] [] in
  let lp = graph ~name:"lp" ~period:100 [ ("l", 40, 40) ] [] in
  let js = build [ hp; lp ] [ [ decision 0 ]; [ decision 0 ] ] in
  let o = Engine.run js ~profile:Fault_profile.none in
  let h0 = Jobset.find js ~graph:0 ~task:0 ~instance:0 in
  let l = Jobset.find js ~graph:1 ~task:0 ~instance:0 in
  check (Alcotest.option Alcotest.int) "h preempts and finishes first"
    (Some 10) o.Engine.finish.(h0.Job.id);
  (* l runs 10..50 and completes exactly as h#1 releases: the completion
     wins the boundary tie *)
  check (Alcotest.option Alcotest.int) "l completes at the boundary"
    (Some 50) o.Engine.finish.(l.Job.id)

let test_engine_non_preemptive () =
  let a = arch ~policy:Proc.Non_preemptive_fp () in
  let hp = graph ~name:"hp" ~period:50 [ ("h", 10, 10) ] [] in
  let lp = graph ~name:"lp" ~period:100 [ ("l", 40, 40) ] [] in
  let js = build ~a [ hp; lp ] [ [ decision 0 ]; [ decision 0 ] ] in
  let o = Engine.run js ~profile:Fault_profile.none in
  let h1 = Jobset.find js ~graph:0 ~task:0 ~instance:1 in
  (* l occupies [10,50]; h#1 released at 50 runs right after *)
  check (Alcotest.option Alcotest.int) "h#1 waits for l" (Some 60)
    o.Engine.finish.(h1.Job.id)

(* ------------------------------------------------------------------ *)
(* Re-execution and dropping *)

let reexec_system ?dropped () =
  let critical =
    graph ~name:"crit" ~period:200 ~deadline:150
      [ ("a", 20, 10); ("e", 15, 8) ]
      [ (0, 1, 2) ] in
  let low =
    graph ~name:"low" ~period:200
      ~criticality:(Criticality.droppable 1.0)
      [ ("g", 30, 15); ("h", 25, 12) ]
      [ (0, 1, 2) ] in
  build ?dropped [ critical; low ]
    [ [ decision ~technique:(Technique.re_execution 1) 0; decision 1 ];
      [ decision 1; decision 0 ] ]

let test_engine_re_execution_timing () =
  let js = reexec_system () in
  let o = Engine.run js ~profile:Fault_profile.all in
  let a = Jobset.find js ~graph:0 ~task:0 ~instance:0 in
  (* nominal wcet+dt = 22; fault at the end of attempt 0, re-runs: 44 *)
  check (Alcotest.option Alcotest.int) "two attempts" (Some 44)
    o.Engine.finish.(a.Job.id);
  check (Alcotest.option Alcotest.int) "critical at end of attempt 0"
    (Some 22) o.Engine.critical_at

let test_engine_dropping () =
  let js = reexec_system ~dropped:[ false; true ] () in
  let o = Engine.run js ~profile:Fault_profile.all in
  (* the fault fires at t=22; the low graph's g (on p1, started at 0,
     runs 30) is already running and completes; h has not started and is
     dropped *)
  let g = Jobset.find js ~graph:1 ~task:0 ~instance:0 in
  let h = Jobset.find js ~graph:1 ~task:1 ~instance:0 in
  check Alcotest.bool "g not dropped (already started)" false
    o.Engine.dropped.(g.Job.id);
  check Alcotest.bool "h dropped" true o.Engine.dropped.(h.Job.id);
  check Alcotest.bool "low graph incomplete" false
    o.Engine.graph_complete.(1)

let test_engine_no_dropping_without_dropped_set () =
  let js = reexec_system ~dropped:[ false; false ] () in
  let o = Engine.run js ~profile:Fault_profile.all in
  check Alcotest.bool "critical happened" true
    (o.Engine.critical_at <> None);
  Array.iter
    (fun flag -> check Alcotest.bool "nothing dropped" false flag)
    o.Engine.dropped

let test_engine_checkpoint_recovery () =
  (* wcet 20, dt 2, 2 segments, k=1: nominal runs 24; a fault re-runs one
     segment (12) instead of the whole task *)
  let g = graph ~name:"g" ~period:200 [ ("a", 20, 10) ] [] in
  let js =
    build [ g ]
      [ [ decision
            ~technique:(Technique.checkpointing ~segments:2 ~k:1) 0 ] ] in
  let o = Engine.run js ~profile:Fault_profile.all in
  let a = Jobset.find js ~graph:0 ~task:0 ~instance:0 in
  check (Alcotest.option Alcotest.int) "nominal + one segment" (Some 36)
    o.Engine.finish.(a.Job.id);
  check (Alcotest.option Alcotest.int) "critical at nominal end" (Some 24)
    o.Engine.critical_at;
  (* the fault-free run costs only the checkpoint overhead *)
  let clean = Engine.run js ~profile:Fault_profile.none in
  check (Alcotest.option Alcotest.int) "fault-free" (Some 24)
    clean.Engine.finish.(a.Job.id)

let test_engine_restoration_across_hyperperiods () =
  (* fault in the first hyperperiod drops the low application's first
     instance; at the hyperperiod boundary the system restores and the
     second instance runs (paper: "the system goes back to the normal
     state at the end of the hyperperiod, restoring all the dropped
     tasks") *)
  let critical =
    graph ~name:"crit" ~period:200 ~deadline:150
      [ ("a", 20, 10) ] [] in
  let low =
    graph ~name:"low" ~period:200
      ~criticality:(Criticality.droppable 1.0)
      [ ("g", 30, 15) ] [] in
  let apps = Appset.make [| critical; low |] in
  let plan =
    Plan.make apps
      ~decisions:
        [| [| decision ~technique:(Technique.re_execution 1) 0 |];
           [| decision 0 |] |]
      ~dropped:[| false; true |] in
  let happ = Happ.build (arch ()) apps plan in
  let js = Jobset.build ~hyperperiods:2 happ in
  (* fault only in the first instance of the critical task *)
  let profile =
    { Fault_profile.none with
      Fault_profile.reexec_fault =
        (fun j ~attempt -> attempt = 0 && j.Job.instance = 0) } in
  let o = Engine.run js ~profile in
  let g0 = Jobset.find js ~graph:1 ~task:0 ~instance:0 in
  let g1 = Jobset.find js ~graph:1 ~task:0 ~instance:1 in
  check Alcotest.bool "first instance dropped" true
    o.Engine.dropped.(g0.Job.id);
  check Alcotest.bool "second instance restored and ran" true
    (o.Engine.finish.(g1.Job.id) <> None);
  (match o.Engine.critical_windows with
   | [ (entry, restore) ] ->
     check Alcotest.int "restore at the hyperperiod boundary" 200 restore;
     check Alcotest.bool "entered during the first hyperperiod" true
       (entry < 200)
   | _ -> Alcotest.fail "expected exactly one critical window")

let test_engine_two_critical_windows () =
  let critical =
    graph ~name:"crit" ~period:200 ~deadline:180
      [ ("a", 20, 10) ] [] in
  let low =
    graph ~name:"low" ~period:200
      ~criticality:(Criticality.droppable 1.0)
      [ ("g", 30, 15) ] [] in
  let apps = Appset.make [| critical; low |] in
  let plan =
    Plan.make apps
      ~decisions:
        [| [| decision ~technique:(Technique.re_execution 1) 0 |];
           [| decision 0 |] |]
      ~dropped:[| false; true |] in
  let happ = Happ.build (arch ()) apps plan in
  let js = Jobset.build ~hyperperiods:2 happ in
  let o = Engine.run js ~profile:Fault_profile.all in
  check Alcotest.int "two separate critical windows" 2
    (List.length o.Engine.critical_windows);
  (* the first low instance is certainly dropped (it never reaches the
     processor before the fault); the second may have started at the
     hyperperiod boundary before the second fault — transition-mode
     semantics let started jobs complete *)
  let g0 = Jobset.find js ~graph:1 ~task:0 ~instance:0 in
  check Alcotest.bool "first low instance dropped" true
    o.Engine.dropped.(g0.Job.id);
  (match o.Engine.critical_windows with
   | [ (_, r1); (e2, r2) ] ->
     check Alcotest.int "first restore" 200 r1;
     check Alcotest.int "second restore" 400 r2;
     check Alcotest.bool "second entry after first restore" true (e2 >= 200)
   | _ -> Alcotest.fail "expected two windows")

(* ------------------------------------------------------------------ *)
(* Replication *)

let replication_system technique replicas =
  let g =
    graph ~name:"g" ~period:200
      [ ("p", 20, 10); ("c", 15, 8) ]
      [ (0, 1, 2) ] in
  build ~a:(arch ~n:3 ())
    [ g ]
    [ [ decision ~technique ~replicas ~voter:2 0; decision 2 ] ]

let test_engine_active_replication_masks () =
  let js =
    replication_system (Technique.active_replication 3) [| 1; 2 |] in
  let o = Engine.run js ~profile:Fault_profile.all in
  (* active replication is transparent: no critical-state transition *)
  check (Alcotest.option Alcotest.int) "transparent masking" None
    o.Engine.critical_at;
  check Alcotest.bool "completes" true o.Engine.graph_complete.(0)

let test_engine_passive_spare_skipped_without_fault () =
  let js =
    replication_system (Technique.passive_replication 1) [| 1; 2 |] in
  let o = Engine.run js ~profile:Fault_profile.none in
  check (Alcotest.option Alcotest.int) "no critical" None
    o.Engine.critical_at;
  (* exactly one job (the spare) must not have run *)
  let not_run =
    Array.to_list o.Engine.finish |> List.filter (fun f -> f = None) in
  check Alcotest.int "spare skipped" 1 (List.length not_run);
  check Alcotest.bool "still completes" true o.Engine.graph_complete.(0)

let test_engine_passive_spare_invoked_on_fault () =
  let js =
    replication_system (Technique.passive_replication 1) [| 1; 2 |] in
  let o = Engine.run js ~profile:Fault_profile.all in
  check Alcotest.bool "critical on invocation" true
    (o.Engine.critical_at <> None);
  (* every replica job ran *)
  Array.iter
    (fun f -> check Alcotest.bool "everything ran" true (f <> None))
    o.Engine.finish

let test_fault_profile_purity () =
  (* profiles are pure functions of (job, attempt): repeated queries in
     any order agree *)
  let js = reexec_system () in
  let p = Fault_profile.random ~seed:5 ~bias:0.5 js in
  let j = Jobset.find js ~graph:0 ~task:0 ~instance:0 in
  let first = p.Fault_profile.reexec_fault j ~attempt:0 in
  let again = p.Fault_profile.reexec_fault j ~attempt:0 in
  check Alcotest.bool "stable" true (first = again);
  let r1 = p.Fault_profile.replica_fault j in
  let r2 = p.Fault_profile.replica_fault j in
  check Alcotest.bool "replica stable" true (r1 = r2)

let test_fault_profile_extremes () =
  let js = reexec_system () in
  let j = Jobset.find js ~graph:0 ~task:0 ~instance:0 in
  check Alcotest.bool "none never faults" false
    (Fault_profile.none.Fault_profile.reexec_fault j ~attempt:0);
  check Alcotest.bool "all always faults" true
    (Fault_profile.all.Fault_profile.reexec_fault j ~attempt:3);
  let zero = Fault_profile.random ~seed:1 ~bias:0. js in
  check Alcotest.bool "zero bias never faults" false
    (zero.Fault_profile.reexec_fault j ~attempt:0)

(* ------------------------------------------------------------------ *)
(* Monte-Carlo and Adhoc *)

let test_monte_carlo_deterministic () =
  let js = reexec_system ~dropped:[ false; true ] () in
  let a = Monte_carlo.run ~profiles:50 ~seed:9 js in
  let b = Monte_carlo.run ~profiles:50 ~seed:9 js in
  check Alcotest.bool "same seed, same result" true
    (a.Monte_carlo.graph_wcrt = b.Monte_carlo.graph_wcrt);
  check Alcotest.int "profile count" 50 a.Monte_carlo.profiles

let test_monte_carlo_observes_criticals () =
  let js = reexec_system ~dropped:[ false; true ] () in
  let r = Monte_carlo.run ~profiles:100 ~bias:0.9 ~seed:1 js in
  check Alcotest.bool "critical states observed" true
    (r.Monte_carlo.criticals > 0)

let test_adhoc_reports () =
  let js = reexec_system ~dropped:[ false; true ] () in
  let adhoc = Adhoc.run js in
  (* the critical graph completes (with maximal re-execution); the
     dropped graph reports nothing *)
  check Alcotest.bool "critical graph measured" true (adhoc.(0) <> None);
  check (Alcotest.option Alcotest.int) "dropped graph silent" None
    adhoc.(1)

(* ------------------------------------------------------------------ *)
(* Distribution *)

let test_distribution () =
  let js = reexec_system ~dropped:[ false; true ] () in
  let d = Mcmap_sim.Distribution.run ~runs:100 ~seed:3 js in
  check Alcotest.int "runs recorded" 100 d.Mcmap_sim.Distribution.runs;
  Array.iter
    (fun (s : Mcmap_sim.Distribution.graph_stats) ->
      check Alcotest.bool "percentiles ordered" true
        (s.Mcmap_sim.Distribution.p50 <= s.Mcmap_sim.Distribution.p95
         && s.Mcmap_sim.Distribution.p95 <= s.Mcmap_sim.Distribution.p99
         && s.Mcmap_sim.Distribution.p99
            <= s.Mcmap_sim.Distribution.maximum);
      check Alcotest.bool "mean within range" true
        (s.Mcmap_sim.Distribution.samples = 0
         || s.Mcmap_sim.Distribution.mean
            <= s.Mcmap_sim.Distribution.maximum))
    d.Mcmap_sim.Distribution.per_graph;
  (* realistic faults are rare: the distribution max never exceeds the
     worst-case search over biased profiles *)
  let mc = Monte_carlo.run ~profiles:200 ~bias:0.9 ~seed:3 js in
  Array.iteri
    (fun g (s : Mcmap_sim.Distribution.graph_stats) ->
      match mc.Monte_carlo.graph_wcrt.(g) with
      | Some worst when s.Mcmap_sim.Distribution.samples > 0 ->
        check Alcotest.bool "distribution below worst-case search" true
          (s.Mcmap_sim.Distribution.maximum <= float_of_int worst +. 1e-9)
      | Some _ | None -> ())
    d.Mcmap_sim.Distribution.per_graph;
  check Alcotest.bool "render" true
    (String.length (Mcmap_sim.Distribution.render js d) > 0)

let test_distribution_deterministic () =
  let js = reexec_system ~dropped:[ false; false ] () in
  let a = Mcmap_sim.Distribution.run ~runs:50 ~seed:7 js in
  let b = Mcmap_sim.Distribution.run ~runs:50 ~seed:7 js in
  check Alcotest.bool "deterministic" true
    (a.Mcmap_sim.Distribution.per_graph = b.Mcmap_sim.Distribution.per_graph)

(* ------------------------------------------------------------------ *)
(* Trace and Gantt *)

let prop_trace_well_formed =
  QCheck.Test.make ~name:"execution traces are well-formed" ~count:60
    QCheck.small_int
    (fun seed ->
      let sys = Test_gen.random_system seed in
      let happ =
        Happ.build sys.Test_gen.arch sys.Test_gen.apps sys.Test_gen.plan in
      let js = Jobset.build happ in
      let profile = Fault_profile.random ~seed ~bias:0.5 js in
      let o = Engine.run js ~profile in
      let segs = o.Engine.segments in
      (* segments are positive-length and on the job's processor *)
      List.for_all
        (fun (s : Engine.segment) ->
          s.Engine.stop > s.Engine.start
          && (Jobset.job js s.Engine.job).Job.proc = s.Engine.proc)
        segs
      (* per processor, segments never overlap *)
      && List.for_all
           (fun p ->
             let on_p =
               List.filter (fun (s : Engine.segment) -> s.Engine.proc = p)
                 segs
               |> List.sort (fun (a : Engine.segment) b ->
                      compare a.Engine.start b.Engine.start) in
             let rec disjoint = function
               | (a : Engine.segment) :: (b :: _ as rest) ->
                 a.Engine.stop <= b.Engine.start && disjoint rest
               | [ _ ] | [] -> true in
             disjoint on_p)
           (List.init
              (Mcmap_model.Arch.n_procs sys.Test_gen.arch)
              (fun p -> p))
      (* a finished job's last segment ends at its finish time *)
      && Array.for_all
           (fun (j : Job.t) ->
             match o.Engine.finish.(j.Job.id) with
             | None -> true
             | Some t ->
               List.exists
                 (fun (s : Engine.segment) ->
                   s.Engine.job = j.Job.id && s.Engine.stop = t)
                 segs
               || (* zero-length executions leave no segment *)
               List.for_all
                 (fun (s : Engine.segment) -> s.Engine.job <> j.Job.id)
                 segs)
           js.Jobset.jobs)

let test_trace_durations_accounted () =
  (* without faults, each job's total segment time equals its duration *)
  let js = reexec_system ~dropped:[ false; false ] () in
  let o = Engine.run js ~profile:Fault_profile.none in
  Array.iter
    (fun (j : Job.t) ->
      let total =
        List.fold_left
          (fun acc (s : Engine.segment) ->
            if s.Engine.job = j.Job.id then
              acc + (s.Engine.stop - s.Engine.start)
            else acc)
          0 o.Engine.segments in
      check Alcotest.int
        (Printf.sprintf "job %d executes for its wcet" j.Job.id)
        j.Job.wcet total)
    js.Jobset.jobs

let test_gantt_renders () =
  let js = reexec_system ~dropped:[ false; true ] () in
  let o = Engine.run js ~profile:Fault_profile.all in
  let chart = Mcmap_sim.Gantt.render js o in
  check Alcotest.bool "mentions the critical switch" true
    (String.length chart > 0
     && String.contains chart '!'
     || o.Engine.critical_at = None);
  check Alcotest.bool "has a legend" true
    (let rec contains_sub i =
       i + 7 <= String.length chart
       && (String.sub chart i 7 = "legend:" || contains_sub (i + 1)) in
     contains_sub 0)

(* ------------------------------------------------------------------ *)
(* The safety property: simulation never exceeds Algorithm 1 *)

let bound_covers_simulation seed =
  let sys = Test_gen.random_system seed in
  let happ =
    Happ.build sys.Test_gen.arch sys.Test_gen.apps sys.Test_gen.plan in
  let js = Jobset.build happ in
  let ctx = Bounds.make js in
  let report = Wcrt.analyze ctx in
  let covers g observed =
    match observed with
    | None -> true
    | Some r -> float_of_int r <= Verdict.to_float report.Wcrt.wcrt.(g) in
  (* worst-case durations under several random fault profiles, the
     all-faults profile, and the adhoc trace *)
  let profiles =
    Fault_profile.all
    :: List.init 5 (fun i -> Fault_profile.random ~seed:(seed + i) ~bias:0.5 js)
  in
  List.for_all
    (fun profile ->
      let o = Engine.run js ~profile in
      Array.for_all
        (fun g -> covers g o.Engine.graph_response.(g))
        (Array.init (Happ.n_graphs happ) (fun g -> g)))
    profiles
  && (let o = Engine.run ~start_critical:true js ~profile:Fault_profile.all in
      Array.for_all
        (fun g -> covers g o.Engine.graph_response.(g))
        (Array.init (Happ.n_graphs happ) (fun g -> g)))
  && (* random execution durations are also covered *)
  (let o =
     Engine.run ~mode:(Engine.Random_durations seed) js
       ~profile:(Fault_profile.random ~seed ~bias:0.5 js) in
   Array.for_all
     (fun g -> covers g o.Engine.graph_response.(g))
     (Array.init (Happ.n_graphs happ) (fun g -> g)))

let prop_analysis_covers_simulation =
  QCheck.Test.make
    ~name:"Algorithm 1 upper-bounds every simulated execution" ~count:120
    QCheck.small_int bound_covers_simulation

let suite =
  [ Alcotest.test_case "engine: chain timing" `Quick
      test_engine_chain_timing;
    Alcotest.test_case "engine: noc route delay" `Quick
      test_engine_noc_route_delay;
    Alcotest.test_case "engine: best case" `Quick
      test_engine_best_case_mode;
    Alcotest.test_case "engine: random durations" `Quick
      test_engine_random_durations_bounded;
    Alcotest.test_case "engine: preemption" `Quick test_engine_preemption;
    Alcotest.test_case "engine: non-preemptive" `Quick
      test_engine_non_preemptive;
    Alcotest.test_case "engine: re-execution timing" `Quick
      test_engine_re_execution_timing;
    Alcotest.test_case "engine: checkpoint recovery" `Quick
      test_engine_checkpoint_recovery;
    Alcotest.test_case "engine: dropping semantics" `Quick
      test_engine_dropping;
    Alcotest.test_case "engine: empty dropped set" `Quick
      test_engine_no_dropping_without_dropped_set;
    Alcotest.test_case "engine: restoration across hyperperiods" `Quick
      test_engine_restoration_across_hyperperiods;
    Alcotest.test_case "engine: repeated critical windows" `Quick
      test_engine_two_critical_windows;
    Alcotest.test_case "engine: active replication masks" `Quick
      test_engine_active_replication_masks;
    Alcotest.test_case "engine: spare skipped" `Quick
      test_engine_passive_spare_skipped_without_fault;
    Alcotest.test_case "engine: spare invoked" `Quick
      test_engine_passive_spare_invoked_on_fault;
    Alcotest.test_case "fault profile: purity" `Quick
      test_fault_profile_purity;
    Alcotest.test_case "fault profile: extremes" `Quick
      test_fault_profile_extremes;
    Alcotest.test_case "monte-carlo: deterministic" `Quick
      test_monte_carlo_deterministic;
    Alcotest.test_case "monte-carlo: criticals" `Quick
      test_monte_carlo_observes_criticals;
    Alcotest.test_case "adhoc: reports" `Quick test_adhoc_reports;
    Alcotest.test_case "distribution: stats" `Quick test_distribution;
    Alcotest.test_case "distribution: deterministic" `Quick
      test_distribution_deterministic;
    Alcotest.test_case "trace: durations accounted" `Quick
      test_trace_durations_accounted;
    Alcotest.test_case "gantt: renders" `Quick test_gantt_renders;
    qtest prop_trace_well_formed;
    qtest prop_analysis_covers_simulation ]
