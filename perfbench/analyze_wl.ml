(* analyze-stream: a closed loop from one client over a seeded stream of
   distinct (system text, plan text) pairs, each taken through the
   [mcmap analyze --system --plan] pipeline with no state kept between
   requests — the single-verdict path, and the layers explore skips:
   spec, lint and the reference Bounds engine. The systems mix bus and
   NoC and span 20-55 tasks. *)

module B = Mcmap_benchmarks
module D = Mcmap_dse
module H = Mcmap_hardening
module S = Mcmap_sched
module A = Mcmap_analysis
module R = Mcmap_reliability
module Sim = Mcmap_sim
module Spec = Mcmap_spec.Spec
module L = Mcmap_lint
module Prng = Mcmap_util.Prng

let systems = [| "cruise"; "dt-large"; "dt-large-noc"; "synth-2" |]

(* Pairs generated per second of --seconds, round-robin over [systems]:
   about three times what a 2-core x86 box analyses. A run that exhausts
   the stream stops early rather than repeat pairs. *)
let pairs_per_second = 200.

type pair = {
  sys : int;  (** index into [systems] *)
  system_text : string;
  plan_text : string;
}

type ctx = {
  models : Spec.system array;
  pairs : pair array;
}

let setup ~seed ~seconds () =
  let models =
    Array.map
      (fun name ->
        let b = B.Registry.find_exn name in
        { Spec.arch = b.B.Benchmark.arch; apps = b.B.Benchmark.apps })
      systems in
  let texts =
    Array.map (fun m -> Trace.span "spec.write" (fun () -> Spec.write_system m)) models
  in
  (* The GA's own seeded generator: load-balanced, decoded and repaired
     plans, so every pair passes the lint gate. *)
  let rng = Common.rng ~seed "analyze-stream" in
  let pairs =
    Array.init (int_of_float (pairs_per_second *. seconds)) (fun i ->
        let sys = i mod Array.length systems in
        let { Spec.arch; apps } = models.(sys) in
        let genome = D.Genome.seeded rng arch apps in
        let plan = D.Decode.decode (Prng.split rng) arch apps genome in
        { sys; system_text = texts.(sys);
          plan_text =
            Trace.span "spec.write" (fun () -> Spec.write_plan models.(sys) plan) })
  in
  { models; pairs }

type verdict = {
  pair : pair;
  plan : H.Plan.t;
  wcrt : A.Verdict.t array;
  schedulable : bool;
}

(* Spec text to verdict, as [mcmap analyze] does it. *)
let analyze_pair p =
  let sys_ds, built =
    Trace.span "lint.system" (fun () -> L.Lint.lint_system p.system_text) in
  let plan_ds =
    match built with
    | None -> []
    | Some s -> Trace.span "lint.plan" (fun () -> L.Lint.lint_plan s p.plan_text)
  in
  let ds = sys_ds @ plan_ds in
  Trace.count "lint.diags" (float_of_int (List.length ds));
  if L.Diagnostic.error_count ds > 0 then failwith "lint errors";
  let system =
    Trace.span "spec.parse" (fun () -> Common.get (Spec.read_system p.system_text)) in
  let plan =
    Trace.span "spec.parse" (fun () -> Common.get (Spec.read_plan system p.plan_text)) in
  let arch = system.Spec.arch and apps = system.Spec.apps in
  let happ = Trace.span "hardening.build" (fun () -> H.Happ.build arch apps plan) in
  Trace.count "hardening.tasks" (float_of_int (H.Happ.n_tasks happ));
  let js = Trace.span "sched.jobset" (fun () -> S.Jobset.build happ) in
  Trace.count "sched.jobs" (float_of_int (S.Jobset.n_jobs js));
  Trace.count "sched.triggers" (float_of_int (List.length (S.Jobset.triggers js)));
  let ctx = Trace.span "sched.bounds_make" (fun () -> S.Bounds.make js) in
  let report = Trace.span "analysis.wcrt" (fun () -> A.Wcrt.analyze ctx) in
  Trace.count "analysis.scenarios" (float_of_int report.A.Wcrt.scenarios);
  ignore (Trace.span "analysis.naive" (fun () -> A.Naive.analyze ctx));
  ignore
    (Trace.span "reliability.violations" (fun () ->
         R.Analysis.violations arch apps plan));
  { pair = p; plan; wcrt = report.A.Wcrt.wcrt;
    schedulable = A.Wcrt.schedulable js report }

(* Outside the timed region: every graph's WCRT bounds its adhoc
   worst-case-trace response, and the verdict agrees with a flat-engine
   evaluator session. *)
let check ctx verdicts =
  let sessions =
    Array.map
      (fun { Spec.arch; apps } -> D.Evaluator.create ~check_rescue:false arch apps)
      ctx.models in
  let ok v =
    let { Spec.arch; apps } = ctx.models.(v.pair.sys) in
    let js = S.Jobset.build (H.Happ.build arch apps v.plan) in
    let adhoc = Sim.Adhoc.run js in
    let safe =
      Array.length adhoc = Array.length v.wcrt
      && Array.for_all2
           (fun bound seen ->
             match bound, seen with
             | _, None | A.Verdict.Unbounded, _ -> true
             | A.Verdict.Finite w, Some r -> w >= r)
           v.wcrt adhoc in
    let e =
      Trace.span "dse.eval_cold" (fun () ->
          D.Evaluator.eval sessions.(v.pair.sys) v.plan) in
    safe && e.D.Evaluate.schedulable = v.schedulable in
  List.length (List.filter (fun v -> not (ok v)) verdicts)

type sample = {
  sys : int;
  lat_ms : float;  (** spec text to verdict *)
  rpc_ms : float;  (** from the due time *)
}

(* Closed loop: the next pair is due the moment the previous verdict is
   out. Returns the verdicts and the samples of every request, in order,
   and the wall time. *)
let stream ctx ~seconds ~limit =
  let t0 = Common.now () in
  let rec go i due verdicts samples =
    if i >= limit || (i > 0 && Common.elapsed_s t0 >= seconds) then
      (List.rev verdicts, List.rev samples, Stat.ns_to_s (Int64.sub due t0))
    else begin
      Trace.set_request (i + 1);
      let start = Common.now () in
      let result =
        Trace.span "bench.request" (fun () ->
            try Some (analyze_pair ctx.pairs.(i)) with _ -> None) in
      let stop = Common.now () in
      let sample =
        { sys = ctx.pairs.(i).sys;
          lat_ms = Stat.ns_to_ms (Int64.sub stop start);
          rpc_ms = Stat.ns_to_ms (Int64.sub stop due) } in
      let verdicts = match result with Some v -> v :: verdicts | None -> verdicts in
      go (i + 1) stop verdicts (sample :: samples)
    end in
  go 0 t0 [] []

(* Tails are taken over windows of this many pairs (about 3 s) and the
   median window reported. The host has spells of frequent stalls of
   tens of milliseconds; over a whole run they hit the few requests a
   p99 rests on, and one spell doubled it in some runs and not in
   others, while the median and the lower percentiles of a window held. *)
let window = 200

let measure ~seed ~seconds =
  let ctx, setup_times = Common.timed_setups (setup ~seed ~seconds) in
  let verdicts, samples, wall =
    stream ctx ~seconds ~limit:(Array.length ctx.pairs) in
  let rss = Common.peak_rss_mb (Unix.getpid ()) in
  let wrong = check ctx verdicts in
  let setup_s = Common.setup_s (setup ~seed ~seconds) setup_times in
  let n = List.length samples in
  let errors = n - List.length verdicts in
  let lat = List.map (fun s -> s.lat_ms) samples
  and rpc = List.map (fun s -> s.rpc_ms) samples in
  let lp, lp', ltail, lk = Stat.windowed_tail ~window lat
  and rp, rp', rtail, rk = Stat.windowed_tail ~window rpc in
  { Common.attempted = n;
    failed = errors + wrong;
    checks_passed = wrong = 0;
    metrics =
      [ ("setup_s", setup_s);
        ("explore_s", wall /. float_of_int (max 1 (n / Array.length systems)));
        ("analyze_per_s", float_of_int (List.length verdicts) /. wall);
        ("analyze_p50_ms", Stat.median lat);
        ("analyze_tail_ms", ltail);
        ("rpc_p50_ms", Stat.median rpc);
        ("rpc_tail_ms", rtail);
        ("max_rate_rps", float_of_int n /. wall);
        ("peak_rss_mb", rss) ];
    notes =
      [ Printf.sprintf "%d pairs in %.3f s (%d errors, %d wrong)" n wall errors
          wrong;
        Printf.sprintf "analyze_tail_ms = median over %d windows of about %d \
                        samples of each window's p%d-p%d" lk (n / lk) lp lp';
        Printf.sprintf "rpc_tail_ms = median over %d windows of about %d \
                        samples of each window's p%d-p%d" rk (n / rk) rp rp';
        "median latency per system: "
        ^ String.concat ", "
            (Array.to_list
               (Array.mapi
                  (fun k name ->
                    Printf.sprintf "%s %.3f ms" name
                      (Stat.median
                         (List.filter_map
                            (fun s -> if s.sys = k then Some s.lat_ms else None)
                            samples)))
                  systems)) ] }

let traced ~seed ~seconds =
  Trace.enabled := true;
  let ctx = setup ~seed ~seconds () in
  Trace.enabled := false;
  (* Blocks of pairs run untraced and then traced: equal work on both
     sides, and alternating keeps drift from favouring either. *)
  let block = 16 in
  let run_block ~traced first =
    Trace.enabled := traced;
    let t0 = Common.now () in
    let results =
      List.init block (fun j ->
          let i = first + j in
          Trace.set_request (i + 1);
          Trace.span "bench.request" (fun () ->
              try Some (analyze_pair ctx.pairs.(i)) with _ -> None)) in
    Trace.enabled := false;
    (Common.elapsed_s t0, results) in
  let t0 = Common.now () in
  let rec go first untraced traced verdicts errors =
    if first + block > Array.length ctx.pairs
       || (first > 0 && Common.elapsed_s t0 >= seconds)
    then (first, untraced, traced, verdicts, errors)
    else begin
      let u, _ = run_block ~traced:false first in
      let t, results = run_block ~traced:true first in
      let ok = List.filter_map Fun.id results in
      go (first + block) (untraced +. u) (traced +. t) (ok @ verdicts)
        (errors + block - List.length ok)
    end in
  let n, untraced, traced, verdicts, errors = go 0 0. 0. [] 0 in
  Trace.enabled := true;
  let wrong = check ctx verdicts in
  Trace.enabled := false;
  { Common.attempted = n;
    failed = errors + wrong;
    checks_passed = wrong = 0;
    metrics =
      [ ("bench.trace_overhead_pct", 100. *. ((traced /. untraced) -. 1.)) ];
    notes =
      [ Printf.sprintf "%d pairs: untraced %.3f s, traced %.3f s" n untraced
          traced ] }
