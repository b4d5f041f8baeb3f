(* explore-dtlarge: fixed-seed Explore.runs on DT-large, one per GA seed
   drawn from the benchmark seed, with the default population and
   offspring on one domain — the heaviest job a user runs, spent almost
   entirely in cold evaluator evaluations and flat fixpoints. It lints
   once (the CLI's round-trip gate) and never parses a spec. *)

module B = Mcmap_benchmarks
module D = Mcmap_dse
module H = Mcmap_hardening
module S = Mcmap_sched
module A = Mcmap_analysis
module R = Mcmap_reliability
module Spec = Mcmap_spec.Spec
module L = Mcmap_lint
module Obs = Mcmap_obs.Obs
module Prng = Mcmap_util.Prng

(* Generations per run: the 10-generation profile the workload is
   described by (about 440 evaluations, most of a run's fixpoints
   repeating earlier scenarios, a few percent result- and sched-cache
   hits), about 3.5 s on a 2-core x86 box. The cost of a run depends on
   the trajectory its seed takes (one run's wall time varies by about
   13% across seeds), so a benchmark run makes one run per seed over
   several seeds, one per 3.5 s of --seconds, and reports means over
   them. *)
let generations = 10

let runs_for ~seconds = max 2 (int_of_float (Float.round (seconds /. 3.5)))

type ctx = {
  arch : Mcmap_model.Arch.t;
  apps : Mcmap_model.Appset.t;
  config : D.Ga.config;
  ga_seeds : int array;
  seed : int;
}

let setup ~seed ~seconds () =
  let b = B.Registry.find_exn "dt-large" in
  let arch = b.B.Benchmark.arch and apps = b.B.Benchmark.apps in
  let text =
    Trace.span "spec.write" (fun () -> Spec.write_system { Spec.arch; apps })
  in
  let ds, _ =
    Trace.span "lint.system" (fun () ->
        L.Lint.lint_system ~file:"dt-large" text) in
  Trace.count "lint.diags" (float_of_int (List.length ds));
  if L.Diagnostic.error_count ds > 0 then failwith "dt-large fails lint";
  let rng = Common.rng ~seed "explore" in
  { arch; apps; seed;
    config = { D.Ga.default_config with D.Ga.generations };
    ga_seeds = Array.init (runs_for ~seconds) (fun _ -> Prng.int rng 1_000_000_000) }

type run = {
  ga_seed : int;
  wall_ns : int64;
  gen_ns : int64 list;  (** wall time of each on_generation interval *)
  gen_evals : int list;  (** evaluations in each interval *)
  summary : D.Explore.summary;
}

let explore_once ctx ga_seed =
  let config = { ctx.config with D.Ga.seed = ga_seed } in
  let t0 = Common.now () in
  let last = ref t0 and gens = ref [] in
  let on_generation (_ : D.Explore.progress) =
    let t = Common.now () in
    Trace.record "dse.generation" ~start_ns:!last ~stop_ns:t;
    gens := Int64.sub t !last :: !gens;
    last := t in
  let summary = D.Explore.run ~config ~on_generation ctx.arch ctx.apps in
  let wall_ns = Int64.sub (Common.now ()) t0 in
  (* on_generation first fires after generation 1, so its first interval
     also covers the initial population. *)
  let gen_evals =
    match List.map (fun g -> g.D.Ga.batch) summary.D.Explore.stats.D.Ga.history with
    | b0 :: b1 :: rest -> (b0 + b1) :: rest
    | short -> short in
  { ga_seed; wall_ns; gen_ns = List.rev !gens; gen_evals; summary }

let front_equal a b =
  List.equal
    (fun (p1, pow1, s1) (p2, pow2, s2) ->
      p1 = p2 && Common.same_float pow1 pow2 && Common.same_float s1 s2)
    a.summary.D.Explore.pareto b.summary.D.Explore.pareto

(* Every Pareto point re-evaluated from nothing by the reference
   implementation must match bit for bit. *)
let front_matches_reference ctx run =
  List.for_all
    (fun (plan, power, service) ->
      let e =
        D.Evaluate.evaluate ~check_rescue:ctx.config.D.Ga.check_rescue
          ~max_iterations:ctx.config.D.Ga.max_iterations ctx.arch ctx.apps plan
      in
      D.Evaluate.feasible e
      && Common.same_float e.D.Evaluate.power power
      && Common.same_float e.D.Evaluate.service service)
    run.summary.D.Explore.pareto

(* Outside the timed region: each run's front against the reference
   engine, and the first seed run again must give the identical front.
   Returns the number of failed runs. *)
let check ctx runs =
  let bad = List.filter (fun r -> not (front_matches_reference ctx r)) runs in
  let rerun_bad =
    match runs with
    | first :: _ -> not (front_equal first (explore_once ctx first.ga_seed))
    | [] -> true in
  List.length bad + if rerun_bad then 1 else 0

let measure ~seed ~seconds =
  (* Set-up takes a few milliseconds, so it is timed again before every
     run, and the median taken over the whole run. *)
  let ctx, setup_times = Common.timed_setups (setup ~seed ~seconds) in
  let setup_times = ref setup_times in
  let runs =
    Array.to_list
      (Array.map
         (fun ga_seed ->
           let _, times = Common.timed_setups ~seconds:0.1 (setup ~seed ~seconds) in
           setup_times := times @ !setup_times;
           explore_once ctx ga_seed)
         ctx.ga_seeds) in
  let setup_s = Stat.median !setup_times in
  let rss = Common.peak_rss_mb (Unix.getpid ()) in
  let failed = check ctx runs in
  let walls = List.map (fun r -> Stat.ns_to_s r.wall_ns) runs in
  (* Totals over all runs rather than medians of per-run figures: the
     host's speed switches between regimes lasting seconds, and a median
     jumps with them where a mean moves with their proportions. *)
  let total_wall = Stat.sum walls in
  let evaluations =
    List.fold_left
      (fun a r -> a + r.summary.D.Explore.stats.D.Ga.evaluations) 0 runs in
  (* A generation is due when the previous one ends, and its verdicts are
     out when its batch is. The first interval also holds the initial
     population, a batch of another kind, so it is left out of both. *)
  let later = List.concat_map (fun r -> List.tl (List.combine r.gen_ns r.gen_evals)) runs in
  let gen_ms = List.map (fun (ns, _) -> Stat.ns_to_ms ns) later in
  let verdict_ms =
    List.map (fun (ns, n) -> Stat.ns_to_ms ns /. float_of_int (max 1 n)) later in
  let vp, vtail, vn = Stat.tail verdict_ms and gp, gtail, gn = Stat.tail gen_ms in
  { Common.attempted = List.length runs;
    failed;
    checks_passed = failed = 0;
    metrics =
      [ ("setup_s", setup_s);
        ("explore_s", total_wall /. float_of_int (List.length runs));
        ("analyze_per_s", float_of_int evaluations /. total_wall);
        ("analyze_p50_ms", Stat.median verdict_ms);
        ("analyze_tail_ms", vtail);
        ("rpc_p50_ms", Stat.median gen_ms);
        ("rpc_tail_ms", gtail);
        ("max_rate_rps", float_of_int (List.length runs * generations) /. total_wall);
        ("peak_rss_mb", rss) ];
    notes =
      [ Printf.sprintf "%d explore runs (one per GA seed) x %d generations, \
                        %d evaluations, wall %s s"
          (List.length runs) generations evaluations
          (String.concat " " (List.map (Printf.sprintf "%.3f") walls));
        Printf.sprintf "analyze_tail_ms = p%d of %d per-verdict samples" vp vn;
        Printf.sprintf "rpc_tail_ms = p%d of %d generation samples" gp gn ] }

(* The layer ladder one plan goes through, each call in its own span. *)
let replay_plan ctx plan =
  Trace.span "bench.replay" @@ fun () ->
  let happ =
    Trace.span "hardening.build" (fun () -> H.Happ.build ctx.arch ctx.apps plan)
  in
  Trace.count "hardening.tasks" (float_of_int (H.Happ.n_tasks happ));
  let js = Trace.span "sched.jobset" (fun () -> S.Jobset.build happ) in
  Trace.count "sched.jobs" (float_of_int (S.Jobset.n_jobs js));
  Trace.count "sched.triggers" (float_of_int (List.length (S.Jobset.triggers js)));
  let fctx = Trace.span "sched.flat_make" (fun () -> S.Flat.make js) in
  ignore
    (Trace.span "sched.flat_fixpoint" (fun () ->
         S.Flat.analyze fctx ~exec:S.Bounds.nominal_exec));
  let bctx = Trace.span "sched.bounds_make" (fun () -> S.Bounds.make js) in
  ignore
    (Trace.span "sched.bounds_fixpoint" (fun () ->
         S.Bounds.analyze bctx ~exec:S.Bounds.nominal_exec));
  let report = Trace.span "analysis.wcrt" (fun () -> A.Wcrt.analyze bctx) in
  Trace.count "analysis.scenarios" (float_of_int report.A.Wcrt.scenarios);
  ignore
    (Trace.span "reliability.violations" (fun () ->
         R.Analysis.violations ctx.arch ctx.apps plan));
  let session = D.Evaluator.create ctx.arch ctx.apps in
  ignore (Trace.span "dse.eval_cold" (fun () -> D.Evaluator.eval session plan));
  ignore (Trace.span "dse.eval_warm" (fun () -> D.Evaluator.eval session plan))

(* One GA step's worth of work outside Explore.run: decode a doubled
   population of random genomes, evaluate it as one cold population and
   run SPEA2 environmental selection over it. *)
let replay_generation ctx =
  let pop = ctx.config.D.Ga.population in
  let rng = Common.rng ~seed:ctx.seed "explore-replay" in
  let genomes =
    Array.init (2 * pop) (fun _ -> D.Genome.random rng ctx.arch ctx.apps) in
  let plans =
    Array.map
      (fun g ->
        let r = Prng.split rng in
        Trace.span "dse.decode" (fun () -> D.Decode.decode r ctx.arch ctx.apps g))
      genomes in
  let session = D.Evaluator.create ctx.arch ctx.apps in
  let evals =
    Trace.span "dse.eval_population" (fun () ->
        D.Evaluator.eval_population session plans) in
  let individuals =
    Array.map2
      (fun g (e : D.Evaluate.t) ->
        D.Spea2.make_individual ~payload:g ~objectives:e.D.Evaluate.objectives
          ~violation:e.D.Evaluate.violation)
      genomes evals in
  ignore
    (Trace.span "dse.select" (fun () ->
         D.Spea2.assign_fitness individuals;
         D.Spea2.environmental_selection ~size:pop individuals))

let traced ~seed ~seconds =
  (* Untraced and traced runs of the same seeds do the same work, so
     their wall times give the tracing overhead; alternating them keeps
     warm-up from favouring either side. *)
  let ctx = setup ~seed ~seconds () in
  let seeds = Array.to_list (Array.sub ctx.ga_seeds 0 2) in
  let untraced = ref [] and traced = ref [] in
  Obs.reset ();
  List.iter
    (fun ga_seed ->
      untraced := explore_once ctx ga_seed :: !untraced;
      Trace.enabled := true;
      Obs.enable ();
      traced := explore_once ctx ga_seed :: !traced;
      Obs.disable ();
      Trace.enabled := false)
    seeds;
  let snapshot = Obs.snapshot () in
  Trace.enabled := true;
  ignore (setup ~seed ~seconds ());
  let plans =
    List.sort_uniq compare
      (List.concat_map
         (fun r -> List.map (fun (p, _, _) -> p) r.summary.D.Explore.pareto)
         !traced) in
  List.iteri (fun i p -> Trace.set_request (i + 1); replay_plan ctx p) plans;
  Trace.set_request 0;
  replay_generation ctx;
  Trace.enabled := false;
  let c = Common.counter snapshot and ratio = Common.ratio in
  let failed =
    List.length (List.filter not (List.map2 front_equal !untraced !traced)) in
  let wall runs = Stat.sum (List.map (fun r -> Stat.ns_to_s r.wall_ns) runs) in
  { Common.attempted = List.length seeds;
    failed;
    checks_passed = failed = 0;
    metrics =
      [ ("dse.result_hit_ratio",
         ratio (c "evaluator.result~hit") (c "evaluator.result~miss"));
        ("dse.sched_hit_ratio",
         ratio (c "evaluator.sched~hit") (c "evaluator.sched~miss"));
        ("dse.component_hit_ratio",
         ratio (c "evaluator.component~memo") (c "evaluator.component~resolve"));
        ("bench.trace_overhead_pct",
         100. *. ((wall !traced /. wall !untraced) -. 1.)) ];
    notes =
      [ Printf.sprintf "traced explore %.3f s, untraced %.3f s; %d plans replayed"
          (wall !traced) (wall !untraced)
          (List.length plans) ] }
