module Arch = Mcmap_model.Arch
module Appset = Mcmap_model.Appset
module Graph = Mcmap_model.Graph
module Plan = Mcmap_hardening.Plan
module Technique = Mcmap_hardening.Technique
module Happ = Mcmap_hardening.Happ
module Job = Mcmap_sched.Job
module Jobset = Mcmap_sched.Jobset
module Bounds = Mcmap_sched.Bounds
module Wcrt = Mcmap_analysis.Wcrt
module Verdict = Mcmap_analysis.Verdict
module Fingerprint = Mcmap_util.Fingerprint
module Lru = Mcmap_util.Lru
module Parallel = Mcmap_util.Parallel
module Obs = Mcmap_obs.Obs
module Flight = Mcmap_obs.Flight

(* ------------------------------------------------------------------ *)
(* Canonical plan fingerprints.                                        *)

let technique_fp fp (t : Technique.t) =
  match t with
  | Technique.No_hardening -> Fingerprint.int fp 1
  | Technique.Re_execution k -> Fingerprint.int (Fingerprint.int fp 2) k
  | Technique.Checkpointing (segments, k) ->
    Fingerprint.int (Fingerprint.int (Fingerprint.int fp 3) segments) k
  | Technique.Active_replication n ->
    Fingerprint.int (Fingerprint.int fp 4) n
  | Technique.Passive_replication m ->
    Fingerprint.int (Fingerprint.int fp 5) m

(* The voter binding is semantically inert without a voter (see
   {!Plan.decision}), so it is excluded from the canonical encoding:
   plans differing only there evaluate identically and should share one
   cache entry. *)
let decision_fp fp ~graph ~task (d : Plan.decision) =
  let fp = Fingerprint.int (Fingerprint.int fp graph) task in
  let fp = technique_fp fp d.Plan.technique in
  let fp = Fingerprint.int fp d.Plan.primary_proc in
  let fp = Fingerprint.int_array fp d.Plan.replica_procs in
  if Technique.needs_voter d.Plan.technique then
    Fingerprint.int fp d.Plan.voter_proc
  else fp

let drop_gene_tag = 0x4452 (* "DR": domain-separates drop genes *)

let fingerprint (plan : Plan.t) =
  (* Order-independent over genes: each bind/technique/drop gene is
     hashed with its coordinates and aggregated commutatively, so the
     encoding does not depend on any traversal order. *)
  let acc = ref Fingerprint.unordered_zero in
  Array.iteri
    (fun gi row ->
      Array.iteri
        (fun ti d ->
          acc :=
            Fingerprint.unordered_add !acc
              (decision_fp Fingerprint.empty ~graph:gi ~task:ti d))
        row)
    plan.Plan.decisions;
  Array.iteri
    (fun gi dropped ->
      if dropped then
        acc :=
          Fingerprint.unordered_add !acc
            (Fingerprint.int
               (Fingerprint.int Fingerprint.empty drop_gene_tag)
               gi))
    plan.Plan.dropped;
  Fingerprint.combine
    (Fingerprint.int Fingerprint.empty (Array.length plan.Plan.dropped))
    !acc

let decision_canonical_equal (a : Plan.decision) (b : Plan.decision) =
  a.Plan.technique = b.Plan.technique
  && a.Plan.primary_proc = b.Plan.primary_proc
  && a.Plan.replica_procs = b.Plan.replica_procs
  && ((not (Technique.needs_voter a.Plan.technique))
      || a.Plan.voter_proc = b.Plan.voter_proc)

(* Structural equality modulo the canonically-ignored coordinates — the
   collision guard behind every fingerprint-keyed result reuse. *)
let canonical_equal (a : Plan.t) (b : Plan.t) =
  a.Plan.dropped = b.Plan.dropped
  && Array.length a.Plan.decisions = Array.length b.Plan.decisions
  && begin
    try
      Array.iteri
        (fun gi row ->
          let row_b = b.Plan.decisions.(gi) in
          if Array.length row <> Array.length row_b then raise Exit;
          Array.iteri
            (fun ti d ->
              if not (decision_canonical_equal d row_b.(ti)) then raise Exit)
            row)
        a.Plan.decisions;
      true
    with Exit -> false
  end

(* ------------------------------------------------------------------ *)
(* Session state.                                                      *)

(* Cross-domain sharing audit (the discipline [mcmap serve] and
   [eval_population] rely on):

   - The two LRU tiers ([results], [components]), the per-entry
     [ce_scenarios] tables and [last_ok] are mutated only under
     [lock], which is held for the lookup or insert alone.
   - Cached values ([Evaluate.t], [centry]) are immutable once
     published, so a value evicted while another domain still holds
     it stays valid — eviction only drops the cache's reference.
   - The analysis contexts inside [centry] are shared across domains
     without the lock, which is safe for both engines: [Bounds.ctx]
     is read-only during [analyze] (scratch is allocated per call) and
     [Flat.ctx]'s scratch lives in a per-domain arena (Domain.DLS).
   - Two domains missing the same key may compute the same entry
     twice; results are bit-identical, the last insert wins, and the
     loser's entry dies with its holder — duplicated work, never
     divergence.
   - [eval] is therefore safe from any number of domains.
     [eval_population] additionally spawns its own fan-out, so
     concurrent calls are serialised on [population_lock] (below).
   - Obs/Flight recording uses per-domain buffers: safe from domains,
     but NOT from multiple systhreads sharing one domain — callers
     embedding a session in a threaded server must record their own
     metrics from reader threads (see Mcmap_serve.Metrics). *)

type engine = Wcrt.engine = Reference | Flat

(* Memoised analysis of one processor-connected component: the restricted
   jobset's normal-state fixed point, its triggers, and a lazily-grown
   table of trigger scenarios keyed by the fingerprint of the scenario's
   execution-bound vector (see [scenario]). Every verdict row is aligned
   with [ce_graphs]; [None] marks a diverged fixed point. *)
type centry = {
  ce_run : exec:(Job.t -> int * int) -> Bounds.result;
  ce_jobs : Job.t array;  (* the restricted jobset's jobs, id = index *)
  ce_graphs : int array;  (* ascending source graph indices *)
  ce_response : Job.t array array;  (* [Wcrt.response_jobs] of ce_graphs *)
  ce_normal : Bounds.result;
  ce_normal_verdicts : Verdict.t array option;
  ce_triggers : Job.t array;
  ce_scenarios : (Fingerprint.t, Verdict.t array option) Hashtbl.t;
}

type t = {
  arch : Arch.t;
  apps : Appset.t;
  salt : Fingerprint.t;
      (* absorbs the architecture (interconnect + processor count) into
         every result cache key, so fingerprints from sessions over
         different backends can never alias *)
  engine : engine;
  check_rescue : bool;
  max_iterations : int;
  domains : int;
  n_graphs : int;
  base : int;  (* application hyperperiod *)
  horizon : int;  (* full-jobset divergence horizon, plan-independent *)
  lock : Mutex.t;
  population_lock : Mutex.t;
      (* serialises eval_population: each call spawns its own domain
         fan-out, and two overlapping fan-outs from different callers
         would oversubscribe the machine and interleave their progress
         spans. One population at a time is the discipline [mcmap
         serve] relies on (its pool keeps one lock per session). *)
  results : (Fingerprint.t, Evaluate.t) Lru.t;
  components : (Fingerprint.t, centry) Lru.t;
  mutable last_ok : bool option;
      (* previous eval's schedulable bit, for verdict-flip events *)
}

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

(* Component entries hold restricted job sets and analysis contexts, so
   their tier stays small whatever the result capacity. *)
let component_capacity = 64

let create ?(cache_capacity = 4096) ?(domains = 1) ?(engine = Flat)
    ?(check_rescue = true)
    ?(max_iterations = Bounds.default_max_iterations) arch apps =
  if domains < 1 then invalid_arg "Evaluator.create: domains < 1";
  if cache_capacity < 0 then
    invalid_arg "Evaluator.create: negative cache capacity";
  let n_graphs = Appset.n_graphs apps in
  let salt =
    Mcmap_model.Interconnect.fingerprint
      (Fingerprint.int Fingerprint.empty (Arch.n_procs arch))
      arch.Arch.interconnect in
  let base = Appset.hyperperiod apps in
  (* The full jobset's horizon ([Bounds.make]'s default: 4 hyperperiods
     plus the latest absolute deadline) is plan-independent — per graph
     the latest release is [H - period] — so every restricted analysis
     can be run against the same cap and diverge exactly when the full
     analysis would. *)
  let horizon =
    let max_deadline = ref 0 in
    for g = 0 to n_graphs - 1 do
      let graph = Appset.graph apps g in
      if Graph.n_tasks graph > 0 then
        max_deadline :=
          max !max_deadline (base - graph.Graph.period + graph.Graph.deadline)
    done;
    (4 * base) + !max_deadline in
  { arch; apps; salt; engine; check_rescue; max_iterations; domains;
    n_graphs; base; horizon; lock = Mutex.create ();
    population_lock = Mutex.create ();
    results = Lru.create ~capacity:cache_capacity ();
    components = Lru.create ~capacity:component_capacity ();
    last_ok = None }

(* Cache-tier attribution: one labelled counter family per tier
   ("evaluator.<tier>~hit|miss|evict|collision"), and — when the flight
   recorder is armed — one structured event per decision, so a crash
   dump shows which tier served the last few hundred requests. *)
let tier_event tier kind label =
  if Obs.enabled () then Obs.incr ~label tier;
  if Flight.armed () then Flight.record kind tier

let tier_hit tier = tier_event tier Flight.Cache_hit "hit"

let tier_miss tier = tier_event tier Flight.Cache_miss "miss"

(* [Lru.evictions] is cumulative; emit the delta a single [add] caused. *)
let tier_add tier cache key value =
  let before = Lru.evictions cache in
  Lru.add cache key value;
  if Lru.evictions cache > before then
    tier_event tier Flight.Cache_evict "evict"

(* Flip events mark where the session's freshly-evaluated plans cross
   the schedulable/unschedulable boundary — the interesting moments in
   a search trajectory. Cache hits don't count: they re-observe an old
   verdict rather than produce a new one. *)
let note_verdict t ok =
  if Flight.armed () then
    with_lock t (fun () ->
        (match t.last_ok with
         | Some prev when prev <> ok ->
           Flight.record ~a:(Bool.to_int ok) ~b:(Bool.to_int prev)
             Flight.Verdict_flip "evaluator.schedulable"
         | Some _ | None -> ());
        t.last_ok <- Some ok)

let arch t = t.arch

let apps t = t.apps

(* ------------------------------------------------------------------ *)
(* Scheduling: processor-component decomposition of Algorithm 1.       *)

(* Partition source graphs into classes connected by processor sharing:
   interference is per-processor and precedence per-graph, so each class
   analyses independently of the others (given trigger summaries). *)
let components_of t (happ : Happ.t) =
  let n_procs = Arch.n_procs t.arch in
  let parent = Array.init n_procs Fun.id in
  let rec find p = if parent.(p) = p then p else find parent.(p) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(max ra rb) <- min ra rb in
  let anchor = Array.make t.n_graphs (-1) in
  Array.iteri
    (fun gi hg ->
      Array.iter
        (fun (ht : Happ.htask) ->
          if anchor.(gi) < 0 then anchor.(gi) <- ht.Happ.proc
          else union anchor.(gi) ht.Happ.proc)
        hg.Happ.tasks)
    happ.Happ.graphs;
  (* Group graphs by root processor, keeping ascending graph order;
     task-less graphs become singleton components. *)
  let buckets = Hashtbl.create 16 in
  let order = ref [] in
  for gi = t.n_graphs - 1 downto 0 do
    let key = if anchor.(gi) < 0 then -1 - gi else find anchor.(gi) in
    (match Hashtbl.find_opt buckets key with
     | Some members -> Hashtbl.replace buckets key (gi :: members)
     | None ->
       Hashtbl.replace buckets key [ gi ];
       order := key :: !order)
  done;
  (* [order] lists roots by ascending minimal member graph. *)
  List.map
    (fun key -> Array.of_list (Hashtbl.find buckets key))
    (List.sort
       (fun a b ->
         compare
           (List.hd (Hashtbl.find buckets a))
           (List.hd (Hashtbl.find buckets b)))
       !order)
  |> Array.of_list

let structure_fp rjs =
  let fp = ref (Fingerprint.int Fingerprint.empty (Jobset.n_jobs rjs)) in
  Array.iter
    (fun (j : Job.t) ->
      let f = !fp in
      let f = Fingerprint.int f j.Job.graph in
      let f = Fingerprint.int f j.Job.task in
      let f = Fingerprint.int f j.Job.instance in
      let f = Fingerprint.int f j.Job.release in
      let f = Fingerprint.int f j.Job.abs_deadline in
      let f = Fingerprint.int f j.Job.proc in
      let f = Fingerprint.int f j.Job.priority in
      let f = Fingerprint.int f j.Job.bcet in
      let f = Fingerprint.int f j.Job.wcet in
      let f = Fingerprint.int f j.Job.critical_wcet in
      let f = Fingerprint.int f j.Job.reexec_k in
      let f = Fingerprint.int f j.Job.recovery in
      let f = Fingerprint.bool f j.Job.passive in
      let f = Fingerprint.bool f j.Job.voter in
      let f = Fingerprint.int f j.Job.origin in
      let f = Fingerprint.bool f j.Job.droppable in
      let f = Fingerprint.bool f j.Job.in_dropped_set in
      fp := f)
    rjs.Jobset.jobs;
  Array.iter
    (fun edges ->
      fp := Fingerprint.int !fp (Array.length edges);
      Array.iter
        (fun (p, delay) -> fp := Fingerprint.int (Fingerprint.int !fp p) delay)
        edges)
    rjs.Jobset.preds;
  fp := Fingerprint.int_array !fp rjs.Jobset.topo;
  !fp

let centry_for t js graphs =
  let rjs = Jobset.restrict js ~graphs in
  let key = structure_fp rjs in
  match with_lock t (fun () -> Lru.find t.components key) with
  | Some entry ->
    tier_event "evaluator.component" Flight.Cache_hit "memo";
    entry
  | None ->
    tier_event "evaluator.component" Flight.Cache_miss "resolve";
    let run =
      Wcrt.fixpoint ~max_iterations:t.max_iterations ~horizon:t.horizon
        t.engine rjs in
    let response = Wcrt.response_jobs rjs graphs in
    let normal = run ~exec:Bounds.nominal_exec in
    let entry =
      { ce_run = run; ce_jobs = rjs.Jobset.jobs; ce_graphs = graphs;
        ce_response = response; ce_normal = normal;
        ce_normal_verdicts = Wcrt.verdicts response normal;
        ce_triggers = Array.of_list (Jobset.triggers rjs);
        ce_scenarios = Hashtbl.create 16 } in
    with_lock t (fun () ->
        tier_add "evaluator.component" t.components key entry);
    entry

(* One trigger scenario of a component, under the per-job execution
   bounds [exec]. Within an entry the fixed point is a pure function of
   the (lo, hi) vector [exec] gives the jobs in id order — the entry fixes
   the structure, the session the horizon, cap and engine — so that
   vector's fingerprint keys the memo exactly: internal triggers that
   adjust the bounds identically, and external triggers with equal
   summaries, share one run. Racing domains may compute the same
   verdicts twice; they are equal, the last insert wins. *)
let scenario t entry exec =
  let bounds = Array.map exec entry.ce_jobs in
  let key =
    Array.fold_left
      (fun fp (lo, hi) -> Fingerprint.int (Fingerprint.int fp lo) hi)
      Fingerprint.empty bounds in
  match with_lock t (fun () -> Hashtbl.find_opt entry.ce_scenarios key) with
  | Some verdicts ->
    tier_hit "evaluator.scenario";
    verdicts
  | None ->
    tier_miss "evaluator.scenario";
    let verdicts =
      Wcrt.verdicts entry.ce_response
        (entry.ce_run ~exec:(fun (j : Job.t) -> bounds.(j.Job.id))) in
    with_lock t (fun () -> Hashtbl.replace entry.ce_scenarios key verdicts);
    verdicts

(* Reassemble the full Algorithm 1 verdicts from per-component pieces.
   Exactness relies on three facts established in DESIGN.md §11: the
   restricted sweeps replay the full Gauss-Seidel sweeps verbatim (same
   job order, same horizon, same iteration cap), a remote trigger acts
   on a component only through its execution bounds there (its
   (min_start, max_finish) summary, {!Wcrt.external_exec}), and
   divergence in any component diverges the whole state — so a state's
   row is [None] as soon as one component's is, and [Wcrt.assemble]
   applies the same rules as the full analysis. *)
let compute_sched t js =
  let entries =
    Array.map (fun graphs -> centry_for t js graphs)
      (components_of t js.Jobset.happ) in
  let glue rows =
    if Array.exists Option.is_none rows then None
    else begin
      let row = Array.make t.n_graphs Verdict.Unbounded in
      Array.iteri
        (fun ci verdicts ->
          Array.iteri
            (fun k g -> row.(g) <- (Option.get verdicts).(k))
            entries.(ci).ce_graphs)
        rows;
      Some row
    end in
  (* Trigger [v] of component [ci]: its own scenario there, and the
     external scenario of its summary in every other component. Every
     component's row is solved even when one diverges. *)
  let trigger ci (v : Job.t) =
    let nb = entries.(ci).ce_normal.Bounds.bounds in
    let { Bounds.min_start; max_finish; _ } = nb.(v.Job.id) in
    glue
      (Array.mapi
         (fun cj other ->
           scenario t other
             (if cj = ci then Wcrt.scenario_exec ~base:t.base nb v
              else
                Wcrt.external_exec ~base:t.base ~min_start ~max_finish
                  other.ce_normal.Bounds.bounds))
         entries) in
  let scenarios =
    Seq.concat
      (Seq.mapi
         (fun ci entry -> Seq.map (trigger ci) (Array.to_seq entry.ce_triggers))
         (Array.to_seq entries)) in
  Wcrt.assemble js.Jobset.happ
    ~normal:(glue (Array.map (fun e -> e.ce_normal_verdicts) entries))
    ~scenarios

(* ------------------------------------------------------------------ *)
(* Evaluation.                                                         *)

(* The reference pipeline of [Evaluate.evaluate] with the memoised
   scheduler swapped in: every other step is the same code, so the two
   agree whenever [compute_sched] reproduces [Wcrt.analyze]. *)
let eval_fresh t plan =
  Evaluate.evaluate_with ~check_rescue:t.check_rescue ~sched:(compute_sched t)
    t.arch t.apps plan

let find_cached t fp plan =
  with_lock t (fun () ->
      match Lru.find t.results fp with
      | Some e when canonical_equal e.Evaluate.plan plan -> Some e
      | Some _ ->
        (* fingerprint collision: treat as a miss *)
        tier_event "evaluator.result" Flight.Cache_collision "collision";
        None
      | None -> None)

let eval t plan =
  Obs.with_span "evaluator.eval" (fun () ->
      let fp = Fingerprint.combine t.salt (fingerprint plan) in
      match find_cached t fp plan with
      | Some e ->
        tier_hit "evaluator.result";
        { e with Evaluate.plan }
      | None ->
        tier_miss "evaluator.result";
        let e = eval_fresh t plan in
        note_verdict t e.Evaluate.schedulable;
        with_lock t (fun () -> tier_add "evaluator.result" t.results fp e);
        e)

let eval_population t plans =
  (* One population fan-out at a time (see [population_lock]): a second
     concurrent caller blocks here until the first finishes, rather
     than doubling the spawned domains. [eval] itself is reentrant
     under this lock — population workers call it freely. *)
  Mutex.lock t.population_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.population_lock)
  @@ fun () ->
  Obs.with_span "evaluator.eval_population" (fun () ->
      let n = Array.length plans in
      let fps =
        Array.map
          (fun p -> Fingerprint.combine t.salt (fingerprint p))
          plans in
      (* Representative of each canonical-equality class: the first
         occurrence. Classes are found via the fingerprint with a
         structural guard, so colliding-but-different plans stay
         separate. *)
      let rep = Array.make n (-1) in
      let classes = Hashtbl.create (2 * n) in
      for i = 0 to n - 1 do
        let seen =
          Option.value ~default:[] (Hashtbl.find_opt classes fps.(i)) in
        match
          List.find_opt (fun j -> canonical_equal plans.(j) plans.(i)) seen
        with
        | Some j -> rep.(i) <- j
        | None ->
          rep.(i) <- i;
          Hashtbl.replace classes fps.(i) (i :: seen)
      done;
      let results = Array.make n None in
      let work = ref [] in
      for i = n - 1 downto 0 do
        if rep.(i) = i then begin
          match find_cached t fps.(i) plans.(i) with
          | Some e ->
            tier_hit "evaluator.result";
            results.(i) <- Some { e with Evaluate.plan = plans.(i) }
          | None -> work := i :: !work
        end
      done;
      let work = Array.of_list !work in
      (* Unevaluated representatives fan out over domains; [eval] guards
         every shared cache with the session lock and any racy duplicate
         work produces bit-identical results, so the merge below is
         deterministic for any domain count. *)
      let fresh =
        Parallel.map_array ~domains:t.domains
          (fun i -> eval t plans.(i))
          work in
      Array.iteri (fun k i -> results.(i) <- Some fresh.(k)) work;
      Array.init n (fun i ->
          match results.(rep.(i)) with
          | Some e ->
            if rep.(i) = i then e else { e with Evaluate.plan = plans.(i) }
          | None -> assert false))
