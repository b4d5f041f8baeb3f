(* serve-mixed: an open loop from this process, over at most nproc (and
   at most two) connections, against a spawned [mcmap serve] with as
   many workers, on a Unix socket. DT-large requests are sent on a fixed
   schedule at a few fixed rates:

   - mostly [analyze] over a small repeating working set of plans
     (pool and result-cache hits, dominated by protocol, spec and lint);
   - a share of fresh plans (cold evaluation);
   - a small share of [eval-population] requests.

   The only workload that exercises serve (wire, protocol, queue,
   pool); it also shows whether a faster warm path costs the batch
   requests that share its workers. *)

module B = Mcmap_benchmarks
module D = Mcmap_dse
module H = Mcmap_hardening
module Spec = Mcmap_spec.Spec
module L = Mcmap_lint
module P = Mcmap_serve.Protocol
module Client = Mcmap_serve.Client
module Wire = Mcmap_util.Wire
module Sexp = Mcmap_util.Sexp
module Prng = Mcmap_util.Prng
module Obs = Mcmap_obs.Obs
module Histogram = Mcmap_obs.Histogram

let workers = max 1 (min 2 (Domain.recommended_domain_count ()))

let connections = workers

(* Offered rates, ascending: the reference rate, the one rpc_* and
   analyze_* are measured at, then a ladder 1.12x apart around the
   daemon's capacity. With two workers on a 2-core x86 VM that capacity
   is 125-180 requests/s, depending on how fast the host runs at the
   time, so rungs much further apart would make max_rate_rps jump
   between two of them from run to run; a capacity change of a quarter
   moves it by two rungs. *)
let rates = [| 50.; 112.; 126.; 141.; 158.; 178.; 200.; 224. |]

let reference = 0

(* The latency limit on the tail percentile, from the due time: about
   ten times the reference-rate tail, so host noise does not fail a step
   the daemon keeps up with. A step just above capacity can stay under
   it for its two seconds; {!max_growth} is what fails that step. *)
let limit_ms = 300.

(* Request kinds repeat with a period of 20: one eval-population
   request, then analyses, three of them (slots 7, 12 and 17) on fresh
   plans and the rest on the working set. The fixed spacing keeps a
   fresh analysis from queueing behind a population request at the
   reference rate, so the tail percentiles measure service time rather
   than the luck of an arrival order, and they fall inside one request
   class on every seed. *)
let pattern =
  Array.init 20 (fun i ->
      if i = 0 then `Population else if i mod 5 = 2 && i > 2 then `Fresh else `Warm)

let working_set = 4

let population_size = 4

(* Share of the run spent at the reference rate; the other rates split
   the rest evenly. *)
let reference_share = 0.5

type item = {
  kind : [ `Warm | `Fresh | `Population ];
  plans : H.Plan.t list;
  body : P.request_body;
}

type ctx = {
  system : Spec.system;
  steps : item array array;  (** one schedule per rate *)
  pid : int;
  sock : string;
  fds : Unix.file_descr array;
}

let step_seconds ~seconds i =
  if i = reference then seconds *. reference_share
  else seconds *. (1. -. reference_share) /. float_of_int (Array.length rates - 1)

(* The requests of every step, drawn from the seed: hand-drawn
   load-balanced plans (Sampler.balanced_plan), kept only when they pass
   the plan lint the daemon applies, so no request is refused. *)
let items ~seed ~seconds system =
  let { Spec.arch; apps } = system in
  let forms = Common.get (Sexp.parse (Trace.span "spec.write" (fun () ->
      Spec.write_system system))) in
  let rng = Common.rng ~seed "serve-mixed" in
  let rec fresh_plan () =
    let plan = B.Sampler.balanced_plan ~seed:(Prng.int rng 1_000_000_000) arch apps in
    let text = Trace.span "spec.write" (fun () -> Spec.write_plan system plan) in
    if L.Diagnostic.error_count (L.Lint.lint_plan system text) > 0 then fresh_plan ()
    else (plan, Common.get (Sexp.parse_one text)) in
  let analyze kind (plan, form) =
    { kind; plans = [ plan ]; body = P.Analyze { system = forms; plan = Some form } } in
  let warm = Array.init working_set (fun _ -> analyze `Warm (fresh_plan ())) in
  let next = ref 0 in
  let draw () =
    let kind = pattern.(!next mod Array.length pattern) in
    incr next;
    match kind with
    | `Warm -> warm.(Prng.int rng working_set)
    | `Fresh -> analyze `Fresh (fresh_plan ())
    | `Population ->
      let plans = List.init population_size (fun _ -> fresh_plan ()) in
      { kind = `Population; plans = List.map fst plans;
        body = P.Eval_population { system = forms; plans = List.map snd plans } } in
  let steps =
    Array.mapi
      (fun i rate ->
        Array.init (max 1 (int_of_float (Float.round (rate *. step_seconds ~seconds i))))
          (fun _ -> draw ()))
      rates in
  (warm, steps)

let request id body = { P.id; deadline_ms = None; no_lint = false; body }

let call sock body =
  match Client.connect (P.Unix_sock sock) with
  | Error e -> Error e
  | Ok c ->
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    Client.call c (request (Client.fresh_id c) body)

(* Processes (daemons and spinners) this process started and has not yet
   reaped. *)
let live = ref []

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> () in
  wait ();
  live := List.filter (( <> ) pid) !live

let kill_all () =
  List.iter
    (fun pid -> (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()); reap pid)
    !live

let () = at_exit kill_all

(* Run [f] with one lowest-priority busy process per worker, so the CPUs
   never go idle. On a VM, every wake-up of an idle virtual CPU costs a
   hypervisor round trip whose length depends on the host's other
   tenants; a request crosses four wake-ups (reader, worker, reply,
   generator), and without the spinners the reference-rate median moved
   between 5.5 and 12 ms from one run to the next. Any runnable request
   thread preempts a spinner at once. *)
let with_spinners f =
  let parent = Unix.getpid () in
  let spinners =
    List.init workers (fun _ ->
        match Unix.fork () with
        | 0 ->
          (* A spinner outlives no parent, however that one ends. *)
          List.iter (fun s -> Sys.set_signal s Sys.Signal_default) [ Sys.sigterm; Sys.sigint ];
          ignore (Unix.nice 19);
          while Unix.getppid () = parent do
            for _ = 1 to 1_000_000 do ignore (Sys.opaque_identity ()) done
          done;
          Unix._exit 0
        | pid -> pid) in
  live := spinners @ !live;
  Fun.protect f ~finally:(fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        spinners)

let spawn ~mcmap ~sock =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process mcmap
      [| mcmap; "serve"; "--listen"; sock; "--workers"; string_of_int workers;
         "--queue"; "4096" |]
      Unix.stdin devnull Unix.stderr in
  Unix.close devnull;
  live := pid :: !live;
  let t0 = Common.now () in
  let rec await () =
    match call sock P.Ping with
    | Ok { P.r_body = P.Pong; _ } -> ()
    | Ok _ | Error _ ->
      if Common.elapsed_s t0 > 30. then failwith "mcmap serve did not answer";
      Unix.sleepf 0.002;
      await () in
  await ();
  pid

let shutdown ctx =
  Array.iter Unix.close ctx.fds;
  ignore (call ctx.sock P.Shutdown);
  let t0 = Common.now () in
  let rec await () =
    match Unix.waitpid [ Unix.WNOHANG ] ctx.pid with
    | 0, _ when Common.elapsed_s t0 < 10. -> Unix.sleepf 0.005; await ()
    | 0, _ -> kill_all ()
    | _ -> live := List.filter (( <> ) ctx.pid) !live
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> await () in
  await ()

let setup ~mcmap ~dir ~seed ~seconds () =
  let b = B.Registry.find_exn "dt-large" in
  let system = { Spec.arch = b.B.Benchmark.arch; apps = b.B.Benchmark.apps } in
  let warm, steps = items ~seed ~seconds system in
  let sock = Filename.concat dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let pid = spawn ~mcmap ~sock in
  (* Fill the pool and the result cache with the working set. *)
  Array.iter
    (fun it ->
      match call sock it.body with
      | Ok { P.r_body = P.Analysis _; _ } -> ()
      | Ok _ | Error _ -> failwith "warm-up request failed")
    warm;
  let fds =
    Array.init connections (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        fd) in
  { system; steps; pid; sock; fds }

type sent = {
  item : item;
  due : int64;
  mutable send : int64;
  mutable recv : int64;
  mutable resp : P.response_body option;
}

let ns_of_s s = Int64.of_float (s *. 1e9)

(* Request ids already used on the connections, so that a straggler of
   an earlier step can never be taken for an answer in a later one. *)
let issued = ref 0

(* One open-loop step: request [i] is due at [t0 + i / rate] and goes
   out on connection [i mod connections] no earlier; responses are read
   whenever they arrive. After the schedule, wait up to the drain limit
   for stragglers — an unanswered request is a deadline miss. *)
let run_step ctx ~rate items =
  let n = Array.length items in
  let base = !issued in
  issued := base + n;
  let period = 1e9 /. rate in
  let t0 = Int64.add (Common.now ()) 1_000_000L in
  let due i = Int64.add t0 (Int64.of_float (float_of_int i *. period)) in
  let drain_deadline = Int64.add (due n) (ns_of_s 30.) in
  let sent = Array.init n (fun i ->
      { item = items.(i); due = due i; send = 0L; recv = 0L; resp = None }) in
  let pending = ref 0 and next = ref 0 in
  let send i =
    let s = sent.(i) in
    s.send <- Common.now ();
    Trace.set_request (base + i + 1);
    let frame =
      Trace.span "serve.encode" (fun () ->
          P.request_to_string (request (base + i + 1) s.item.body)) in
    Wire.write_frame ~max:Wire.max_frame_limit ctx.fds.(i mod connections) frame;
    incr pending in
  let receive fd =
    match Wire.read_frame ~max:Wire.max_frame_limit fd with
    | Error e -> failwith ("serve connection: " ^ Wire.read_error_to_string e)
    | Ok payload ->
      let stop = Common.now () in
      (match Trace.span "serve.decode" (fun () -> P.response_of_string payload) with
       | Ok r when r.P.r_id > base && r.P.r_id <= base + n
                   && sent.(r.P.r_id - base - 1).resp = None ->
         let s = sent.(r.P.r_id - base - 1) in
         s.recv <- stop;
         s.resp <- Some r.P.r_body;
         decr pending;
         Trace.record ~req:r.P.r_id "serve.rpc" ~start_ns:s.send ~stop_ns:stop
       | Ok _ | Error _ -> ()) in
  let rec loop () =
    let now = Common.now () in
    if !next < n && Int64.compare (due !next) now <= 0 then begin
      send !next;
      incr next;
      loop ()
    end
    else if !next >= n && (!pending = 0 || Int64.compare now drain_deadline > 0)
    then ()
    else begin
      let until = if !next < n then due !next else drain_deadline in
      let timeout = Int64.to_float (Int64.sub until now) /. 1e9 in
      (match Unix.select (Array.to_list ctx.fds) [] [] (max 0. timeout) with
       | readable, _, _ -> List.iter receive readable
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end in
  loop ();
  sent

type step = {
  rate : float;
  sent : sent array;
  rpc_ms : float list;  (** from the due time, in send order; failures count as infinite *)
  tail : int * int * float * int;  (** {!Stat.windowed_tail} of [rpc_ms] *)
  growth : float;  (** {!backlog_growth} *)
  achieved : float;  (** answers per second over the step *)
  passed : bool;
}

(* Tails are taken over windows of this many requests (2.5 s at the
   reference rate) and the median window reported: the host stalls now
   and then for tens of milliseconds, and a stall in one window should
   not decide the figure. *)
let window = 125

let answered s =
  match s.resp with
  | Some (P.Analysis _ | P.Population _) -> true
  | Some _ | None -> false

let latency_from_due s =
  if answered s then Stat.ns_to_ms (Int64.sub s.recv s.due) else infinity

(* Backlog growth over a step, in seconds of latency per second of
   schedule: the median latency from the due time of the last third of
   the requests less that of the first third, over the time between
   their midpoints. Below capacity it stays near 0; offered at a factor
   [r] above capacity the queue grows by [r - 1] seconds of work per
   second. Medians keep a stall of tens of milliseconds from deciding
   it. *)
let backlog_growth sent =
  let n = Array.length sent in
  let third = max 1 (n / 3) in
  let part lo = Array.to_list (Array.sub sent lo third) in
  let median_latency lo = Stat.median (List.map latency_from_due (part lo)) in
  let mid_due lo = sent.(lo + (third / 2)).due in
  let span_s = Stat.ns_to_s (Int64.sub (mid_due (n - third)) (mid_due 0)) in
  if span_s <= 0. then 0.
  else (median_latency (n - third) -. median_latency 0) /. 1e3 /. span_s

(* A step keeps up when the queue grows by less than this share of the
   offered work (30 ms of latency per second of schedule). Below
   capacity the growth stays within about 0.015 of 0; one rung above
   it, it reads 0.09 and more. *)
let max_growth = 0.03

let summarize rate sent =
  let rpc_ms = Array.to_list (Array.map latency_from_due sent) in
  let ((_, _, tail_value, _) as tail) = Stat.windowed_tail ~window rpc_ms in
  let growth = backlog_growth sent in
  let answers = Array.fold_left (fun a s -> if answered s then a + 1 else a) 0 sent in
  let last_recv = Array.fold_left (fun a s -> if answered s then max a s.recv else a) 0L sent in
  let achieved =
    if answers = 0 then 0.
    else float_of_int answers /. Stat.ns_to_s (Int64.sub last_recv sent.(0).due) in
  { rate; sent; rpc_ms; tail; growth; achieved;
    passed = tail_value <= limit_ms && growth < max_growth }

(* Every answer must equal the in-process flat-engine evaluation of the
   same plans. Returns the number of requests that failed for any
   reason: wrong answer, rejection, error or no answer. *)
let check ctx steps =
  let session = D.Evaluator.create ctx.system.Spec.arch ctx.system.Spec.apps in
  let expect plan = P.analysis_of_eval (D.Evaluator.eval session plan) in
  let same a b = P.equal_response { P.r_id = 0; r_body = a } { P.r_id = 0; r_body = b } in
  let ok s =
    match s.resp, s.item.plans with
    | Some (P.Analysis _ as got), [ plan ] -> same got (P.Analysis (expect plan))
    | Some (P.Population _ as got), plans ->
      same got (P.Population (Array.of_list (List.map expect plans)))
    | (Some _ | None), _ -> false in
  List.fold_left
    (fun bad st -> Array.fold_left (fun bad s -> if ok s then bad else bad + 1) bad st.sent)
    0 steps

let analyze_ms st =
  List.filter_map
    (fun s ->
      match s.item.kind with
      | (`Warm | `Fresh) when answered s -> Some (Stat.ns_to_ms (Int64.sub s.recv s.send))
      | _ -> None)
    (Array.to_list st.sent)

let population_s st =
  List.filter_map
    (fun s ->
      if s.item.kind = `Population then Some (latency_from_due s /. 1e3) else None)
    (Array.to_list st.sent)

let verdicts st =
  Array.fold_left
    (fun a s ->
      match s.resp with
      | Some (P.Analysis _) -> a + 1
      | Some (P.Population p) -> a + Array.length p
      | Some _ | None -> a)
    0 st.sent

let gen_lag_ms steps =
  List.concat_map
    (fun st -> Array.to_list (Array.map (fun s -> Stat.ns_to_ms (Int64.sub s.send s.due)) st.sent))
    steps

let measure ~mcmap ~dir ~seed ~seconds =
  with_spinners @@ fun () ->
  let ctx, setup_times =
    Common.timed_setups ~teardown:shutdown (setup ~mcmap ~dir ~seed ~seconds) in
  (* The daemon's peak RSS is read after the reference step: the backlog
     of parsed requests an overloaded rung leaves would otherwise decide
     it. *)
  let rss = ref nan in
  let steps =
    Array.to_list
      (Array.mapi
         (fun i items ->
           let st = summarize rates.(i) (run_step ctx ~rate:rates.(i) items) in
           if i = reference then rss := Common.peak_rss_mb ctx.pid;
           st)
         ctx.steps) in
  shutdown ctx;
  let best = List.fold_left (fun acc st -> if st.passed then Some st else acc) None steps in
  let failed = check ctx steps in
  let setup_s =
    Common.setup_s ~teardown:shutdown (setup ~mcmap ~dir ~seed ~seconds) setup_times in
  let attempted = List.fold_left (fun a st -> a + Array.length st.sent) 0 steps in
  let ref_step = List.nth steps reference in
  let ap, ap', atail, an = Stat.windowed_tail ~window (analyze_ms ref_step) in
  let rp, rp', rtail, rn = ref_step.tail in
  let ref_wall =
    Stat.ns_to_s
      (Int64.sub
         (Array.fold_left (fun a s -> max a s.recv) 0L ref_step.sent)
         ref_step.sent.(0).due) in
  let lag = gen_lag_ms steps in
  { Common.attempted;
    failed;
    checks_passed = failed = 0;
    metrics =
      [ ("setup_s", setup_s);
        ("explore_s",
         let p = population_s ref_step in
         Stat.sum p /. float_of_int (List.length p));
        ("analyze_per_s", float_of_int (verdicts ref_step) /. ref_wall);
        ("analyze_p50_ms", Stat.median (analyze_ms ref_step));
        ("analyze_tail_ms", atail);
        ("rpc_p50_ms", Stat.median ref_step.rpc_ms);
        ("rpc_tail_ms", rtail);
        ("max_rate_rps", match best with Some st -> st.achieved | None -> 0.);
        ("peak_rss_mb", !rss) ];
    notes =
      List.map
        (fun st ->
          let p, _, v, k = st.tail in
          Printf.sprintf "rate %.0f/s: %d requests, p50 %.3f ms, windowed p%d \
                          %.3f ms (%d windows), backlog growth %.3f s/s, \
                          achieved %.2f/s, %s"
            st.rate (Array.length st.sent) (Stat.median st.rpc_ms) p v k
            st.growth st.achieved
            (if st.passed then "meets the limit" else "misses the limit"))
        steps
      @ [ Printf.sprintf "a rate meets the limit when its tail is at most %.0f ms \
                          and its backlog grows by less than %.2f s/s; \
                          reference rate %.0f/s" limit_ms max_growth rates.(reference);
          Printf.sprintf "tails are the median over windows of %d requests of \
                          each window's highest percentile with ten samples \
                          beyond it: analyze_tail_ms p%d-p%d over %d windows of \
                          %d analyses, rpc_tail_ms p%d-p%d over %d windows of \
                          %d requests"
            window ap ap' an (List.length (analyze_ms ref_step)) rp rp' rn
            (Array.length ref_step.sent);
          Printf.sprintf "generator lag: median %.3f ms, max %.3f ms"
            (Stat.median lag) (List.fold_left max 0. lag) ] }

let traced ~mcmap ~dir ~seed ~seconds =
  with_spinners @@ fun () ->
  Trace.enabled := true;
  let ctx = setup ~mcmap ~dir ~seed ~seconds () in
  let client = Common.get (Client.connect (P.Unix_sock ctx.sock)) in
  for _ = 1 to 50 do
    let t0 = Common.now () in
    ignore (Client.call client (request (Client.fresh_id client) P.Ping));
    Trace.record "serve.ping_rtt" ~start_ns:t0 ~stop_ns:(Common.now ())
  done;
  Client.close client;
  (* The first half of the reference schedule, untraced and traced in
     turn: the ratio of their median latencies is the tracing overhead. *)
  let rate = rates.(reference) in
  let items =
    let all = ctx.steps.(reference) in
    Array.sub all 0 (Array.length all / 2) in
  let run ~traced =
    Trace.enabled := traced;
    let st = summarize rate (run_step ctx ~rate items) in
    Trace.enabled := false;
    st in
  let pairs = List.init 2 (fun _ -> let u = run ~traced:false in (u, run ~traced:true)) in
  let untraced = List.map fst pairs and traced = List.map snd pairs in
  let median_rpc steps = Stat.median (List.concat_map (fun st -> st.rpc_ms) steps) in
  let snap =
    match call ctx.sock P.Stats with
    | Ok { P.r_body = P.Stats_snapshot s; _ } -> Common.get (Obs.metrics_of_sexp s)
    | Ok _ | Error _ -> failwith "stats request failed" in
  shutdown ctx;
  let c = Common.counter snap in
  let queue_wait =
    List.fold_left
      (fun acc m -> match m with Obs.Histogram h -> Histogram.merge acc h | _ -> acc)
      (Histogram.create ()) (Common.family snap "serve.queue_wait_ns") in
  let queue_wait_ms =
    if Histogram.is_empty queue_wait then 0. else Histogram.mean queue_wait /. 1e6 in
  let steps = untraced @ traced in
  let failed = check ctx steps in
  let lag = gen_lag_ms steps in
  { Common.attempted = List.fold_left (fun a st -> a + Array.length st.sent) 0 steps;
    failed;
    checks_passed = failed = 0;
    metrics =
      [ ("serve.queue_wait_ms", queue_wait_ms);
        ("serve.pool_hit_ratio", Common.ratio (c "serve.pool~hit") (c "serve.pool~miss"));
        ("serve.rejected", c "serve.rejected");
        ("bench.gen_lag_ms", Stat.median lag);
        ("bench.trace_overhead_pct",
         100. *. ((median_rpc traced /. median_rpc untraced) -. 1.)) ];
    notes = [] }
