module Spec = Mcmap_spec.Spec
module Evaluator = Mcmap_dse.Evaluator
module Fingerprint = Mcmap_util.Fingerprint
module Lru = Mcmap_util.Lru

type entry = {
  canonical : string;  (** collision guard: the full canonical text *)
  session : Evaluator.t;
}

type t = {
  lock : Mutex.t;
  sessions : (string, entry) Lru.t;  (** keyed by fingerprint hex *)
  domains : int;
  metrics : Metrics.t;
}

let create ?(capacity = 8) ?(domains = 1) ~metrics () =
  if capacity < 1 then invalid_arg "Pool.create: capacity < 1";
  if domains < 1 then invalid_arg "Pool.create: domains < 1";
  { lock = Mutex.create ();
    sessions = Lru.create ~capacity ();
    domains;
    metrics }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let fingerprint_of canonical =
  Fingerprint.to_hex (Fingerprint.string Fingerprint.empty canonical)

let session t (system : Spec.system) =
  let canonical = Spec.write_system system in
  let key = fingerprint_of canonical in
  match
    with_lock t (fun () ->
        match Lru.find t.sessions key with
        | Some e when e.canonical = canonical -> Some e.session
        | Some _ | None -> None)
  with
  | Some session ->
    Metrics.incr ~label:"hit" t.metrics "serve.pool";
    session
  | None ->
    (* Create outside the lock: session construction precomputes
       bounds and hyperperiods, and a slow build must not block
       concurrent lookups of warm sessions. Racing misses on the same
       system build twice and the later [add] wins — wasted work, never
       a wrong answer (the same trade the evaluator caches make). *)
    let session =
      Evaluator.create ~domains:t.domains system.Spec.arch
        system.Spec.apps
    in
    let evicted =
      with_lock t (fun () ->
          let before = Lru.evictions t.sessions in
          Lru.add t.sessions key { canonical; session };
          Lru.evictions t.sessions - before)
    in
    Metrics.incr ~label:"miss" t.metrics "serve.pool";
    if evicted > 0 then
      Metrics.incr ~by:evicted ~label:"evict" t.metrics "serve.pool";
    Metrics.gauge t.metrics "serve.pool.size"
      (float_of_int (with_lock t (fun () -> Lru.length t.sessions)));
    session
