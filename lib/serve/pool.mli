(** The server's session pool: one {!Mcmap_dse.Evaluator} session per
    distinct system, shared by every connection and worker that asks
    for that system, with bounded LRU eviction of cold sessions.

    Sessions are keyed by the fingerprint of the system's canonical
    [Spec.write_system] text — two clients sending the same design in
    different formatting or field order share one session and therefore
    one set of warm caches. Hits are guarded by comparing the stored
    canonical text, so a fingerprint collision degrades to a miss
    instead of serving another system's evaluator.

    All operations are mutex-guarded; the returned sessions are safe to
    use from any worker domain ({!Mcmap_dse.Evaluator.eval} is
    domain-safe and [eval_population] serialises itself). *)

type t

val create :
  ?capacity:int -> ?domains:int -> metrics:Metrics.t -> unit -> t
(** [capacity] (default 8) bounds the number of live sessions;
    [domains] (default 1) is passed to each created session's
    [Evaluator.create]. Pool traffic is recorded only in [metrics], as
    [serve.pool~hit], [serve.pool~miss], [serve.pool~evict] counters
    and a [serve.pool.size] gauge; the server's [stats] response
    reports them from there.
    @raise Invalid_argument if [capacity < 1] or [domains < 1]. *)

val session : t -> Mcmap_spec.Spec.system -> Mcmap_dse.Evaluator.t
(** The pooled session for this system, creating (and possibly
    evicting the least recently used) on miss. *)
