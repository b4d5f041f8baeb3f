(** The server's own metrics registry.

    {!Mcmap_obs.Obs} keeps a per-domain buffer with one-mutator-per-
    domain discipline and only snapshots from the main domain with no
    workers running — exactly what a live server cannot offer: reader
    systhreads all share the main domain, and a [stats] request must be
    answerable mid-flight. So [mcmap serve] keeps its own registry, one
    mutex around a plain hash table, and renders it in the
    [Obs.metrics_to_sexp] format so the existing [mcmap stats] renderer
    and parser work on it unchanged.

    Worker domains additionally mirror request spans into {!Obs}/
    {!Mcmap_obs.Flight} when recording is enabled (each worker is its
    own domain, so the one-mutator rule holds there). *)

type t

val create : unit -> t

val incr : ?by:int -> ?label:string -> t -> string -> unit

val gauge : ?label:string -> t -> string -> float -> unit

val observe : ?label:string -> t -> string -> int -> unit
(** Add one observation to a log-bucket histogram
    ({!Mcmap_obs.Histogram}). *)

val snapshot : t -> Mcmap_obs.Obs.snapshot
(** A consistent copy (metrics sorted by name, no spans). *)

val to_sexp : t -> Mcmap_util.Sexp.t
(** [Obs.metrics_to_sexp (snapshot t)]. *)
