(** The hardened application set [T'] (paper §2.3): the result of applying
    a {!Plan.t} to an application set. Re-execution keeps the topology and
    inflates execution times per Eq. (1); replication materialises replica
    tasks and a voter per hardened task (Fig. 2); passive spares are
    flagged so the analysis can treat them as silent in the normal state.

    Passive spares also receive channels from both active replicas: the
    spare self-activates when the active results that reach its processor
    disagree, which places its earliest possible start after the actives
    complete — the dependency a safe WCRT analysis must see.

    All execution times stored here are scaled to the bound processor's
    speed, so downstream components never consult processor speeds. *)

type role =
  | Primary  (** the original task / first replica *)
  | Replica of int  (** additional active replica (1-based) *)
  | Passive_spare of int  (** replica instantiated only on request *)
  | Voter  (** majority voter of a replicated task *)

type htask = {
  id : int;  (** index within the hardened graph *)
  name : string;
  origin : int;  (** original task id in the source graph *)
  role : role;
  proc : int;  (** bound processor *)
  bcet : int;  (** nominal best-case execution time (scaled) *)
  wcet : int;
      (** nominal worst-case execution time (scaled); includes the
          detection overhead for re-executable tasks *)
  critical_wcet : int;
      (** Eq. (1)-style bound for rollback-hardened tasks;
          [= wcet] otherwise *)
  reexec_k : int;
      (** maximum rollbacks (re-executions or checkpoint recoveries);
          0 if not rollback-hardened *)
  recovery : int;
      (** execution time of one rollback: the full nominal execution for
          re-execution, one segment plus its checkpoint for
          checkpointing; 0 otherwise *)
  passive : bool;  (** a passive spare: silent unless a fault occurs *)
}

type hchannel = { src : int; dst : int; size : int }

type hgraph = private {
  source_index : int;  (** index of the source graph in the appset *)
  source : Mcmap_model.Graph.t;
  tasks : htask array;
  channels : hchannel array;
  preds : (int * int) array array;
      (** [preds.(v)] = [(u, size)] for each channel u->v *)
  succs : (int * int) array array;
  topo : int array;  (** topological order of hardened task ids *)
}

type t = private {
  arch : Mcmap_model.Arch.t;
  apps : Mcmap_model.Appset.t;
  plan : Plan.t;
  graphs : hgraph array;
}

val build : Mcmap_model.Arch.t -> Mcmap_model.Appset.t -> Plan.t -> t
(** Apply the plan.
    @raise Invalid_argument if the plan has placement errors
    (see {!Plan.errors}). *)

val n_graphs : t -> int

val graph : t -> int -> hgraph

val period : hgraph -> int

val deadline : hgraph -> int

val graph_droppable : t -> int -> bool
(** The source graph is droppable (whether it is in [T_d] is the plan's
    [dropped] flag). *)

val graph_in_dropped_set : t -> int -> bool
(** The graph belongs to the dropped set [T_d] of the plan. *)

val is_trigger : htask -> bool
(** The task can trigger a transition to the critical state: it is
    re-executable or it is a passive spare (paper §3). *)

val n_tasks : t -> int
(** Total hardened tasks over all graphs. *)

val sink_response_tasks : hgraph -> int list
(** Hardened tasks whose completion defines the graph's response time:
    the hardened images of the source graph's sinks (the voter when the
    sink is replicated). *)

type utilization_mode =
  | Nominal  (** fault-free: nominal WCETs, passive spares silent *)
  | Critical
      (** certified worst case: Eq. (1) WCETs, passive spares active,
          dropped-set graphs excluded (they are abandoned in the
          critical state) *)

val utilization : ?mode:utilization_mode -> t -> float array
(** Per-processor utilisation over the hyperperiod, the sum of
    [execution time / period] of bound tasks under the chosen mode
    (default {!Nominal}). The paper's power objective provisions for the
    {!Critical} utilisation — which is what makes task dropping save
    power. *)

val pp : Format.formatter -> t -> unit
