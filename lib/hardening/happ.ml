module Appset = Mcmap_model.Appset
module Arch = Mcmap_model.Arch
module Graph = Mcmap_model.Graph
module Proc = Mcmap_model.Proc
module Task = Mcmap_model.Task

type role = Primary | Replica of int | Passive_spare of int | Voter

type htask = {
  id : int;
  name : string;
  origin : int;
  role : role;
  proc : int;
  bcet : int;
  wcet : int;
  critical_wcet : int;
  reexec_k : int;
  recovery : int;
  passive : bool;
}

type hchannel = { src : int; dst : int; size : int }

type hgraph = {
  source_index : int;
  source : Graph.t;
  tasks : htask array;
  channels : hchannel array;
  preds : (int * int) array array;
  succs : (int * int) array array;
  topo : int array;
}

type t = {
  arch : Arch.t;
  apps : Appset.t;
  plan : Plan.t;
  graphs : hgraph array;
}

let adjacency n channels =
  let preds = Array.make n [] and succs = Array.make n [] in
  List.iter
    (fun c ->
      preds.(c.dst) <- (c.src, c.size) :: preds.(c.dst);
      succs.(c.src) <- (c.dst, c.size) :: succs.(c.src))
    channels;
  ( Array.map (fun l -> Array.of_list (List.rev l)) preds,
    Array.map (fun l -> Array.of_list (List.rev l)) succs )

let topological_order n preds succs =
  let deg = Array.map Array.length preds in
  let ready = ref [] in
  for v = n - 1 downto 0 do
    if deg.(v) = 0 then ready := v :: !ready
  done;
  let order = Array.make n (-1) in
  let rec loop i = function
    | [] -> i
    | v :: rest ->
      order.(i) <- v;
      let rest =
        Array.fold_left
          (fun acc (w, _) ->
            deg.(w) <- deg.(w) - 1;
            if deg.(w) = 0 then List.sort compare (w :: acc) else acc)
          rest succs.(v) in
      loop (i + 1) rest in
  let filled = loop 0 !ready in
  assert (filled = n);
  order

(* Build the hardened image of one source graph: materialise replica and
   voter nodes, rewire the channels through per-origin input/output
   frontiers, and inflate execution bounds per Eq. (1). *)
let build_graph arch apps plan gi =
  let g = Appset.graph apps gi in
  let n = Graph.n_tasks g in
  let nodes = ref [] in
  let next_id = ref 0 in
  let inputs = Array.make n [] (* hardened entry nodes per origin *)
  and output = Array.make n (-1) (* hardened exit node per origin *)
  and actives_of = Array.make n [] (* active replicas, per origin *)
  and spares_of = Array.make n [] (* passive spares, per origin *) in
  let add ?(reexec_k = 0) ?(recovery = 0) ~name ~origin ~role ~proc ~bcet
      ~wcet ~critical_wcet ~passive () =
    let id = !next_id in
    incr next_id;
    nodes :=
      { id; name; origin; role; proc; bcet; wcet; critical_wcet; reexec_k;
        recovery; passive }
      :: !nodes;
    id in
  let scale proc c = Proc.scale_time (Arch.proc arch proc) c in
  for v = 0 to n - 1 do
    let task = Graph.task g v in
    let d = Plan.decision plan ~graph:gi ~task:v in
    let name = task.Task.name in
    let replica ~role ~passive proc =
      add ~name:(Format.asprintf "%s/%s" name
                   (match role with
                    | Primary -> "p"
                    | Replica i -> Format.asprintf "r%d" i
                    | Passive_spare i -> Format.asprintf "s%d" i
                    | Voter -> "vote"))
        ~origin:v ~role ~proc ~bcet:(scale proc task.Task.bcet)
        ~wcet:(scale proc task.Task.wcet)
        ~critical_wcet:(scale proc task.Task.wcet) ~passive () in
    match d.Plan.technique with
    | Technique.No_hardening ->
      let proc = d.Plan.primary_proc in
      let id =
        add ~name ~origin:v ~role:Primary ~proc
          ~bcet:(scale proc task.Task.bcet) ~wcet:(scale proc task.Task.wcet)
          ~critical_wcet:(scale proc task.Task.wcet) ~passive:false () in
      inputs.(v) <- [ id ];
      output.(v) <- id
    | Technique.Re_execution k ->
      let proc = d.Plan.primary_proc in
      let dt = scale proc task.Task.detection_overhead in
      let wcet = scale proc task.Task.wcet + dt in
      let bcet = scale proc task.Task.bcet + dt in
      let critical_wcet =
        Technique.wcet_after_re_execution ~wcet:(scale proc task.Task.wcet)
          ~detection:dt ~k in
      let id =
        add ~name ~origin:v ~role:Primary ~proc ~bcet ~wcet ~critical_wcet
          ~reexec_k:k ~recovery:wcet ~passive:false () in
      inputs.(v) <- [ id ];
      output.(v) <- id
    | Technique.Checkpointing (segments, k) ->
      let proc = d.Plan.primary_proc in
      let dt = scale proc task.Task.detection_overhead in
      let body = scale proc task.Task.wcet in
      let wcet = body + (segments * dt) in
      let bcet = scale proc task.Task.bcet + (segments * dt) in
      let recovery = Mcmap_util.Mathx.ceil_div body segments + dt in
      let critical_wcet = wcet + (k * recovery) in
      let id =
        add ~name ~origin:v ~role:Primary ~proc ~bcet ~wcet ~critical_wcet
          ~reexec_k:k ~recovery ~passive:false () in
      inputs.(v) <- [ id ];
      output.(v) <- id
    | Technique.Active_replication _ ->
      let procs = d.Plan.primary_proc :: Array.to_list d.Plan.replica_procs in
      let ids =
        List.mapi
          (fun i proc ->
            let role = if i = 0 then Primary else Replica i in
            replica ~role ~passive:false proc)
          procs in
      let vp = d.Plan.voter_proc in
      let ve = scale vp task.Task.voting_overhead in
      let voter =
        add ~name:(name ^ "/vote") ~origin:v ~role:Voter ~proc:vp ~bcet:ve
          ~wcet:ve ~critical_wcet:ve ~passive:false () in
      inputs.(v) <- ids;
      output.(v) <- voter
    | Technique.Passive_replication m ->
      let all = d.Plan.primary_proc :: Array.to_list d.Plan.replica_procs in
      let ids =
        List.mapi
          (fun i proc ->
            if i = 0 then replica ~role:Primary ~passive:false proc
            else if i = 1 then replica ~role:(Replica 1) ~passive:false proc
            else replica ~role:(Passive_spare (i - 1)) ~passive:true proc)
          all in
      assert (List.length all = m + 2);
      (match ids with
       | a0 :: a1 :: spares ->
         actives_of.(v) <- [ a0; a1 ];
         spares_of.(v) <- spares
       | [] | [ _ ] -> assert false);
      let vp = d.Plan.voter_proc in
      let ve = scale vp task.Task.voting_overhead in
      let voter =
        add ~name:(name ^ "/vote") ~origin:v ~role:Voter ~proc:vp ~bcet:ve
          ~wcet:ve ~critical_wcet:ve ~passive:false () in
      inputs.(v) <- ids;
      output.(v) <- voter
  done;
  let tasks =
    let arr = Array.of_list (List.rev !nodes) in
    Array.iteri (fun i node -> assert (node.id = i)) arr;
    arr in
  (* Result payload of a task: what its voter forwards downstream. *)
  let result_size v =
    List.fold_left
      (fun acc (_, c) -> max acc c.Mcmap_model.Channel.size)
      0 (Graph.succs g v) in
  let channels = ref [] in
  Array.iter
    (fun (c : Mcmap_model.Channel.t) ->
      List.iter
        (fun dst ->
          channels :=
            { src = output.(c.Mcmap_model.Channel.src); dst;
              size = c.Mcmap_model.Channel.size }
            :: !channels)
        inputs.(c.Mcmap_model.Channel.dst))
    g.Graph.channels;
  for v = 0 to n - 1 do
    (match inputs.(v) with
     | [ single ] when single = output.(v) -> ()
     | replicas ->
       List.iter
         (fun r ->
           channels :=
             { src = r; dst = output.(v); size = result_size v }
             :: !channels)
         replicas);
    (* Passive spares self-activate on a local mismatch of the active
       results, so they additionally depend on every active replica. *)
    List.iter
      (fun s ->
        List.iter
          (fun a ->
            channels :=
              { src = a; dst = s; size = result_size v } :: !channels)
          actives_of.(v))
      spares_of.(v)
  done;
  let channels_list = List.rev !channels in
  let n_nodes = Array.length tasks in
  let preds, succs = adjacency n_nodes channels_list in
  let topo = topological_order n_nodes preds succs in
  { source_index = gi; source = g; tasks;
    channels = Array.of_list channels_list; preds; succs; topo }

let build arch apps plan =
  (match Plan.errors arch apps plan with
   | [] -> ()
   | msg :: _ -> invalid_arg ("Happ.build: " ^ msg));
  let graphs =
    Array.init (Appset.n_graphs apps) (build_graph arch apps plan) in
  { arch; apps; plan; graphs }

let n_graphs t = Array.length t.graphs

let graph t i = t.graphs.(i)

let period hg = hg.source.Graph.period

let deadline hg = hg.source.Graph.deadline

let graph_droppable t gi = Graph.is_droppable (graph t gi).source

let graph_in_dropped_set t gi = t.plan.Plan.dropped.(gi)

let is_trigger ht = ht.reexec_k > 0 || ht.passive

let n_tasks t =
  Array.fold_left (fun acc hg -> acc + Array.length hg.tasks) 0 t.graphs

let sink_response_tasks hg =
  let image_of v =
    (* The hardened exit node of origin [v]: its voter if replicated,
       otherwise its sole (primary) node. *)
    let voter = ref (-1) and primary = ref (-1) in
    Array.iter
      (fun ht ->
        if ht.origin = v then
          match ht.role with
          | Voter -> voter := ht.id
          | Primary -> primary := ht.id
          | Replica _ | Passive_spare _ -> ())
      hg.tasks;
    if !voter >= 0 then !voter else !primary in
  List.map image_of (Graph.sinks hg.source)

type utilization_mode = Nominal | Critical

let utilization ?(mode = Nominal) t =
  let u = Array.make (Arch.n_procs t.arch) 0. in
  Array.iteri
    (fun gi hg ->
      let period = float_of_int (period hg) in
      let dropped = graph_in_dropped_set t gi in
      Array.iter
        (fun ht ->
          let demand =
            match mode with
            | Nominal -> if ht.passive then 0 else ht.wcet
            | Critical -> if dropped then 0 else ht.critical_wcet in
          u.(ht.proc) <- u.(ht.proc) +. (float_of_int demand /. period))
        hg.tasks)
    t.graphs;
  u

let pp ppf t =
  Format.fprintf ppf "@[<v>hardened application set:@,";
  Array.iter
    (fun hg ->
      Format.fprintf ppf "  %s: %d hardened tasks, %d channels@,"
        hg.source.Graph.name (Array.length hg.tasks)
        (Array.length hg.channels))
    t.graphs;
  Format.fprintf ppf "@]"
