module Obs = Mcmap_obs.Obs
module Histogram = Mcmap_obs.Histogram

type cell =
  | Counter of int ref
  | Gauge of float ref
  | Hist of Histogram.t

type t = { lock : Mutex.t; cells : (string, cell) Hashtbl.t }

let create () = { lock = Mutex.create (); cells = Hashtbl.create 64 }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let key ?label name =
  match label with None -> name | Some l -> name ^ "~" ^ l

let cell_kind = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Hist _ -> "histogram"

let wrong k c want =
  invalid_arg
    (Printf.sprintf "Serve.Metrics: %s is a %s, not a %s" k (cell_kind c)
       want)

(* All three accessors assume [t.lock] is held. *)
let counter_cell t k =
  match Hashtbl.find_opt t.cells k with
  | Some (Counter r) -> r
  | Some c -> wrong k c "counter"
  | None ->
    let r = ref 0 in
    Hashtbl.add t.cells k (Counter r);
    r

let gauge_cell t k =
  match Hashtbl.find_opt t.cells k with
  | Some (Gauge r) -> r
  | Some c -> wrong k c "gauge"
  | None ->
    let r = ref 0. in
    Hashtbl.add t.cells k (Gauge r);
    r

let hist_cell t k =
  match Hashtbl.find_opt t.cells k with
  | Some (Hist h) -> h
  | Some c -> wrong k c "histogram"
  | None ->
    let h = Histogram.create () in
    Hashtbl.add t.cells k (Hist h);
    h

let incr ?(by = 1) ?label t name =
  let k = key ?label name in
  with_lock t (fun () ->
      let r = counter_cell t k in
      r := !r + by)

let gauge ?label t name v =
  let k = key ?label name in
  with_lock t (fun () -> gauge_cell t k := v)

let observe ?label t name v =
  let k = key ?label name in
  with_lock t (fun () -> Histogram.observe (hist_cell t k) v)

let snapshot t : Obs.snapshot =
  let metrics =
    with_lock t (fun () ->
        Hashtbl.fold
          (fun k c acc ->
            let m =
              match c with
              | Counter r -> Obs.Counter !r
              | Gauge r -> Obs.Gauge !r
              | Hist h -> Obs.Histogram (Histogram.copy h)
            in
            (k, m) :: acc)
          t.cells [])
  in
  { Obs.metrics =
      List.sort (fun (a, _) (b, _) -> String.compare a b) metrics;
    spans = [] }

let to_sexp t = Obs.metrics_to_sexp (snapshot t)
